package num

// ReferenceRefactorInto is CLU.RefactorInto as it stood before it skipped
// structural zeros and divided through a per-pivot divisor: every
// division by the pivot is Go's complex128 division, and every
// elimination updates every column right of the pivot. It is kept only
// as the reference that the bit-identity tests compare against, which
// build AC systems from real circuits and so live outside package num.
func (f *CLU) ReferenceRefactorInto(a *CMatrix, ref *CLU) (reused bool, err error) {
	n := a.N
	if ref == nil || !ref.ok || ref.n != n {
		return false, f.FactorInto(a)
	}
	piv := ref.piv
	f.resize(n)
	f.ok = false
	lu := f.lu
	for i := 0; i < n; i++ {
		copy(lu[i*n:i*n+n], a.Data[piv[i]*n:piv[i]*n+n])
	}
	maxU, maxPiv := 0.0, 0.0
	for k := 0; k < n; k++ {
		rowK := lu[k*n : k*n+n]
		for _, v := range rowK[k:] {
			if av := cAbs1(v); av > maxU {
				maxU = av
			}
		}
		pivot := rowK[k]
		pa := cAbs1(pivot)
		if !(pa > 0) {
			return false, f.FactorInto(a) // zero or NaN pivot
		}
		if pa > maxPiv {
			maxPiv = pa
		}
		for i := k + 1; i < n; i++ {
			l := lu[i*n+k] / pivot
			if !(cAbs1(l) <= MultLimit) {
				return false, f.FactorInto(a) // unstable (or NaN) multiplier
			}
			lu[i*n+k] = l
			if l == 0 {
				continue
			}
			rowI := lu[i*n : i*n+n]
			for j := k + 1; j < n; j++ {
				rowI[j] -= l * rowK[j]
			}
		}
	}
	if !(maxU <= GrowthLimit*maxPiv) {
		return false, f.FactorInto(a) // runaway element growth
	}
	if f != ref {
		copy(f.piv, piv)
	}
	f.ok = true
	return true, nil
}

// ReferenceSolve is CLU.Solve as it stood before it divided through the
// per-pivot divisors: back substitution divides with Go's complex
// division. ReferenceRefactorInto keeps no divisors, so a factorisation
// it made is solved only through this.
func (f *CLU) ReferenceSolve(b, x []complex128) {
	n := f.n
	y := f.y[:n]
	for i := 0; i < n; i++ {
		y[i] = b[f.piv[i]]
	}
	for i := 1; i < n; i++ {
		row := f.lu[i*n : i*n+n]
		s := y[i]
		for j := 0; j < i; j++ {
			s -= row[j] * y[j]
		}
		y[i] = s
	}
	for i := n - 1; i >= 0; i-- {
		row := f.lu[i*n : i*n+n]
		s := y[i]
		for j := i + 1; j < n; j++ {
			s -= row[j] * y[j]
		}
		y[i] = s / row[i]
	}
	copy(x, y)
}

// Factors exposes the packed LU factors and the row permutation.
func (f *CLU) Factors() ([]complex128, []int) { return f.lu, f.piv }
