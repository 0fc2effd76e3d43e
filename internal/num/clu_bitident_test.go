package num_test

import (
	"math"
	"math/rand"
	"testing"

	"analogyield/internal/analysis"
	"analogyield/internal/circuit"
	"analogyield/internal/filter"
	"analogyield/internal/num"
	"analogyield/internal/ota"
	"analogyield/internal/process"
)

func sameBits(a, b complex128) bool {
	return math.Float64bits(real(a)) == math.Float64bits(real(b)) &&
		math.Float64bits(imag(a)) == math.Float64bits(imag(b))
}

// refactorPair keeps a factorisation by the current code and one by the
// reference code side by side, each with its own reference pivot order.
type refactorPair struct {
	got, want       *num.CLU
	gotRef, wantRef *num.CLU
	b, xg, xw       []complex128
}

func newRefactorPair(n int, rng *rand.Rand) *refactorPair {
	p := &refactorPair{
		got: num.NewCLU(n), want: num.NewCLU(n),
		gotRef: num.NewCLU(n), wantRef: num.NewCLU(n),
		b: make([]complex128, n), xg: make([]complex128, n), xw: make([]complex128, n),
	}
	for i := range p.b {
		p.b[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	return p
}

// setReference factors a under full pivoting on both sides.
func (p *refactorPair) setReference(t *testing.T, a *num.CMatrix) {
	t.Helper()
	if err := p.gotRef.FactorInto(a); err != nil {
		t.Fatal(err)
	}
	if err := p.wantRef.FactorInto(a); err != nil {
		t.Fatal(err)
	}
}

// check refactors a on both sides against their references and compares
// the flag, the factors, the pivots and a solve, bit for bit. It then
// factors a afresh into new buffers and compares their solves too, so
// Solve's divisors are pinned after FactorInto as well as RefactorInto.
func (p *refactorPair) check(t *testing.T, what string, a *num.CMatrix) (reused bool) {
	t.Helper()
	rg, eg := p.got.RefactorInto(a, p.gotRef)
	rw, ew := p.want.ReferenceRefactorInto(a, p.wantRef)
	if rg != rw || (eg == nil) != (ew == nil) {
		t.Fatalf("%s: reused=%v err=%v, reference reused=%v err=%v", what, rg, eg, rw, ew)
	}
	if eg != nil {
		return false
	}
	compareFactors(t, what, p.got, p.want)
	p.compareSolve(t, what+" (refactor)", p.got, p.want)
	fg, fw := num.NewCLU(a.N), num.NewCLU(a.N)
	if err := fg.FactorInto(a); err != nil {
		t.Fatalf("%s: FactorInto: %v", what, err)
	}
	if err := fw.FactorInto(a); err != nil {
		t.Fatalf("%s: FactorInto: %v", what, err)
	}
	p.compareSolve(t, what+" (factor)", fg, fw)
	return rg
}

// compareSolve solves with the current Solve on got and with the
// reference's complex division on want, bit for bit.
func (p *refactorPair) compareSolve(t *testing.T, what string, got, want *num.CLU) {
	t.Helper()
	got.Solve(p.b, p.xg)
	want.ReferenceSolve(p.b, p.xw)
	for i := range p.xg {
		if !sameBits(p.xg[i], p.xw[i]) {
			t.Fatalf("%s: x[%d] = %v, reference %v", what, i, p.xg[i], p.xw[i])
		}
	}
}

func compareFactors(t *testing.T, what string, got, want *num.CLU) {
	t.Helper()
	lg, pg := got.Factors()
	lw, pw := want.Factors()
	for i := range lw {
		if !sameBits(lg[i], lw[i]) {
			t.Fatalf("%s: lu[%d] = %v, reference %v", what, i, lg[i], lw[i])
		}
	}
	for i := range pw {
		if pg[i] != pw[i] {
			t.Fatalf("%s: piv[%d] = %d, reference %d", what, i, pg[i], pw[i])
		}
	}
}

// noNegativeZero fails if any part of any cell of a is −0: the premise
// under which skipping structural zeros is bit-identical.
func noNegativeZero(t *testing.T, what string, a *num.CMatrix) {
	t.Helper()
	for k, v := range a.Data {
		if math.Signbit(real(v)) && real(v) == 0 || math.Signbit(imag(v)) && imag(v) == 0 {
			t.Fatalf("%s: cell %d is %v, which has a −0 part", what, k, v)
		}
	}
}

// TestCLURefactorBitIdentical runs the AC sweeps of the OTA testbench
// and the §5 filter, nominal and at Monte Carlo samples, through the
// current and the reference complex factorisations, assembling the
// system the way analysis does: the linearised stamps plus gmin.
func TestCLURefactorBitIdentical(t *testing.T) {
	cfg := ota.DefaultConfig()
	p := ota.NominalParams()
	proc := process.C35()
	caps := filter.Caps{C1: 50e-12, C2: 25e-12, C3: 5e-12}
	type bench struct {
		name string
		n    *circuit.Netlist
	}
	benches := []bench{
		{"ota", cfg.Build(p, nil)},
		{"filter", filter.BuildTransistor(caps, cfg, p, nil)},
	}
	for i := 0; i < 3; i++ {
		benches = append(benches,
			bench{"ota-mc", cfg.Build(p, proc.NewSample(11, i))},
			bench{"filter-mc", filter.BuildTransistor(caps, cfg, p, proc.NewSample(11, i))})
	}
	freqs, err := analysis.DecadeFreqs(100, 1e9, 20)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	for _, b := range benches {
		op, err := analysis.OP(b.n, nil)
		if err != nil {
			t.Fatalf("%s: %v", b.name, err)
		}
		var lin circuit.ACStamps
		lin.Linearise(b.n, op.X)
		nu := lin.Order()
		cw := num.NewCWorkspace(nu)
		assemble := func(f float64) {
			lin.Assemble(2*math.Pi*f, cw.A, cw.B)
			for i := 0; i < b.n.NumNodes(); i++ {
				cw.A.Add(i, i, complex(1e-12, 0))
			}
			noNegativeZero(t, b.name, cw.A)
		}
		pair := newRefactorPair(nu, rng)
		assemble(freqs[0])
		pair.setReference(t, cw.A)
		reused := 0
		for _, f := range freqs {
			assemble(f)
			if pair.check(t, b.name, cw.A) {
				reused++
			}
		}
		if reused == 0 {
			t.Errorf("%s: no sweep point reused the reference pivots", b.name)
		}
	}
}

// TestCLURefactorBitIdenticalRandom compares the two on random systems
// with structural zeros: perturbations of a reference that keep its
// pivot order, ones that force the fallback, and chained reuse.
func TestCLURefactorBitIdenticalRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	var reused, fellBack int
	for trial := 0; trial < 400; trial++ {
		n := 1 + rng.Intn(24)
		density := 0.1 + 0.8*rng.Float64()
		base := num.NewCMatrix(n)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if i == j || rng.Float64() < density {
					base.Add(i, j, complex(rng.NormFloat64(), rng.NormFloat64()*rng.Float64()))
				}
			}
		}
		pair := newRefactorPair(n, rng)
		pair.setReference(t, base)
		a := num.NewCMatrix(n)
		for step := 0; step < 6; step++ {
			a.Zero()
			scale := math.Pow(10, -6+3*rng.Float64()*float64(step))
			for k, v := range base.Data {
				if v != 0 {
					a.Data[k] += v
					a.Data[k] += complex(scale*rng.NormFloat64(), scale*rng.NormFloat64())
				}
			}
			if step == 4 && n > 1 {
				// Shrink one row: its reused pivot becomes tiny, so the
				// multipliers below it grow past MultLimit.
				r := rng.Intn(n)
				for j := 0; j < n; j++ {
					a.Data[r*n+j] *= 1e-9
				}
			}
			noNegativeZero(t, "random", a)
			if pair.check(t, "random", a) {
				reused++
			} else {
				fellBack++
			}
			if step == 3 {
				// Chain: refactor against the factorisation itself.
				pair.gotRef, pair.wantRef = pair.got, pair.want
			}
		}
	}
	if reused == 0 || fellBack == 0 {
		t.Errorf("random systems reused %d times and fell back %d times; want both", reused, fellBack)
	}
}
