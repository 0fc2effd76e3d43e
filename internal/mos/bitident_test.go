package mos

import (
	"math"
	"math/rand"
	"runtime"
	"testing"

	"analogyield/internal/process"
)

// skipIfArchPow skips a bit-identity test on s390x, the one GOARCH where
// math.Pow is an assembly routine rather than the pure-Go algorithm that
// Eval's rewrite of the order-4 blend reproduces.
func skipIfArchPow(t testing.TB) {
	if runtime.GOARCH == "s390x" {
		t.Skip("math.Pow has an assembly implementation on s390x")
	}
}

// sameFloat reports whether a and b have the same bits. Any two NaNs
// count as the same: the payload of a NaN is not part of the model's
// contract.
func sameFloat(a, b float64) bool {
	if a != a && b != b {
		return true
	}
	return math.Float64bits(a) == math.Float64bits(b)
}

// opDiff names the first field in which a and b differ, or returns "".
func opDiff(a, b OP) string {
	fs := []struct {
		name string
		x, y float64
	}{
		{"Id", a.Id, b.Id}, {"Gm", a.Gm, b.Gm}, {"Gds", a.Gds, b.Gds}, {"Gmb", a.Gmb, b.Gmb},
		{"Cgs", a.Cgs, b.Cgs}, {"Cgd", a.Cgd, b.Cgd}, {"Cgb", a.Cgb, b.Cgb},
		{"Csb", a.Csb, b.Csb}, {"Cdb", a.Cdb, b.Cdb},
		{"Vgs", a.Vgs, b.Vgs}, {"Vds", a.Vds, b.Vds}, {"Vbs", a.Vbs, b.Vbs},
		{"Vth", a.Vth, b.Vth}, {"Vov", a.Vov, b.Vov},
	}
	for _, f := range fs {
		if !sameFloat(f.x, f.y) {
			return f.name
		}
	}
	if a.Saturated != b.Saturated {
		return "Saturated"
	}
	if a.Swapped != b.Swapped {
		return "Swapped"
	}
	return ""
}

// evalCase is one seeded input to the bit-identity test.
type evalCase struct {
	p              Params
	w, l           float64
	vg, vd, vs, vb float64
}

// randomCase draws an input from one of several regimes chosen to reach
// every branch of the model: both device classes with process shifts,
// the source/drain swap boundary within a stencil step, the softplus
// cut-offs, the body-effect clamp and vds = 0.
func randomCase(rng *rand.Rand) evalCase {
	c := evalCase{p: NominalNMOS()}
	if rng.Intn(2) == 1 {
		c.p = NominalPMOS()
	}
	if rng.Intn(4) != 0 {
		dbeta := 0.3 * rng.NormFloat64()
		if rng.Intn(50) == 0 {
			dbeta = -1 - rng.Float64() // degenerate KP, clamped by Applied
		}
		c.p = c.p.Applied(process.Shift{DVth: 0.05 * rng.NormFloat64(), DBeta: dbeta})
	}
	c.w = math.Exp(math.Log(0.5e-6) + rng.Float64()*math.Log(200))
	c.l = math.Exp(math.Log(0.35e-6) + rng.Float64()*math.Log(30))
	if rng.Intn(100) == 0 {
		c.l = 2*c.p.LD + 1e-9*rng.Float64() // Leff clamp
	}
	u := func(lo, hi float64) float64 { return lo + (hi-lo)*rng.Float64() }
	c.vs = u(-1, 1)
	c.vb = c.vs + u(-3, 0.5)
	c.vg = c.vs + u(-1, 3.5)
	c.vd = c.vs + u(-3.5, 3.5)
	switch rng.Intn(8) {
	case 0: // vds = 0
		c.vd = c.vs
	case 1: // a drain step of the stencil crosses vs
		c.vd = c.vs + u(-2e-6, 2e-6)
	case 2: // strong inversion beyond the softplus cut-off (x > 40)
		c.vg = c.vs + u(3.5, 8)
	case 3: // deep cut-off (x < −40)
		c.vg = c.vs + u(-8, -3)
	case 4: // body-effect clamp, and its edge within a stencil step
		if rng.Intn(2) == 0 {
			c.vb = c.vs + u(0.8, 2)
		} else {
			c.vb = c.vs + c.p.Phi - 0.05 + u(-2e-6, 2e-6)
		}
	case 5: // tiny vds relative to vdsat
		c.vd = c.vs + u(-1e-9, 1e-9)
	}
	if c.p.Class == process.PMOS && rng.Intn(2) == 0 {
		// Mirror into the PMOS operating quadrant.
		c.vg, c.vd, c.vs, c.vb = -c.vg, -c.vd, -c.vs, -c.vb
	}
	return c
}

func TestEvalBitIdentical(t *testing.T) {
	skipIfArchPow(t)
	rng := rand.New(rand.NewSource(20081013))
	const n = 1 << 20
	var swapped, sat, hi, lo int
	for i := 0; i < n; i++ {
		c := randomCase(rng)
		got := c.p.Eval(c.w, c.l, c.vg, c.vd, c.vs, c.vb)
		want := c.p.refEval(c.w, c.l, c.vg, c.vd, c.vs, c.vb)
		if f := opDiff(got, want); f != "" {
			t.Fatalf("case %d %+v: %s differs\n got %+v\nwant %+v", i, c, f, got, want)
		}
		if got.Swapped {
			swapped++
		}
		if got.Saturated {
			sat++
		}
		// The overdrive tells which softplus branch the base point took.
		nvt := 2 * c.p.NSub * vTherm
		if got.Vov > 40*nvt {
			hi++
		} else if got.Vov < nvt*math.Exp(-40) {
			lo++
		}
	}
	// The regimes the cases aim at must each be reached often.
	for name, k := range map[string]int{"swapped": swapped, "saturated": sat, "x>40": hi, "x<-40": lo} {
		if k < n/100 {
			t.Errorf("only %d of %d cases %s", k, n, name)
		}
	}
}

// TestPowRewritesBitIdentical pins the two rewrites of math.Pow in the
// order-4 blend directly, over magnitudes far beyond the model's range.
func TestPowRewritesBitIdentical(t *testing.T) {
	skipIfArchPow(t)
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < 1<<18; i++ {
		r := math.Exp((rng.Float64()*2 - 1) * 300) // 1e-130 .. 1e130
		if i%2 == 1 {
			r = -r
		}
		r2 := r * r
		// r⁴ itself, wherever it is a normal number.
		if a := math.Abs(r); a > 1e-76 && a < 1e76 {
			if got, want := float64(r2*r2), math.Pow(r, 4); !sameFloat(got, want) {
				t.Fatalf("r=%v: r2*r2 = %v, Pow(r, 4) = %v", r, got, want)
			}
		}
		// 1 + r⁴ over the whole range: below the normal range both
		// terms vanish beside 1, above it both overflow.
		got, want := 1+float64(r2*r2), 1+math.Pow(r, 4)
		if !sameFloat(got, want) {
			t.Fatalf("r=%v: 1+r2*r2 = %v, 1+Pow(r, 4) = %v", r, got, want)
		}
		if got, want := math.Exp(0.25*math.Log(got)), math.Pow(got, 0.25); !sameFloat(got, want) {
			t.Fatalf("y=%v: Exp(Log(y)/4) = %v, Pow(y, 0.25) = %v", 1+r2*r2, got, want)
		}
	}
	for _, r := range []float64{0, 1, -1, math.Inf(1), math.Inf(-1), 1e154, 1e155, 1e-154} {
		r2 := r * r
		if got, want := 1+float64(r2*r2), 1+math.Pow(r, 4); !sameFloat(got, want) {
			t.Errorf("r=%v: 1+r2*r2 = %v, 1+Pow(r, 4) = %v", r, got, want)
		}
	}
	for _, y := range []float64{1, math.Nextafter(1, 2), 2, 16, 1e300, math.MaxFloat64, math.Inf(1)} {
		if got, want := math.Exp(0.25*math.Log(y)), math.Pow(y, 0.25); !sameFloat(got, want) {
			t.Errorf("y=%v: Exp(Log(y)/4) = %v, Pow(y, 0.25) = %v", y, got, want)
		}
	}
}

// FuzzEvalMatchesReference compares Eval with the reference model on
// arbitrary inputs, non-finite ones included.
func FuzzEvalMatchesReference(f *testing.F) {
	f.Add(false, 0.0, 0.0, 10e-6, 1e-6, 1.0, 2.0, 0.0, 0.0)
	f.Add(true, 0.02, -0.1, 20e-6, 0.5e-6, 1.8, 1.0, 3.3, 3.3)
	f.Add(false, 0.0, 0.0, 10e-6, 1e-6, 1.5, 0.5e-6, 0.0, 0.0)
	f.Add(false, 0.0, 0.0, 10e-6, 1e-6, 6.0, 1.0, 0.0, 1.0)
	f.Fuzz(func(t *testing.T, pmos bool, dvth, dbeta, w, l, vg, vd, vs, vb float64) {
		skipIfArchPow(t)
		if !(w > 0) || !(l > 0) {
			return // Eval panics on bad geometry; tested elsewhere
		}
		p := NominalNMOS()
		if pmos {
			p = NominalPMOS()
		}
		p = p.Applied(process.Shift{DVth: dvth, DBeta: dbeta})
		got := p.Eval(w, l, vg, vd, vs, vb)
		want := p.refEval(w, l, vg, vd, vs, vb)
		if fld := opDiff(got, want); fld != "" {
			t.Fatalf("%s differs\n got %+v\nwant %+v", fld, got, want)
		}
	})
}
