package analysis_test

import (
	"math"
	"testing"

	"analogyield/internal/analysis"
	"analogyield/internal/behave"
	"analogyield/internal/circuit"
	"analogyield/internal/filter"
	"analogyield/internal/mos"
	"analogyield/internal/num"
	"analogyield/internal/ota"
	"analogyield/internal/process"
)

// The differential tests below pin the linearise-once AC assembly to
// the per-frequency stamping it replaced: every device's StampAC called
// directly at every frequency (re-evaluating each MOSFET's compact
// model), kept here as the reference. Every comparison is on the bits
// of the real and imaginary parts.

// referenceAssemble stamps the system at frequency f the way every
// sweep did before linearisation.
func referenceAssemble(n *circuit.Netlist, op *analysis.OPResult, f float64, cw *num.CWorkspace) {
	cw.A.Zero()
	for i := range cw.B {
		cw.B[i] = 0
	}
	ctx := &circuit.ACCtx{A: cw.A, B: cw.B, Omega: 2 * math.Pi * f, DC: op.X}
	for di, d := range n.Devices() {
		d.StampAC(ctx, n.BranchBase(di))
	}
	for i := 0; i < n.NumNodes(); i++ {
		cw.A.Add(i, i, complex(1e-12, 0))
	}
}

// referenceSweep is the reference AC sweep: the first frequency
// factored under full pivoting fixes the pivot order every point
// refactors against.
func referenceSweep(t *testing.T, n *circuit.Netlist, op *analysis.OPResult, freqs []float64) [][]complex128 {
	t.Helper()
	cw := num.NewCWorkspace(n.NumUnknowns())
	ref := num.NewCLU(n.NumUnknowns())
	referenceAssemble(n, op, freqs[0], cw)
	if err := ref.FactorInto(cw.A); err != nil {
		t.Fatal(err)
	}
	out := make([][]complex128, len(freqs))
	for i, f := range freqs {
		referenceAssemble(n, op, f, cw)
		if _, err := cw.LU.RefactorInto(cw.A, ref); err != nil {
			t.Fatal(err)
		}
		cw.LU.Solve(cw.B, cw.X)
		out[i] = append([]complex128(nil), cw.X...)
	}
	return out
}

func sameBits(a, b complex128) bool {
	return math.Float64bits(real(a)) == math.Float64bits(real(b)) &&
		math.Float64bits(imag(a)) == math.Float64bits(imag(b))
}

// everyDevice exercises every device kind's AC stamp: a common-source
// MOSFET stage with an RL load and an injected AC current, driving a
// VCVS and a VCCS, and a chain of the behavioural amplifiers (including
// behave.TwoPoleAmp, whose stamp is not affine in ω) biased at 0 V.
func everyDevice() *circuit.Netlist {
	n := circuit.New("every device kind")
	vdd, in, d, lx := n.Node("vdd"), n.Node("in"), n.Node("d"), n.Node("lx")
	e, gx, s := n.Node("e"), n.Node("gx"), n.Node("s")
	a1, o1, out := n.Node("a1"), n.Node("o1"), n.Node("out")
	gnd := circuit.Ground
	n.MustAdd(&circuit.VSource{Inst: "VDD", Pos: vdd, Neg: gnd, DC: 3.3})
	n.MustAdd(&circuit.VSource{Inst: "VIN", Pos: in, Neg: gnd, DC: 0.8, ACMag: 1})
	n.MustAdd(&circuit.Resistor{Inst: "RD", A: vdd, B: d, R: 20e3})
	n.MustAdd(&circuit.MOSFET{Inst: "M1", D: d, G: in, S: gnd, B: gnd,
		W: 10e-6, L: 1e-6, Model: mos.NominalNMOS()})
	n.MustAdd(&circuit.Capacitor{Inst: "CD", A: d, B: gnd, C: 1e-12})
	n.MustAdd(&circuit.Inductor{Inst: "L1", A: d, B: lx, L: 1e-6})
	n.MustAdd(&circuit.Resistor{Inst: "RL", A: lx, B: gnd, R: 50e3})
	n.MustAdd(&circuit.ISource{Inst: "IAC", Pos: gnd, Neg: d, ACMag: 1e-6})
	n.MustAdd(&circuit.VCVS{Inst: "E1", OutP: e, OutN: gnd, InP: d, InN: gnd, Gain: 2})
	n.MustAdd(&circuit.Resistor{Inst: "RE", A: e, B: gnd, R: 1e3})
	n.MustAdd(&circuit.VCCS{Inst: "G1", OutP: gnd, OutN: gx, InP: e, InN: gnd, Gm: 1e-3})
	n.MustAdd(&circuit.Resistor{Inst: "RG", A: gx, B: gnd, R: 1e3})
	n.MustAdd(&circuit.VSource{Inst: "VS", Pos: s, Neg: gnd, ACMag: 0.5})
	n.MustAdd(&behave.Amp{Inst: "XA", InP: s, InN: gnd, Out: a1, GainDB: 20, Ro: 1e3, Invert: true})
	n.MustAdd(&behave.OTA{Inst: "XO", InP: a1, InN: gnd, Out: o1, Gm: 1e-4, Ro: 1e5, Co: 1e-12})
	n.MustAdd(&behave.TwoPoleAmp{Inst: "XT", InP: o1, InN: gnd, Out: out, GainDB: 10, Ro: 1e3, F2: 1e6})
	n.MustAdd(&circuit.Capacitor{Inst: "CO", A: out, B: gnd, C: 2e-12})
	return n
}

type bench struct {
	name string
	n    *circuit.Netlist
}

// benches returns the differential cases: every device kind, the OTA
// testbench and the §5 filter (transistor and behavioural), nominal and
// at process Monte Carlo samples.
func benches() []bench {
	cfg := ota.DefaultConfig()
	p := ota.NominalParams()
	proc := process.C35()
	caps := filter.Caps{C1: 50e-12, C2: 25e-12, C3: 5e-12}
	out := []bench{
		{"every-device", everyDevice()},
		{"ota", cfg.Build(p, nil)},
		{"filter", filter.BuildTransistor(caps, cfg, p, nil)},
		{"filter-behavioural", filter.BuildBehavioural(caps, 1e-4, 1e6)},
	}
	for i := 0; i < 3; i++ {
		out = append(out,
			bench{"ota-mc", cfg.Build(p, proc.NewSample(7, i))},
			bench{"filter-mc", filter.BuildTransistor(caps, cfg, p, proc.NewSample(7, i))})
	}
	return out
}

// TestLinearisedAssemblyBitIdentical compares the assembled matrix and
// right-hand side cell by cell with the reference stamping.
func TestLinearisedAssemblyBitIdentical(t *testing.T) {
	freqs := num.Logspace(1, 1e10, 41)
	for _, b := range benches() {
		op, err := analysis.OP(b.n, nil)
		if err != nil {
			t.Fatalf("%s: %v", b.name, err)
		}
		nu := b.n.NumUnknowns()
		want, got := num.NewCWorkspace(nu), num.NewCWorkspace(nu)
		var lin circuit.ACStamps
		lin.Linearise(b.n, op.X)
		for _, f := range freqs {
			referenceAssemble(b.n, op, f, want)
			lin.Assemble(2*math.Pi*f, got.A, got.B)
			for i := 0; i < b.n.NumNodes(); i++ {
				got.A.Add(i, i, complex(1e-12, 0))
			}
			for k := range want.A.Data {
				if !sameBits(got.A.Data[k], want.A.Data[k]) {
					t.Fatalf("%s at %g Hz: A[%d][%d] = %v, want %v (bit-exact)",
						b.name, f, k/nu, k%nu, got.A.Data[k], want.A.Data[k])
				}
			}
			for i := range want.B {
				if !sameBits(got.B[i], want.B[i]) {
					t.Fatalf("%s at %g Hz: B[%d] = %v, want %v", b.name, f, i, got.B[i], want.B[i])
				}
			}
		}
	}
}

// TestLinearisedSweepBitIdentical compares whole sweeps, full and
// single-node, with the reference. The workspace is shared across
// circuits of different sizes, so a sweep must not depend on what the
// workspace solved before it.
func TestLinearisedSweepBitIdentical(t *testing.T) {
	freqs := num.Logspace(100, 1e9, 200)
	ws := analysis.NewWorkspace()
	for _, b := range benches() {
		op, err := analysis.OP(b.n, nil)
		if err != nil {
			t.Fatalf("%s: %v", b.name, err)
		}
		want := referenceSweep(t, b.n, op, freqs)
		for _, w := range []*analysis.Workspace{nil, ws} {
			res, err := analysis.ACWith(b.n, op, freqs, w)
			if err != nil {
				t.Fatalf("%s: %v", b.name, err)
			}
			for i := range want {
				for k := range want[i] {
					if !sameBits(res.X[i][k], want[i][k]) {
						t.Fatalf("%s: X[%d][%d] = %v, want %v (bit-exact)",
							b.name, i, k, res.X[i][k], want[i][k])
					}
				}
			}
			out, _ := b.n.NodeIndex("out")
			v, err := analysis.ACNode(b.n, op, "out", freqs, w)
			if err != nil {
				t.Fatalf("%s: %v", b.name, err)
			}
			for i := range want {
				if !sameBits(v[i], want[i][out]) {
					t.Fatalf("%s: V(out)[%d] = %v, want %v (bit-exact)", b.name, i, v[i], want[i][out])
				}
			}
		}
	}
}

// TestACNodeUntilPrefixBitIdentical: a sweep that ACNodeUntil stops
// after point k solves exactly points 0..k, and each has the bits of
// the reference's full sweep at that point.
func TestACNodeUntilPrefixBitIdentical(t *testing.T) {
	freqs := num.Logspace(100, 1e9, 71)
	ws := analysis.NewWorkspace()
	for _, b := range benches() {
		op, err := analysis.OP(b.n, nil)
		if err != nil {
			t.Fatalf("%s: %v", b.name, err)
		}
		want := referenceSweep(t, b.n, op, freqs)
		out, _ := b.n.NodeIndex("out")
		for _, stop := range []int{0, 1, 37, len(freqs) - 1, len(freqs)} {
			seen := 0
			v, err := analysis.ACNodeUntil(b.n, op, "out", freqs, ws, func(i int, v complex128) bool {
				if i != seen || !sameBits(v, want[i][out]) {
					t.Fatalf("%s: callback %d got point %d = %v, want %v", b.name, seen, i, v, want[i][out])
				}
				seen++
				return i < stop
			})
			if err != nil {
				t.Fatalf("%s: %v", b.name, err)
			}
			if wantLen := min(stop+1, len(freqs)); len(v) != wantLen || seen != wantLen {
				t.Fatalf("%s: stopping after point %d solved %d points (%d callbacks), want %d",
					b.name, stop, len(v), seen, wantLen)
			}
			for i := range v {
				if !sameBits(v[i], want[i][out]) {
					t.Fatalf("%s: V(out)[%d] = %v, want %v (bit-exact)", b.name, i, v[i], want[i][out])
				}
			}
		}
	}
}

// referenceNoise is analysis.Noise as it was before linearisation:
// every frequency stamped directly and factored under full pivoting.
func referenceNoise(t *testing.T, n *circuit.Netlist, op *analysis.OPResult, outNode string, freqs []float64) map[string][]float64 {
	t.Helper()
	outIdx, _ := n.NodeIndex(outNode)
	const fourKT = 4 * 1.380649e-23 * 300
	type source struct {
		name string
		a, b int
		psd  float64
	}
	var sources []source
	for _, d := range n.Devices() {
		switch dev := d.(type) {
		case *circuit.Resistor:
			sources = append(sources, source{dev.Inst, dev.A, dev.B, fourKT / dev.R})
		case *circuit.MOSFET:
			mop := dev.Model.Eval(dev.W, dev.L,
				op.VNode(dev.G), op.VNode(dev.D), op.VNode(dev.S), op.VNode(dev.B))
			if gm := math.Abs(mop.Gm); gm > 0 {
				sources = append(sources, source{dev.Inst, dev.D, dev.S, fourKT * 2.0 / 3.0 * gm})
			}
		}
	}
	nu := n.NumUnknowns()
	cw := num.NewCWorkspace(nu)
	b, x := make([]complex128, nu), make([]complex128, nu)
	psd := map[string][]float64{"": make([]float64, len(freqs))}
	for _, s := range sources {
		psd[s.name] = make([]float64, len(freqs))
	}
	for fi, f := range freqs {
		referenceAssemble(n, op, f, cw)
		if err := cw.LU.FactorInto(cw.A); err != nil {
			t.Fatal(err)
		}
		for _, s := range sources {
			clear(b)
			if s.a != circuit.Ground {
				b[s.a] -= 1
			}
			if s.b != circuit.Ground {
				b[s.b] += 1
			}
			cw.LU.Solve(b, x)
			h := x[outIdx]
			c := (real(h)*real(h) + imag(h)*imag(h)) * s.psd
			psd[s.name][fi] += c
			psd[""][fi] += c
		}
	}
	return psd
}

// TestNoiseLinearisedBitIdentical: noise shares the linearised
// assembly but keeps per-frequency full pivoting, so its densities are
// bit-identical to the reference.
func TestNoiseLinearisedBitIdentical(t *testing.T) {
	freqs := num.Logspace(10, 1e9, 50)
	for _, b := range benches() {
		if b.name == "filter-behavioural" {
			continue // no thermal noise sources
		}
		op, err := analysis.OP(b.n, nil)
		if err != nil {
			t.Fatalf("%s: %v", b.name, err)
		}
		want := referenceNoise(t, b.n, op, "out", freqs)
		res, err := analysis.Noise(b.n, op, "out", freqs)
		if err != nil {
			t.Fatalf("%s: %v", b.name, err)
		}
		for name, w := range want {
			got := res.OutputPSD
			if name != "" {
				got = res.ByDevice[name]
			}
			for i := range w {
				if math.Float64bits(got[i]) != math.Float64bits(w[i]) {
					t.Fatalf("%s: noise %q at %g Hz = %g, want %g (bit-exact)", b.name, name, freqs[i], got[i], w[i])
				}
			}
		}
	}
}
