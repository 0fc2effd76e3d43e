package ota

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"analogyield/internal/analysis"
	"analogyield/internal/circuit"
	"analogyield/internal/measure"
	"analogyield/internal/process"
)

func TestSpaceRoundTrip(t *testing.T) {
	s := DefaultSpace()
	genes := []float64{0, 0.25, 0.5, 0.75, 1, 0.1, 0.9, 0.33}
	p, err := s.Denormalize(genes)
	if err != nil {
		t.Fatal(err)
	}
	back := s.Normalize(p)
	for i := range genes {
		if math.Abs(back[i]-genes[i]) > 1e-9 {
			t.Errorf("gene %d: %g -> %g", i, genes[i], back[i])
		}
	}
}

func TestSpaceRangesMatchTable1(t *testing.T) {
	s := DefaultSpace()
	for i := 0; i < 8; i += 2 {
		if s.Lo[i] != 10e-6 || s.Hi[i] != 60e-6 {
			t.Errorf("width %d range (%g, %g), want Table 1's 10-60 µm", i, s.Lo[i], s.Hi[i])
		}
		if s.Lo[i+1] != 0.35e-6 || s.Hi[i+1] != 4e-6 {
			t.Errorf("length %d range (%g, %g), want Table 1's 0.35-4 µm", i+1, s.Lo[i+1], s.Hi[i+1])
		}
	}
	if len(s.Names()) != 8 {
		t.Error("want 8 parameter names")
	}
}

func TestSpaceDenormalizeClamps(t *testing.T) {
	s := DefaultSpace()
	p, err := s.Denormalize([]float64{-1, 2, 0.5, 0.5, 0.5, 0.5, 0.5, 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if p.W1 != s.Lo[0] || p.L1 != s.Hi[1] {
		t.Error("out-of-box genes not clamped")
	}
	if _, err := s.Denormalize([]float64{0.5}); err == nil {
		t.Error("short genome accepted")
	}
}

func TestParamsVectorRoundTrip(t *testing.T) {
	p := NominalParams()
	q, err := FromVector(p.Vector())
	if err != nil {
		t.Fatal(err)
	}
	if p != q {
		t.Error("Vector/FromVector not inverse")
	}
	if _, err := FromVector([]float64{1, 2}); err == nil {
		t.Error("short vector accepted")
	}
}

func TestMirrorRatio(t *testing.T) {
	p := Params{W1: 10e-6, L1: 1e-6, W2: 30e-6, L2: 1e-6, W3: 1, L3: 1, W4: 1, L4: 1}
	if b := p.MirrorRatio(); math.Abs(b-3) > 1e-12 {
		t.Errorf("MirrorRatio = %g, want 3", b)
	}
}

func TestBuildTopology(t *testing.T) {
	c := DefaultConfig()
	n := c.Build(NominalParams(), nil)
	// 10 transistors + 2 V sources + 1 I source + 2 caps + 1 resistor.
	if got := len(n.Devices()); got != 16 {
		t.Errorf("device count = %d, want 16", got)
	}
	for _, name := range []string{"M1", "M5", "M10", "VDD", "VIN", "IBIAS", "CL", "RFB", "CFB"} {
		if n.Device(name) == nil {
			t.Errorf("missing device %s", name)
		}
	}
	// Matched pairs share geometry.
	m3 := n.Device("M3").(*circuit.MOSFET)
	m4 := n.Device("M4").(*circuit.MOSFET)
	if m3.W != m4.W || m3.L != m4.L {
		t.Error("M3/M4 pair not matched")
	}
}

func TestEvaluateNominal(t *testing.T) {
	c := DefaultConfig()
	perf, err := c.Evaluate(NominalParams(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if perf.GainDB < 35 || perf.GainDB > 60 {
		t.Errorf("gain = %g dB, want a 0.35 µm-class OTA value (35..60)", perf.GainDB)
	}
	if perf.PMDeg < 30 || perf.PMDeg > 95 {
		t.Errorf("PM = %g deg, want stable range", perf.PMDeg)
	}
	if perf.UnityHz < 1e5 || perf.UnityHz > 1e9 {
		t.Errorf("fu = %g Hz out of plausible range", perf.UnityHz)
	}
	if perf.BW3dB <= 0 || perf.BW3dB >= perf.UnityHz {
		t.Errorf("BW = %g should be below fu = %g", perf.BW3dB, perf.UnityHz)
	}
	if perf.VOut <= 0.1 || perf.VOut >= c.VDD-0.1 {
		t.Errorf("output bias %g V rails", perf.VOut)
	}
}

func TestGainPMTradeoffMechanism(t *testing.T) {
	// A longer NMOS-mirror channel (L3) raises gain (smaller λ at the
	// output) and lowers PM (larger mirror gate area slows the internal
	// pole) without changing the mirror ratio — the cleanest form of the
	// paper's trade-off mechanism. Verify both directions.
	c := DefaultConfig()
	short := NominalParams()
	short.L3 = 0.7e-6
	long := NominalParams()
	long.L3 = 3.5e-6
	ps, err := c.Evaluate(short, nil)
	if err != nil {
		t.Fatal(err)
	}
	pl, err := c.Evaluate(long, nil)
	if err != nil {
		t.Fatal(err)
	}
	if pl.GainDB <= ps.GainDB {
		t.Errorf("long-L gain %g should exceed short-L gain %g", pl.GainDB, ps.GainDB)
	}
	if pl.PMDeg >= ps.PMDeg {
		t.Errorf("long-L PM %g should be below short-L PM %g (slower mirrors)", pl.PMDeg, ps.PMDeg)
	}
}

func TestEvaluateAcrossSpace(t *testing.T) {
	if testing.Short() {
		t.Skip("space sweep in -short mode")
	}
	c := DefaultConfig()
	s := DefaultSpace()
	rng := rand.New(rand.NewSource(99))
	fails := 0
	for i := 0; i < 25; i++ {
		g := make([]float64, 8)
		for j := range g {
			g[j] = rng.Float64()
		}
		p, _ := s.Denormalize(g)
		if _, err := c.Evaluate(p, nil); err != nil {
			fails++
		}
	}
	if fails > 2 {
		t.Errorf("%d/25 random designs failed to evaluate", fails)
	}
}

func TestEvaluateWithVariation(t *testing.T) {
	c := DefaultConfig()
	proc := process.C35()
	nom, err := c.Evaluate(NominalParams(), nil)
	if err != nil {
		t.Fatal(err)
	}
	// A statistical sample shifts the performance but not wildly.
	var devs []float64
	for i := 0; i < 5; i++ {
		perf, err := c.Evaluate(NominalParams(), proc.NewSample(7, i))
		if err != nil {
			t.Fatalf("sample %d: %v", i, err)
		}
		devs = append(devs, perf.GainDB-nom.GainDB)
	}
	allZero := true
	for _, d := range devs {
		if d != 0 {
			allZero = false
		}
		if math.Abs(d) > 2 {
			t.Errorf("gain shift %g dB implausibly large", d)
		}
	}
	if allZero {
		t.Error("variation samples did not move the gain at all")
	}
}

func TestEvaluateVariationDeterministic(t *testing.T) {
	c := DefaultConfig()
	proc := process.C35()
	a, err := c.Evaluate(NominalParams(), proc.NewSample(3, 14))
	if err != nil {
		t.Fatal(err)
	}
	b, err := c.Evaluate(NominalParams(), proc.NewSample(3, 14))
	if err != nil {
		t.Fatal(err)
	}
	if a.GainDB != b.GainDB || a.PMDeg != b.PMDeg {
		t.Error("same process sample gave different performance")
	}
}

func TestEvaluateRejectsBadParams(t *testing.T) {
	c := DefaultConfig()
	p := NominalParams()
	p.W1 = 0
	if _, err := c.Evaluate(p, nil); err == nil {
		t.Error("zero width accepted")
	}
}

func TestResponseShape(t *testing.T) {
	c := DefaultConfig()
	freqs, tf, err := c.Response(NominalParams(), nil, 6)
	if err != nil {
		t.Fatal(err)
	}
	if len(freqs) != len(tf) || len(freqs) < 20 {
		t.Fatalf("response has %d points", len(freqs))
	}
	// Gain must roll off at high frequency.
	first := tf[0]
	last := tf[len(tf)-1]
	if !(real(first)*real(first)+imag(first)*imag(first) >
		real(last)*real(last)+imag(last)*imag(last)) {
		t.Error("response does not roll off")
	}
}

func TestOTAUnityGainStepResponse(t *testing.T) {
	// Large-signal integration test: the OTA in unity-gain feedback
	// driven by a step. The output must slew at ~B·Ibias/CL and settle
	// to the input level — this exercises OP, the nonlinear transient
	// and the device model's large-signal regions together.
	if testing.Short() {
		t.Skip("transient integration test in -short mode")
	}
	c := DefaultConfig()
	p := NominalParams()
	n := circuit.New("ota unity-gain buffer")
	vdd := n.Node("vdd")
	in := n.Node("in")
	out := n.Node("out")
	bias := n.Node("bias")
	gnd := circuit.Ground
	n.MustAdd(&circuit.VSource{Inst: "VDD", Pos: vdd, Neg: gnd, DC: c.VDD})
	n.MustAdd(&circuit.VSource{Inst: "VIN", Pos: in, Neg: gnd, DC: c.VCM,
		Wave: circuit.PulseWave{V1: c.VCM - 0.2, V2: c.VCM + 0.2,
			Delay: 0.2e-6, Rise: 1e-9, Fall: 1e-9, Width: 1, Period: 2}})
	n.MustAdd(&circuit.ISource{Inst: "IBIAS", Pos: vdd, Neg: bias, DC: c.IBias})
	n.MustAdd(&circuit.Capacitor{Inst: "CL", A: out, B: gnd, C: c.CLoad})
	// Unity feedback: output to the inverting gate.
	c.AddInstance(n, "", vdd, in, out, out,
		n.Node("n1"), n.Node("n2"), n.Node("outm"), n.Node("tail"), bias, p, nil)

	res, err := analysis.Tran(n, analysis.TranOptions{TStop: 2e-6, TStep: 1e-9})
	if err != nil {
		t.Fatal(err)
	}
	vout, err := res.V("out")
	if err != nil {
		t.Fatal(err)
	}
	// Settles to VCM+0.2 (small offset allowed).
	final := vout[len(vout)-1]
	if math.Abs(final-(c.VCM+0.2)) > 0.05 {
		t.Errorf("buffer settled to %g, want %g", final, c.VCM+0.2)
	}
	// Slew rate ≈ B·IBias/CL within a factor of a few (the symmetrical
	// OTA slews at the mirrored tail current into CL).
	sr, err := measure.TransitionSlew(res.Times, vout, c.VCM-0.2, c.VCM+0.2)
	if err != nil {
		t.Fatal(err)
	}
	expect := p.MirrorRatio() * c.IBias / c.CLoad
	if sr < expect/5 || sr > expect*5 {
		t.Errorf("slew rate %.3g V/s, expect ~%.3g", sr, expect)
	}
}

// TestEvaluateWSReusesTestbench: a worker's workspace keeps one
// testbench and re-sizes it per evaluation, so every evaluation must
// equal a fresh build's, bit for bit, whatever the workspace evaluated
// before — other sizings, process samples, a rejected sizing, another
// configuration.
func TestEvaluateWSReusesTestbench(t *testing.T) {
	proc := process.C35()
	space := DefaultSpace()
	rng := rand.New(rand.NewSource(11))
	other := DefaultConfig()
	other.CLoad = 3e-12
	ws := analysis.NewWorkspace()
	for i := 0; i < 24; i++ {
		c := DefaultConfig()
		if i%7 == 6 {
			c = other
		}
		genes := make([]float64, 8)
		for k := range genes {
			genes[k] = rng.Float64()
		}
		p, err := space.Denormalize(genes)
		if err != nil {
			t.Fatal(err)
		}
		if i%5 == 4 {
			bad := p
			bad.L2 = -1
			if _, err := c.EvaluateWS(bad, nil, ws); err == nil {
				t.Fatal("negative length accepted")
			}
		}
		var fresh, reused *process.Sample
		if i%2 == 1 {
			fresh, reused = proc.NewSample(5, i), proc.NewSample(5, i)
		}
		want, werr := c.Evaluate(p, fresh)
		got, gerr := c.EvaluateWS(p, reused, ws)
		if (werr == nil) != (gerr == nil) {
			t.Fatalf("evaluation %d: error %v, want %v", i, gerr, werr)
		}
		for k, pair := range [][2]float64{
			{got.GainDB, want.GainDB}, {got.PMDeg, want.PMDeg}, {got.UnityHz, want.UnityHz},
			{got.BW3dB, want.BW3dB}, {got.VOut, want.VOut},
		} {
			if math.Float64bits(pair[0]) != math.Float64bits(pair[1]) {
				t.Fatalf("evaluation %d: field %d = %v, want %v (bit-exact)", i, k, pair[0], pair[1])
			}
		}
	}
}

// TestEvaluateWSAllocs pins the bytes one evaluation allocates through
// a reused workspace: the testbench, solver buffers and sweep
// frequencies are kept, so only the operating point and the output
// response are allocated. The bound is a quarter of what an evaluation
// allocated when it rebuilt the netlist and kept every node's full AC
// solution (29 KB).
func TestEvaluateWSAllocs(t *testing.T) {
	c := DefaultConfig()
	p := NominalParams()
	ws := analysis.NewWorkspace()
	eval := func() {
		if _, err := c.EvaluateWS(p, nil, ws); err != nil {
			t.Fatal(err)
		}
	}
	eval()
	const runs = 50
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 0; i < runs; i++ {
		eval()
	}
	runtime.ReadMemStats(&m1)
	if b := (m1.TotalAlloc - m0.TotalAlloc) / runs; b > 7*1024 {
		t.Errorf("EvaluateWS allocates %d B/op, want <= 7 KiB", b)
	}
	if n := testing.AllocsPerRun(runs, eval); n > 8 {
		t.Errorf("EvaluateWS allocates %v objects/op, want <= 8", n)
	}
}

// TestEvaluateWSEarlyStopBitIdentical: EvaluateWS stops its AC sweep
// once the measurements are fixed. Every Perf field and every error
// must equal what the full sweep gives, bit for bit, across random
// Table 1 sizings at nominal, at Monte Carlo samples and at ±3σ
// corners, and on testbenches whose evaluation fails or is marginal —
// and the sweeps must actually stop early on average.
func TestEvaluateWSEarlyStopBitIdentical(t *testing.T) {
	proc := process.C35()
	space := DefaultSpace()
	rng := rand.New(rand.NewSource(23))
	ws := analysis.NewWorkspace()
	var evals, swept, solved, failed int
	check := func(what string, c Config, p Params, sample func() *process.Sample) {
		t.Helper()
		got, gerr := c.EvaluateWS(p, sample(), ws)
		want, werr := Perf{}, error(nil)
		freqs, tf, vout, err := c.response(p, sample(), 10, false, nil)
		if err != nil {
			werr = err
		} else {
			want, werr = perfFrom(freqs, tf, vout)
			var tr measure.SweepTracker
			m := len(tf)
			for i := range tf {
				if !tr.Add(freqs[i], tf[i]) {
					m = i + 1
					break
				}
			}
			swept++
			solved += m
		}
		evals++
		if fmt.Sprint(gerr) != fmt.Sprint(werr) {
			t.Fatalf("%s: error %v, full sweep %v", what, gerr, werr)
		}
		if werr != nil {
			failed++
		}
		for k, pair := range [][2]float64{
			{got.GainDB, want.GainDB}, {got.PMDeg, want.PMDeg}, {got.UnityHz, want.UnityHz},
			{got.BW3dB, want.BW3dB}, {got.VOut, want.VOut},
		} {
			if math.Float64bits(pair[0]) != math.Float64bits(pair[1]) {
				t.Fatalf("%s: field %d = %v, full sweep %v (bit-exact)", what, k, pair[0], pair[1])
			}
		}
	}
	nominal := func() *process.Sample { return nil }
	for i := 0; i < 500; i++ {
		genes := make([]float64, 8)
		for k := range genes {
			genes[k] = rng.Float64()
		}
		p, err := space.Denormalize(genes)
		if err != nil {
			t.Fatal(err)
		}
		c := DefaultConfig()
		check(fmt.Sprintf("sizing %d nominal", i), c, p, nominal)
		for s := 0; s < 3; s++ {
			check(fmt.Sprintf("sizing %d sample %d", i, s), c, p,
				func() *process.Sample { return proc.NewSample(int64(i), s) })
		}
		corner := process.Corners()[i%len(process.Corners())]
		for _, sigma := range []float64{3, -3} {
			check(fmt.Sprintf("sizing %d corner %v %+gσ", i, corner, sigma), c, p,
				func() *process.Sample { return proc.CornerSample(corner, sigma) })
		}
		if i%25 == 0 {
			// A starved supply or bias puts the DC gain below 0 dB;
			// a rail-hugging common mode or a vanishing load moves
			// both crossings.
			for k, mod := range []func(*Config){
				func(c *Config) { c.VDD = 0.6 },
				func(c *Config) { c.IBias = 1e-13 },
				func(c *Config) { c.VCM = 0.1 },
				func(c *Config) { c.VCM = 3.2 },
				func(c *Config) { c.CLoad = 1e-18 },
			} {
				hostile := DefaultConfig()
				mod(&hostile)
				check(fmt.Sprintf("sizing %d testbench %d", i, k), hostile, p, nominal)
			}
		}
	}
	freqs, err := analysis.DecadeFreqs(sweepStart, sweepStop, 10)
	if err != nil {
		t.Fatal(err)
	}
	points := len(freqs)
	mean := float64(solved) / float64(swept)
	t.Logf("%d evaluations (%d failed), %.1f of %d AC points solved on average", evals, failed, mean, points)
	if mean >= float64(points) {
		t.Errorf("sweeps solved %.1f of %d points on average; want an early stop", mean, points)
	}
}
