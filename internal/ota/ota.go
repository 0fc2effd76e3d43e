// Package ota implements the paper's benchmark circuit: a symmetrical
// operational transconductance amplifier (Fig 5) with the Table 1
// designable-parameter space, an open-loop AC testbench, and the
// objective evaluation (open-loop gain and phase margin) that feeds the
// multi-objective optimisation.
//
// Topology (three-current-mirror symmetrical OTA):
//
//	M1/M2   NMOS differential pair (fixed geometry, as in the paper)
//	M3/M4   PMOS diode loads            — designable pair (W1, L1)
//	M5/M6   PMOS mirror outputs         — designable pair (W2, L2)
//	M7/M8   NMOS output mirror          — designable pair (W3, L3)
//	M9/M10  NMOS bias/tail mirror       — designable pair (W4, L4)
//
// The mirror ratio B = (W2/L2)/(W1/L1) multiplies the first-stage
// current; output conductance (gain) is set by the channel lengths of
// the output devices while the internal mirror poles (phase margin) are
// set by their gate areas — the physical origin of the gain/PM trade-off
// the paper's Pareto front exposes.
package ota

import (
	"fmt"
	"math"

	"analogyield/internal/analysis"
	"analogyield/internal/circuit"
	"analogyield/internal/measure"
	"analogyield/internal/mos"
	"analogyield/internal/num"
	"analogyield/internal/process"
)

const um = 1e-6

// Params are the eight designable parameters of the paper's Table 1
// (metres). Each (W, L) pair sizes one matched device pair.
type Params struct {
	W1, L1 float64 // M3/M4: PMOS diode loads
	W2, L2 float64 // M5/M6: PMOS mirror outputs
	W3, L3 float64 // M7/M8: NMOS output mirror
	W4, L4 float64 // M9/M10: bias/tail mirror
}

// Vector returns the parameters in Table 1 order
// (W1, L1, W2, L2, W3, L3, W4, L4).
func (p Params) Vector() []float64 {
	return []float64{p.W1, p.L1, p.W2, p.L2, p.W3, p.L3, p.W4, p.L4}
}

// FromVector builds Params from a Table 1-ordered slice.
func FromVector(v []float64) (Params, error) {
	if len(v) != 8 {
		return Params{}, fmt.Errorf("ota: parameter vector has %d entries, want 8", len(v))
	}
	return Params{v[0], v[1], v[2], v[3], v[4], v[5], v[6], v[7]}, nil
}

// MirrorRatio returns B = (W2/L2)/(W1/L1), the output current
// multiplication of the symmetrical OTA.
func (p Params) MirrorRatio() float64 {
	return (p.W2 / p.L2) / (p.W1 / p.L1)
}

// Space is the box-constrained parameter space of Table 1. Names returns
// the Table 1 labels; Normalize/Denormalize map between physical values
// and the GA's [0,1] genes.
type Space struct {
	Lo, Hi [8]float64 // metres, Table 1 order
}

// DefaultSpace returns the paper's Table 1 ranges:
// W in [10 µm, 60 µm], L in [0.35 µm, 4 µm] for all four pairs.
func DefaultSpace() Space {
	var s Space
	for i := 0; i < 8; i += 2 {
		s.Lo[i], s.Hi[i] = 10*um, 60*um // widths
		s.Lo[i+1], s.Hi[i+1] = 0.35*um, 4*um
	}
	return s
}

// Names returns the Table 1 parameter labels in order.
func (Space) Names() []string {
	return []string{"W1", "L1", "W2", "L2", "W3", "L3", "W4", "L4"}
}

// Denormalize maps 8 genes in [0,1] to physical Params.
func (s Space) Denormalize(genes []float64) (Params, error) {
	if len(genes) != 8 {
		return Params{}, fmt.Errorf("ota: %d genes, want 8", len(genes))
	}
	v := make([]float64, 8)
	for i, g := range genes {
		v[i] = s.Lo[i] + num.Clamp(g, 0, 1)*(s.Hi[i]-s.Lo[i])
	}
	return FromVector(v)
}

// Normalize maps physical Params to genes in [0,1].
func (s Space) Normalize(p Params) []float64 {
	v := p.Vector()
	g := make([]float64, 8)
	for i := range v {
		g[i] = num.Clamp((v[i]-s.Lo[i])/(s.Hi[i]-s.Lo[i]), 0, 1)
	}
	return g
}

// Config is the fixed testbench configuration: supply, bias, load,
// diff-pair geometry and nominal device models (0.35 µm class, standing
// in for the AMS C35B4 BSim3v3 deck).
type Config struct {
	VDD   float64 // supply, V
	VCM   float64 // input common mode, V
	IBias float64 // reference current into the bias mirror, A
	CLoad float64 // single-ended load capacitance, F

	M1W, M1L float64 // differential pair geometry (fixed per the paper)

	NMOS, PMOS mos.Params
}

// DefaultConfig returns the benchmark conditions used throughout the
// repository: 3.3 V supply, 1.5 V common mode, 10 µA bias, 2 pF load.
// The load was calibrated so the Pareto knee falls where the paper's
// does: gains around 50 dB trading against phase margins in the
// 80s-of-degrees, with ΔGain ≈ 0.4-0.5% and ΔPM ≈ 1.1-1.6% from the
// 0.35 µm-class statistical models.
func DefaultConfig() Config {
	return Config{
		VDD:   3.3,
		VCM:   1.5,
		IBias: 10e-6,
		CLoad: 2e-12,
		M1W:   20 * um,
		M1L:   1 * um,
		NMOS:  mos.NominalNMOS(),
		PMOS:  mos.NominalPMOS(),
	}
}

// modelFor applies one device's statistical shift (nil sample = nominal).
func modelFor(base mos.Params, sample *process.Sample, w, l float64) mos.Params {
	if sample == nil {
		return base
	}
	return base.Applied(sample.DeviceShift(base.Class, w, l))
}

// Build constructs the open-loop testbench netlist for the given
// designable parameters. When sample is non-nil, every transistor
// receives its own statistical shift (global + Pelgrom mismatch), drawn
// in a fixed device order (M1..M10) for determinism.
//
// The signal input is the non-inverting gate ("inp" node driven by VIN
// with ACMag 1); the inverting gate is held at the common mode. The
// open-loop transfer function is V(out)/V(in).
func (c Config) Build(p Params, sample *process.Sample) *circuit.Netlist {
	n, _ := c.build(p, sample)
	return n
}

// build is Build that also returns the instance's ten transistors in
// device order (see resize).
func (c Config) build(p Params, sample *process.Sample) (*circuit.Netlist, [10]*circuit.MOSFET) {
	n := circuit.New("symmetrical OTA testbench")
	vdd := n.Node("vdd")
	inp := n.Node("inp") // non-inverting input (signal)
	inn := n.Node("inn") // inverting input (AC ground)
	n1 := n.Node("n1")   // drain of M1 / gate of M3, M5
	n2 := n.Node("n2")   // drain of M2 / gate of M4, M6
	outm := n.Node("outm")
	out := n.Node("out")
	tail := n.Node("tail")
	bias := n.Node("bias")
	gnd := circuit.Ground

	n.MustAdd(&circuit.VSource{Inst: "VDD", Pos: vdd, Neg: gnd, DC: c.VDD})
	n.MustAdd(&circuit.VSource{Inst: "VIN", Pos: inp, Neg: gnd, DC: c.VCM, ACMag: 1})
	n.MustAdd(&circuit.ISource{Inst: "IBIAS", Pos: vdd, Neg: bias, DC: c.IBias})
	n.MustAdd(&circuit.Capacitor{Inst: "CL", A: out, B: gnd, C: c.CLoad})
	// DC servo: a huge-time-constant RC feedback to the inverting gate
	// fixes the output operating point at the common mode (the standard
	// open-loop-gain testbench trick). At DC the gate draws no current,
	// so V(inn) = V(out) and unity feedback centres the bias — even when
	// Monte Carlo mismatch introduces an input-referred offset that
	// would otherwise rail a truly open-loop output. At every AC
	// frequency of interest the 1 GΩ / 1 F corner (~0.16 nHz) makes the
	// feedback path transparent, so the measured response is open-loop.
	n.MustAdd(&circuit.Resistor{Inst: "RFB", A: out, B: inn, R: 1e9})
	n.MustAdd(&circuit.Capacitor{Inst: "CFB", A: inn, B: gnd, C: 1})

	ms := c.AddInstance(n, "", vdd, inp, inn, out, n1, n2, outm, tail, bias, p, sample)
	return n, ms
}

// AddInstance adds the ten transistors of one symmetrical OTA to an
// existing netlist. All node indices are supplied by the caller (which
// lets larger circuits, like the §5 filter, instantiate several OTAs
// with private internal nodes). Device names get the given prefix, so
// instances stay uniquely named. The bias mirror (M9/M10) is included;
// the caller supplies the bias node fed by a current reference. It
// returns the transistors in device order M1..M10 (see resize).
func (c Config) AddInstance(n *circuit.Netlist, prefix string,
	vdd, inp, inn, out, n1, n2, outm, tail, bias int,
	p Params, sample *process.Sample) [10]*circuit.MOSFET {
	gnd := circuit.Ground
	// Terminals (D, G, S, B) in device order M1..M10.
	terms := [10][4]int{
		// Differential pair: M2 takes the signal (non-inverting path to
		// the output through M4/M6), M1 is the inverting-side device.
		{n1, inn, tail, gnd}, {n2, inp, tail, gnd},
		{n1, n1, vdd, vdd}, {n2, n2, vdd, vdd}, // PMOS diode loads
		{outm, n1, vdd, vdd}, {out, n2, vdd, vdd}, // PMOS mirror outputs
		{outm, outm, gnd, gnd}, {out, outm, gnd, gnd}, // NMOS output mirror
		{bias, bias, gnd, gnd}, {tail, bias, gnd, gnd}, // bias/tail mirror
	}
	var ms [10]*circuit.MOSFET
	for i, t := range terms {
		ms[i] = &circuit.MOSFET{Inst: fmt.Sprintf("%sM%d", prefix, i+1), D: t[0], G: t[1], S: t[2], B: t[3]}
	}
	c.resize(ms, p, sample)
	for _, m := range ms {
		n.MustAdd(m)
	}
	return ms
}

// resize sets the geometry and device model of an instance's ten
// transistors ms (device order M1..M10). When sample is non-nil each
// receives its own statistical shift (global + Pelgrom mismatch), drawn
// in device order for determinism.
func (c Config) resize(ms [10]*circuit.MOSFET, p Params, sample *process.Sample) {
	for i, d := range [10]struct {
		base mos.Params
		w, l float64
	}{
		{c.NMOS, c.M1W, c.M1L}, {c.NMOS, c.M1W, c.M1L}, // differential pair (fixed)
		{c.PMOS, p.W1, p.L1}, {c.PMOS, p.W1, p.L1},
		{c.PMOS, p.W2, p.L2}, {c.PMOS, p.W2, p.L2},
		{c.NMOS, p.W3, p.L3}, {c.NMOS, p.W3, p.L3},
		{c.NMOS, p.W4, p.L4}, {c.NMOS, p.W4, p.L4},
	} {
		ms[i].W, ms[i].L, ms[i].Model = d.w, d.l, modelFor(d.base, sample, d.w, d.l)
	}
}

// Perf holds the measured performance of one OTA instance.
type Perf struct {
	GainDB  float64 // open-loop DC gain, dB
	PMDeg   float64 // phase margin, degrees
	UnityHz float64 // unity-gain frequency, Hz
	BW3dB   float64 // −3 dB bandwidth, Hz
	VOut    float64 // DC output voltage, V (bias sanity)
}

// sweepStart/sweepStop bound the open-loop AC sweep. The start must sit
// well below the dominant pole (tens of kHz here) for the first point to
// approximate the DC gain.
const (
	sweepStart = 100.0
	sweepStop  = 1e9
)

// Evaluate builds and simulates the testbench, returning the measured
// performance. It is the objective function of the paper's MOO step.
func (c Config) Evaluate(p Params, sample *process.Sample) (Perf, error) {
	return c.EvaluateWS(p, sample, nil)
}

// EvaluateWS is Evaluate with a reusable solver workspace: the operating
// point and AC sweep solve through ws instead of allocating fresh
// matrices, factorisations and vectors, and the testbench netlist is
// built on the workspace's first evaluation and re-sized for each later
// one. Results are bit-identical to Evaluate's. A nil ws allocates
// internally (identical to Evaluate). A workspace serves one goroutine
// at a time — give each evaluation worker its own.
//
// The AC sweep stops at the last point the measurements read (see
// measure.SweepTracker), so it solves only a prefix of the grid; the
// prefix has the bits of the full sweep's, and so has every figure.
func (c Config) EvaluateWS(p Params, sample *process.Sample, ws *analysis.Workspace) (Perf, error) {
	freqs, tf, vout, err := c.response(p, sample, 10, true, ws)
	if err != nil {
		return Perf{}, err
	}
	return perfFrom(freqs, tf, vout)
}

// Response returns the open-loop frequency response (Fig 8's series) at
// pointsPerDecade resolution.
func (c Config) Response(p Params, sample *process.Sample, pointsPerDecade int) ([]float64, []complex128, error) {
	freqs, tf, _, err := c.response(p, sample, pointsPerDecade, false, nil)
	return freqs, tf, err
}

// testbench is the open-loop testbench one evaluation worker reuses:
// built once per analysis.Workspace, then re-sized for each evaluation.
type testbench struct {
	cfg   Config
	n     *circuit.Netlist
	ms    [10]*circuit.MOSFET
	ppd   int
	freqs []float64
	track measure.SweepTracker
}

type testbenchKey struct{}

func newTestbench() any { return new(testbench) }

// response simulates the testbench kept in ws (see testbench). The
// returned frequencies belong to that testbench when ws is non-nil.
// When measured is set, the sweep stops once the points so far fix what
// perfFrom reads, and freqs and tf are that prefix of the sweep.
func (c Config) response(p Params, sample *process.Sample, ppd int, measured bool, ws *analysis.Workspace) ([]float64, []complex128, float64, error) {
	if err := validate(p); err != nil {
		return nil, nil, 0, err
	}
	tb := ws.Memo(testbenchKey{}, newTestbench).(*testbench)
	if tb.n == nil || tb.cfg != c {
		tb.cfg = c
		tb.n, tb.ms = c.build(p, sample)
	} else {
		c.resize(tb.ms, p, sample)
	}
	if tb.freqs == nil || tb.ppd != ppd {
		freqs, err := analysis.DecadeFreqs(sweepStart, sweepStop, ppd)
		if err != nil {
			return nil, nil, 0, err
		}
		tb.ppd, tb.freqs = ppd, freqs
	}
	op, err := analysis.OP(tb.n, &analysis.OPOptions{WS: ws})
	if err != nil {
		return nil, nil, 0, fmt.Errorf("ota: %w", err)
	}
	vout, _ := op.V("out")
	var more func(int, complex128) bool
	if measured {
		tb.track.Reset()
		more = func(i int, v complex128) bool { return tb.track.Add(tb.freqs[i], v) }
	}
	tf, err := analysis.ACNodeUntil(tb.n, op, "out", tb.freqs, ws, more)
	if err != nil {
		return nil, nil, 0, fmt.Errorf("ota: %w", err)
	}
	return tb.freqs[:len(tf)], tf, vout, nil
}

func perfFrom(freqs []float64, tf []complex128, vout float64) (Perf, error) {
	perf := Perf{VOut: vout}
	perf.GainDB = measure.DCGainDB(tf)
	if math.IsNaN(perf.GainDB) || math.IsInf(perf.GainDB, 0) {
		return perf, fmt.Errorf("ota: degenerate gain")
	}
	pm, err := measure.PhaseMarginDeg(freqs, tf)
	if err != nil {
		return perf, fmt.Errorf("ota: phase margin: %w", err)
	}
	perf.PMDeg = pm
	if fu, err := measure.UnityGainFreq(freqs, tf); err == nil {
		perf.UnityHz = fu
	}
	if bw, err := measure.Bandwidth3dB(freqs, tf); err == nil {
		perf.BW3dB = bw
	}
	return perf, nil
}

func validate(p Params) error {
	for i, v := range p.Vector() {
		if v <= 0 {
			return fmt.Errorf("ota: non-positive parameter %d (%g)", i, v)
		}
	}
	return nil
}

// NominalParams returns a reasonable mid-space design used by examples
// and as a sanity anchor in tests.
func NominalParams() Params {
	return Params{
		W1: 15 * um, L1: 1 * um,
		W2: 45 * um, L2: 1.5 * um,
		W3: 20 * um, L3: 1.5 * um,
		W4: 20 * um, L4: 2 * um,
	}
}
