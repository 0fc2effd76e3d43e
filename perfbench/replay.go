package main

import (
	"math/rand"
	"time"

	"analogyield/internal/analysis"
	"analogyield/internal/circuit"
	"analogyield/internal/filter"
	"analogyield/internal/measure"
	"analogyield/internal/num"
	"analogyield/internal/ota"
	"analogyield/internal/process"
	"analogyield/internal/surrogate"
)

// evalCase is one circuit evaluation the workload ran: a sizing and the
// process sample it ran under, named by its (seed, index) derivation so
// the replay rebuilds the identical sample.
type evalCase struct {
	params ota.Params
	seed   int64
	index  int
}

// The OTA testbench's AC sweep, as ota.Config.Evaluate runs it: 100 Hz
// to 1 GHz at ten points per decade.
const (
	otaSweepStart = 100.0
	otaSweepStop  = 1e9
	otaSweepPPD   = 10
)

// replayCircuit times, on one goroutine, each layer below one OTA
// evaluation on the given cases: sample derivation (process), netlist
// assembly (circuit), the operating point (analysis + Newton), the AC
// sweep, the performance extraction (measure), one device-model call
// (mos) and the dense factorisations (num) at the testbench size. It
// returns the summed per-evaluation time of the layers that partition
// an evaluation (build, OP, AC, measure).
func replayCircuit(rep *report, tr *tracer, proc *process.Process, cases []evalCase) float64 {
	cfg := ota.DefaultConfig()
	ws := analysis.NewWorkspace()
	var sampleUS, buildUS, opUS, acUS, measUS, iters, points []float64
	var devices []*circuit.MOSFET
	var biases []analysis.DeviceOP
	unknowns := 0
	for ci, c := range cases {
		root := tr.begin("replay.ota_eval", 0, int64(ci))

		sp := tr.begin("process.sample", root.id, root.trace)
		t0 := time.Now()
		s := proc.NewSample(c.seed, c.index)
		// The ten shifts ota.Config.Build draws, in its device order.
		p := c.params
		for _, d := range [...]struct {
			class process.DeviceClass
			w, l  float64
		}{
			{process.NMOS, cfg.M1W, cfg.M1L}, {process.NMOS, cfg.M1W, cfg.M1L},
			{process.PMOS, p.W1, p.L1}, {process.PMOS, p.W1, p.L1},
			{process.PMOS, p.W2, p.L2}, {process.PMOS, p.W2, p.L2},
			{process.NMOS, p.W3, p.L3}, {process.NMOS, p.W3, p.L3},
			{process.NMOS, p.W4, p.L4}, {process.NMOS, p.W4, p.L4},
		} {
			s.DeviceShift(d.class, d.w, d.l)
		}
		sampleUS = append(sampleUS, micros(time.Since(t0)))
		sp.end()

		fresh := proc.NewSample(c.seed, c.index)
		sp = tr.begin("circuit.build", root.id, root.trace)
		t0 = time.Now()
		n := cfg.Build(c.params, fresh)
		buildUS = append(buildUS, micros(time.Since(t0)))
		sp.end()

		sp = tr.begin("analysis.op", root.id, root.trace)
		t0 = time.Now()
		op, err := analysis.OP(n, &analysis.OPOptions{WS: ws})
		opUS = append(opUS, micros(time.Since(t0)))
		sp.end()
		if err != nil {
			continue // a sample the flow also saw fail; the layer time still counts
		}
		iters = append(iters, float64(op.Iterations))

		sp = tr.begin("analysis.ac", root.id, root.trace)
		t0 = time.Now()
		ac, err := analysis.ACDecadeWith(n, op, otaSweepStart, otaSweepStop, otaSweepPPD, ws)
		acUS = append(acUS, micros(time.Since(t0)))
		sp.end()
		if err != nil {
			continue
		}
		points = append(points, float64(len(ac.Freqs)))
		tf, err := ac.V("out")
		if err != nil {
			continue
		}
		sp = tr.begin("measure.perf", root.id, root.trace)
		t0 = time.Now()
		_ = measure.DCGainDB(tf)
		_, _ = measure.PhaseMarginDeg(ac.Freqs, tf)
		_, _ = measure.UnityGainFreq(ac.Freqs, tf)
		_, _ = measure.Bandwidth3dB(ac.Freqs, tf)
		measUS = append(measUS, micros(time.Since(t0)))
		sp.end()
		root.end()

		if devices == nil {
			unknowns = n.NumUnknowns()
			biases = analysis.DeviceReport(n, op)
			for _, b := range biases {
				if m, ok := n.Device(b.Name).(*circuit.MOSFET); ok {
					devices = append(devices, m)
				}
			}
		}
	}
	rep.set("process.sample_us", median(sampleUS), "us", len(sampleUS))
	rep.set("circuit.build_us", median(buildUS), "us", len(buildUS))
	rep.set("analysis.op_us", median(opUS), "us", len(opUS))
	rep.set("analysis.newton_iters", median(iters), "count", len(iters))
	rep.set("analysis.ac_us", median(acUS), "us", len(acUS))
	rep.set("analysis.ac_points", median(points), "count", len(points))
	rep.set("measure.perf_us", median(measUS), "us", len(measUS))
	replayMOS(rep, tr, devices, biases)
	if unknowns > 0 {
		replayLU(rep, tr, "num.lu", unknowns, false)
		replayLU(rep, tr, "num.clu", unknowns, true)
	}
	return median(buildUS) + median(opUS) + median(acUS) + median(measUS)
}

// replayMOS times mos.Params.Eval at the operating-point biases
// analysis.DeviceReport gives for the first replayed testbench.
func replayMOS(rep *report, tr *tracer, devs []*circuit.MOSFET, biases []analysis.DeviceOP) {
	if len(devs) == 0 {
		return
	}
	byName := map[string]analysis.DeviceOP{}
	for _, b := range biases {
		byName[b.Name] = b
	}
	const reps = 2000
	sp := tr.begin("mos.eval", 0, 0)
	t0 := time.Now()
	for r := 0; r < reps; r++ {
		for _, d := range devs {
			b := byName[d.Inst]
			sink += d.Model.Eval(d.W, d.L, b.VGS, b.VDS, 0, b.VBS).Id
		}
	}
	el := time.Since(t0)
	sp.end()
	calls := reps * len(devs)
	rep.set("mos.eval_ns", float64(el)/float64(calls), "ns", calls)
}

// sink keeps replayed results alive so the compiler cannot drop calls.
var sink float64

// replayLU times FactorInto followed by Solve on a seeded, diagonally
// dominant matrix of the testbench's size (the MNA structure of a
// solved circuit is not exported; dense LU cost depends on n only). The
// bytes one factor+solve moves are computed, not measured: step k of
// the elimination reads and writes the (n−k−1)² trailing block, and the
// two triangular solves read the n² factor.
func replayLU(rep *report, tr *tracer, name string, n int, complexField bool) {
	rng := rand.New(rand.NewSource(int64(n)))
	const reps = 500
	elem := 8.0
	var el time.Duration
	sp := tr.begin(name, 0, 0)
	if complexField {
		elem = 16
		a := num.NewCMatrix(n)
		for i := 0; i < n; i++ {
			var row float64
			for j := 0; j < n; j++ {
				if i != j {
					v := complex(rng.Float64()*1e-3, rng.Float64()*1e-3)
					a.Set(i, j, v)
					row += 2e-3
				}
			}
			a.Set(i, i, complex(row+1, 0))
		}
		f := num.NewCLU(n)
		b := make([]complex128, n)
		x := make([]complex128, n)
		for i := range b {
			b[i] = complex(rng.Float64(), 0)
		}
		t0 := time.Now()
		for r := 0; r < reps; r++ {
			if err := f.FactorInto(a); err == nil {
				f.Solve(b, x)
			}
		}
		el = time.Since(t0)
		sink += real(x[0])
	} else {
		a := num.NewMatrix(n)
		for i := 0; i < n; i++ {
			var row float64
			for j := 0; j < n; j++ {
				if i != j {
					v := rng.Float64() * 1e-3
					a.Set(i, j, v)
					row += v
				}
			}
			a.Set(i, i, row+1)
		}
		f := num.NewLU(n)
		b := make([]float64, n)
		x := make([]float64, n)
		for i := range b {
			b[i] = rng.Float64()
		}
		t0 := time.Now()
		for r := 0; r < reps; r++ {
			if err := f.FactorInto(a); err == nil {
				f.Solve(b, x)
			}
		}
		el = time.Since(t0)
		sink += x[0]
	}
	sp.end()
	var trailing float64
	for m := 0; m < n; m++ {
		trailing += float64(m * m)
	}
	bytes := elem * (2*trailing + 2*float64(n*n))
	rep.set(name+"_us", micros(el)/reps, "us", reps)
	rep.set(name+"_bytes", bytes, "bytes", 1)
}

// replaySurrogate trains the GP filter's regressor on the first 48
// verification samples of a design (features: the four global-shift
// coordinates in sigma units; outputs: the evaluated metrics), then
// times one prediction.
func replaySurrogate(rep *report, tr *tracer, proc *process.Process, params ota.Params, seed int64) {
	cfg := ota.DefaultConfig()
	var x, y [][]float64
	for i := 0; len(x) < 48 && i < 96; i++ {
		s := proc.NewSample(seed, i)
		g := s.GlobalSigmaUnits()
		perf, err := cfg.Evaluate(params, proc.NewSample(seed, i))
		if err != nil {
			continue
		}
		x = append(x, g[:])
		y = append(y, []float64{perf.GainDB, perf.PMDeg})
	}
	if len(x) < 8 {
		return
	}
	const reps = 20
	var m *surrogate.Model
	sp := tr.begin("surrogate.train", 0, 0)
	t0 := time.Now()
	for r := 0; r < reps; r++ {
		var err error
		if m, err = surrogate.Train(x, y); err != nil {
			sp.end()
			rep.fail("surrogate.Train: %v", err)
			return
		}
	}
	rep.set("surrogate.train_ms", millis(time.Since(t0))/reps, "ms", reps)
	sp.end()
	mean, sd := make([]float64, 2), make([]float64, 2)
	const preds = 2000
	sp = tr.begin("surrogate.predict", 0, 0)
	t0 = time.Now()
	for r := 0; r < preds; r++ {
		_ = m.Predict(x[r%len(x)], mean, sd)
	}
	rep.set("surrogate.predict_us", micros(time.Since(t0))/preds, "us", preds)
	sp.end()
	sink += mean[0]
}

// replayFilter times the §5 filter's behavioural objective
// (filter.Problem.Evaluate) on seeded genes, and one transistor-level
// verification sample (BuildTransistor + Measure) on the design's own
// verification samples; it also times the complex LU at the filter
// testbench size.
func replayFilter(rep *report, tr *tracer, prob *filter.Problem, caps filter.Caps, params ota.Params,
	proc *process.Process, seed int64, rng *rand.Rand) {
	var behav []float64
	for i := 0; i < 200; i++ {
		g := []float64{rng.Float64(), rng.Float64(), rng.Float64()}
		sp := tr.begin("filter.behav_eval", 0, 0)
		t0 := time.Now()
		_, _ = prob.Evaluate(g)
		behav = append(behav, micros(time.Since(t0)))
		sp.end()
	}
	rep.set("filter.behav_eval_us", median(behav), "us", len(behav))
	cfg := ota.DefaultConfig()
	var tran []float64
	unknowns := 0
	for i := 0; i < 24; i++ {
		sp := tr.begin("filter.tran_eval", 0, 0)
		t0 := time.Now()
		n := filter.BuildTransistor(caps, cfg, params, proc.NewSample(seed, i))
		_, _ = filter.Measure(n, prob.Spec)
		tran = append(tran, micros(time.Since(t0)))
		sp.end()
		unknowns = n.NumUnknowns()
	}
	rep.set("filter.tran_eval_us", median(tran), "us", len(tran))
	replayLU(rep, tr, "num.clu_filter", unknowns, true)
}
