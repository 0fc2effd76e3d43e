package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"analogyield/internal/core"
	"analogyield/internal/pareto"
	"analogyield/internal/process"
	"analogyield/internal/store"
)

// flowSizes sets the flow workload's budgets.
type flowSizes struct {
	Pop, Gen, MC int
	// Pilots candidate flow seeds are drawn from the benchmark seed; the
	// Inputs whose WBGA fronts lie closest to FrontTarget points are the
	// flows a run measures, in turn. A 1k-evaluation (64×16) WBGA front
	// ranges from ~30 to ~70 points across seeds and MC work is
	// proportional to it, so without this every seed would be a
	// different-sized job; three inputs per run average out the ±15%
	// per-sample cost that differs between designs.
	Pilots, FrontTarget, Inputs int
	Workers                     int
	// PinnedVersion is the expected model content address for seed 1.
	PinnedVersion string
}

func defaultFlowSizes() flowSizes {
	return flowSizes{Pop: 64, Gen: 16, MC: 200, Pilots: 16, FrontTarget: 40, Inputs: 3, Workers: 2,
		PinnedVersion: pinnedFlowVersion}
}

// pinnedFlowVersion is the model content address (Registry.Install
// version) of the first flow input of the default seed 1.
const pinnedFlowVersion = "10a76781f510456b65a665faba607e083ce860942fc981cfc39491a4940d0d87"

// flowInput is the generated input of one flow run.
type flowInput struct {
	seed  int64 // FlowConfig.Seed
	front int   // its WBGA front size
}

// selectFlowInputs draws Pilots candidate flow seeds from the benchmark
// seed, runs each one's WBGA stage alone (the flow is cancelled when the
// MOO stage ends) and keeps the Inputs candidates whose fronts are
// closest to the target size, ties to the earlier draw.
func selectFlowInputs(seed int64, sz flowSizes, proc *process.Process) ([]flowInput, error) {
	rng := rand.New(rand.NewSource(seed))
	var cands []flowInput
	for i := 0; i < sz.Pilots; i++ {
		cand := rng.Int63n(1 << 40)
		ctx, cancel := context.WithCancel(context.Background())
		res, err := core.RunFlow(ctx, core.FlowConfig{
			Problem: core.NewOTAProblem(), Proc: proc,
			PopSize: sz.Pop, Generations: sz.Gen, MCSamples: sz.MC, Seed: cand, Workers: sz.Workers,
			Obs: core.ObserverFunc(func(e core.Event) {
				if se, ok := e.(core.StageEnd); ok && se.Stage == core.StageMOO {
					cancel()
				}
			}),
		})
		cancel()
		if res == nil || (err != nil && !errors.Is(err, context.Canceled)) {
			return nil, fmt.Errorf("pilot flow %d: %v", cand, err)
		}
		cands = append(cands, flowInput{seed: cand, front: len(res.FrontIdx)})
	}
	sort.SliceStable(cands, func(i, j int) bool {
		return abs(cands[i].front-sz.FrontTarget) < abs(cands[j].front-sz.FrontTarget)
	})
	return cands[:min(sz.Inputs, len(cands))], nil
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

// flowObserver turns the flow's event stream into spans and event times.
type flowObserver struct {
	tr       *tracer
	prob     *tracedOTA
	root     active
	stage    active
	genTimes []time.Time
	mcTimes  []time.Time
}

func (o *flowObserver) Observe(e core.Event) {
	switch ev := e.(type) {
	case core.StageStart:
		o.stage = o.tr.begin("core."+string(ev.Stage), o.root.id, o.root.trace)
		if o.prob != nil {
			o.prob.under(o.stage)
		}
	case core.StageEnd:
		o.stage.end()
	case core.GenerationDone:
		o.genTimes = append(o.genTimes, time.Now())
	case core.MCPointDone:
		o.mcTimes = append(o.mcTimes, time.Now())
	}
}

func spacingMS(ts []time.Time) []float64 {
	var out []float64
	for i := 1; i < len(ts); i++ {
		out = append(out, millis(ts[i].Sub(ts[i-1])))
	}
	return out
}

// flowConfig is the configuration of one flow of the OTA problem.
func flowConfig(prob core.CircuitProblem, proc *process.Process, pop, gen, mc int, seed int64, workers int, obs core.Observer) core.FlowConfig {
	return core.FlowConfig{Problem: prob, Proc: proc, PopSize: pop, Generations: gen, MCSamples: mc,
		Seed: seed, Workers: workers, Obs: obs}
}

// runOneFlow runs one flow and checks its outputs, returning its wall
// time and result (nil if it failed).
func runOneFlow(rep *report, cfg core.FlowConfig, check func(*core.FlowResult) error) (wall time.Duration, res *core.FlowResult) {
	rep.Attempted++
	t0 := time.Now()
	res, err := core.RunFlow(context.Background(), cfg)
	wall = time.Since(t0)
	if err != nil {
		rep.fail("flow seed %d: %v", cfg.Seed, err)
		return wall, nil
	}
	if err := check(res); err != nil {
		rep.fail("flow seed %d: %v", cfg.Seed, err)
	}
	return wall, res
}

// checkFlow verifies the flow's outputs: the front is a true Pareto
// front of the archive, its size matches the pilot run, and the model's
// content address agrees with the pinned value (seed 1) and with every
// earlier run of the same seed in this output directory.
func checkFlow(e *env, sz flowSizes, k int, in flowInput, res *core.FlowResult) error {
	if err := verifyFront(res); err != nil {
		return err
	}
	if len(res.FrontIdx) != in.front {
		return fmt.Errorf("front has %d points, pilot had %d", len(res.FrontIdx), in.front)
	}
	v, err := modelVersion(res)
	if err != nil {
		return err
	}
	if e.seed == 1 && k == 0 && sz.PinnedVersion != "" && v != sz.PinnedVersion {
		return fmt.Errorf("model version %s, pinned %s", v, sz.PinnedVersion)
	}
	e.rep.note("flow seed %d (from benchmark seed %d): %d evaluations, front %d, %d MC sims, moo %.3fs mc %.3fs, model %s",
		in.seed, e.seed, res.Evaluations, len(res.FrontIdx), res.MCSimulations, res.Timing.MOO.Seconds(), res.Timing.MC.Seconds(), v)
	return agreeAcrossRuns(e, fmt.Sprintf("flow-%d-%dx%dx%d-input%d", e.seed, sz.Pop, sz.Gen, sz.MC, k), []string{v})
}

// checkSameModel verifies a flow that reruns an earlier one: a true
// Pareto front and the earlier flow's model content address.
func checkSameModel(want *core.FlowResult) func(*core.FlowResult) error {
	return func(res *core.FlowResult) error {
		if err := verifyFront(res); err != nil {
			return err
		}
		v, err := modelVersion(res)
		if err != nil {
			return err
		}
		if w, err := modelVersion(want); err != nil || v != w {
			return fmt.Errorf("model version %s, the set-up flow built %s (%v)", v, w, err)
		}
		return nil
	}
}

func verifyFront(res *core.FlowResult) error {
	return pareto.Verify(objectives(res), res.FrontIdx, []bool{true, true})
}

func objectives(res *core.FlowResult) [][]float64 {
	objs := make([][]float64, len(res.Archive))
	for i, ev := range res.Archive {
		objs[i] = ev.Objectives
	}
	return objs
}

// modelVersion is the model's content address (its Registry.Install
// version).
func modelVersion(res *core.FlowResult) (string, error) {
	payload, err := core.EncodeModel(res.Model)
	if err != nil {
		return "", err
	}
	return store.Version(payload), nil
}

// agreeAcrossRuns records the output fingerprints of a seed in the
// output directory and fails when an earlier run of the same seed
// recorded different ones. Runs may complete different numbers of
// operations, so the longest common prefix is compared and the longer
// list kept.
func agreeAcrossRuns(e *env, key string, prints []string) error {
	path := filepath.Join(e.out, "state", key)
	var old []string
	if prev, err := os.ReadFile(path); err == nil {
		old = strings.Fields(string(prev))
	}
	for i := 0; i < len(old) && i < len(prints); i++ {
		if old[i] != prints[i] {
			return fmt.Errorf("output %d is %s, an earlier run of the same seed gave %s", i, prints[i], old[i])
		}
	}
	if len(prints) <= len(old) {
		return nil
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, []byte(strings.Join(prints, "\n")+"\n"), 0o644)
}

func runFlowWorkload(e *env) error {
	rep, sz := e.rep, e.sz.flow
	proc := process.C35()

	// Set-up: generate the flow inputs from the seed. It is not repeated:
	// it is already Pilots WBGA runs, and its median would cost a
	// multiple of the measurement.
	t0 := time.Now()
	inputs, err := selectFlowInputs(e.seed, sz, proc)
	if err != nil {
		return err
	}
	setup := time.Since(t0)
	for k, in := range inputs {
		rep.note("flow input %d: FlowConfig.Seed %d, front %d points (target %d, %d pilots)",
			k, in.seed, in.front, sz.FrontTarget, sz.Pilots)
	}

	// The run measures whole rounds of the inputs, one flow each, and
	// starts another round only if it fits the window: every input then
	// weighs equally in the median however fast the host is.
	mem := startMemDelta()
	var times []float64
	start := time.Now()
	for round := 0; fits(start, e.seconds, time.Duration(float64(len(inputs))*median(times)*float64(time.Second)), round); round++ {
		for k, in := range inputs {
			wall, _ := runOneFlow(rep, flowConfig(core.NewOTAProblem(), proc, sz.Pop, sz.Gen, sz.MC, in.seed, sz.Workers, nil),
				func(res *core.FlowResult) error { return checkFlow(e, sz, k, in, res) })
			times = append(times, wall.Seconds())
		}
	}
	flowS := median(times)
	if !e.trace {
		finishE2E(rep, []float64{setup.Seconds()}, flowS*1000, len(times), float64(len(times))/sum(times), len(times))
		return nil
	}

	// Traced run: the first input again with spans, then the replays.
	tr := newTracer()
	in := inputs[0]
	tracedEl, res := traceFlow(rep, tr, flowConfig(nil, proc, sz.Pop, sz.Gen, sz.MC, in.seed, sz.Workers, nil), e.seed,
		func(res *core.FlowResult) error { return checkFlow(e, sz, 0, in, res) })
	mem.report(rep)
	if res == nil {
		return fmt.Errorf("traced flow failed")
	}
	overhead(rep, millis(tracedEl), times[0]*1000, 1/tracedEl.Seconds(), 1/times[0], 1)
	// The layers the flow does not load, on the model it built.
	if err := probeDesign(e, tr, res.Model, proc, "flow"); err != nil {
		return err
	}
	if err := probeServe(e, tr, res); err != nil {
		return err
	}
	return tr.write(e.out, "flow", e.seed)
}

// traceFlow runs the flow cfg describes with the OTA evaluations
// wrapped and the event stream observed, checks it, and reports the
// flow layers (core, wbga, ota, montecarlo); then it replays the pareto
// and circuit layers on the flow's own archive and on MC inputs drawn
// from replaySeed. It returns the traced wall time and the result, nil
// if the flow failed.
func traceFlow(rep *report, tr *tracer, cfg core.FlowConfig, replaySeed int64,
	check func(*core.FlowResult) error) (time.Duration, *core.FlowResult) {
	prob := newTracedOTA(tr)
	obs := &flowObserver{tr: tr, prob: prob}
	obs.root = tr.begin("flow", 0, 1)
	prob.under(obs.root)
	cfg.Problem, cfg.Obs = prob, obs
	tracedEl, res := runOneFlow(rep, cfg, check)
	obs.root.end()
	if res == nil {
		return tracedEl, nil
	}

	tm := res.Timing
	rep.set("core.moo_s", tm.MOO.Seconds(), "s", 1)
	rep.set("core.mc_s", tm.MC.Seconds(), "s", 1)
	rep.set("core.tables_ms", millis(tm.Tables), "ms", 1)
	rep.set("core.mc_share", tm.MC.Seconds()/tracedEl.Seconds(), "ratio", 1)
	rep.set("core.solver_failures", float64(res.Metrics.SolverFailures), "count", 1)
	rep.set("core.dropped_points", float64(res.DroppedPoints), "count", 1)

	rep.set("wbga.evals", float64(res.Evaluations), "count", 1)
	rep.set("wbga.cache_hit_ratio", ratio(res.CacheHits, res.CacheHits+res.CacheMisses), "ratio", res.CacheHits+res.CacheMisses)
	gens := spacingMS(obs.genTimes)
	rep.set("wbga.gen_ms", median(gens), "ms", len(gens))

	prob.reportEvals(rep)
	prob.mu.Lock()
	busy := prob.mcSum.Seconds() / (tm.MC.Seconds() * float64(cfg.Workers))
	evalShare := (prob.mcSum.Seconds() + sumDur(prob.nominal).Seconds()) / float64(cfg.Workers) / tracedEl.Seconds()
	prob.mu.Unlock()
	rep.set("ota.eval_busy_frac", busy, "ratio", 1)
	rep.set("ota.flow_share", evalShare, "ratio", 1)
	rep.note("traced flow %.3f s: core.mc_share %.3f, share inside ota evaluation %.3f (per worker)",
		tracedEl.Seconds(), tm.MC.Seconds()/tracedEl.Seconds(), evalShare)

	rep.set("montecarlo.samples_per_s", float64(res.MCSimulations)/tm.MC.Seconds(), "1/s", res.MCSimulations)
	pts := spacingMS(obs.mcTimes)
	rep.set("montecarlo.point_ms", median(pts), "ms", len(pts))
	rep.set("montecarlo.busy_workers_peak", float64(res.Metrics.MCBusyWorkersPeak), "count", 1)
	rep.set("montecarlo.queue_depth_peak", float64(res.Metrics.MCQueueDepthPeak), "count", 1)

	// pareto: replay the front extraction on the flow's own archive.
	objs := objectives(res)
	var frontMS []float64
	size := 0
	for r := 0; r < 20; r++ {
		sp := tr.begin("pareto.front", 0, 0)
		t := time.Now()
		size = len(pareto.Front(objs, []bool{true, true}))
		frontMS = append(frontMS, millis(time.Since(t)))
		sp.end()
	}
	if size != len(res.FrontIdx) {
		rep.fail("pareto.Front replay found %d points, flow front has %d", size, len(res.FrontIdx))
	}
	rep.set("pareto.front_ms", median(frontMS), "ms", len(frontMS))
	rep.set("pareto.front_size", float64(size), "count", 1)

	// Circuit layers: replay a seeded subset of the flow's MC
	// (genes, sample) pairs, derived exactly as the flow derives them.
	otaProb := core.NewOTAProblem()
	rng := rand.New(rand.NewSource(replaySeed))
	var cases []evalCase
	for i := 0; i < 64; i++ {
		pos := rng.Intn(len(res.FrontIdx))
		params, err := otaProb.Space.Denormalize(res.Archive[res.FrontIdx[pos]].ParamGenes)
		if err != nil {
			rep.fail("denormalize front point %d: %v", pos, err)
			return tracedEl, res
		}
		cases = append(cases, evalCase{params: params,
			seed: cfg.Seed + int64(pos)*1000003, index: rng.Intn(cfg.MCSamples)})
	}
	layerSum := replayCircuit(rep, tr, cfg.Proc, cases)
	reportUnexplained(rep, layerSum)
	return tracedEl, res
}

// reportUnexplained compares the replayed layers' summed time with the
// measured MC evaluation time.
func reportUnexplained(rep *report, layerSum float64) {
	if ev := rep.Metrics["ota.eval_mc_us"].Value; ev > 0 {
		rep.set("ota.unexplained_frac", 1-layerSum/ev, "ratio", 1)
	}
}

func ratio(a, b int) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

func sumDur(ds []time.Duration) time.Duration {
	var s time.Duration
	for _, d := range ds {
		s += d
	}
	return s
}
