package main

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"analogyield/internal/behave"
	"analogyield/internal/core"
	"analogyield/internal/filter"
	"analogyield/internal/montecarlo"
	"analogyield/internal/ota"
	"analogyield/internal/process"
	"analogyield/internal/yield"
)

// designSizes sets the design workload's budgets.
type designSizes struct {
	// The set-up flow that builds the reused model. Its seed is fixed:
	// the workload is reuse of one built model, and the benchmark seed
	// generates the design requests made of it.
	ModelSeed                   int64
	ModelPop, ModelGen, ModelMC int
	VerifySamples               int // §4.4 OTA verification
	FilterPop, FilterGen        int // §5 capacitor MOO
	FilterSamples               int // §5 transistor-level verification
	Workers                     int
	// Tasks is the number of design requests a run makes. It is fixed
	// rather than set by the window because tasks differ in cost: a
	// faster run would otherwise take its median over a different set.
	Tasks int
	// TracedTasks is how many tasks the traced pass repeats; ProbeTasks
	// how many a traced run of another workload makes of its own model.
	TracedTasks, ProbeTasks int
}

func defaultDesignSizes() designSizes {
	return designSizes{ModelSeed: 1, ModelPop: 24, ModelGen: 16, ModelMC: 40, VerifySamples: 500,
		FilterPop: 30, FilterGen: 40, FilterSamples: 500, Workers: 2, Tasks: 20, TracedTasks: 4, ProbeTasks: 2}
}

// designTask is one generated design request.
type designTask struct {
	k             int
	spec0, spec1  yield.Spec
	strategy      montecarlo.Strategy
	seed          int64
	filterOptSeed int64
}

// buildModel runs the small set-up flow that produces the model the
// design and serve workloads reuse.
func buildModel(seed int64, pop, gen, mc, workers int, proc *process.Process) (*core.FlowResult, error) {
	res, err := core.RunFlow(context.Background(), flowConfig(core.NewOTAProblem(), proc, pop, gen, mc, seed, workers, nil))
	if err != nil {
		return nil, fmt.Errorf("set-up flow: %w", err)
	}
	return res, nil
}

// drawTasks draws feasible (gain, PM) specs along the model's front:
// a gain bound inside the middle of the modelled range and a PM bound a
// few degrees under the front there, kept only if DesignFor accepts it.
// Even tasks verify with naive MC, odd ones with is+surrogate.
func drawTasks(m *core.Model, rng *rand.Rand, n int) ([]designTask, error) {
	lo, hi := m.Domain()
	var tasks []designTask
	for tries := 0; len(tasks) < n; tries++ {
		if tries > 50*n {
			return nil, fmt.Errorf("only %d of %d feasible specs after %d draws", len(tasks), n, tries)
		}
		g := lo + (0.15+0.55*rng.Float64())*(hi-lo)
		pmFront, err := m.PerfFront.Eval(min(hi, g*1.02))
		if err != nil {
			continue
		}
		t := designTask{
			k:     len(tasks),
			spec0: yield.Spec{Name: "gain_db", Sense: yield.AtLeast, Bound: g},
			spec1: yield.Spec{Name: "pm_deg", Sense: yield.AtLeast, Bound: pmFront - 2 - 4*rng.Float64()},
			seed:  rng.Int63n(1 << 40), filterOptSeed: rng.Int63n(1 << 40),
		}
		if _, err := m.DesignFor(t.spec0, t.spec1); err != nil {
			continue
		}
		if t.k%2 == 1 {
			t.strategy = montecarlo.StrategyISSurrogate
		}
		tasks = append(tasks, t)
	}
	return tasks, nil
}

// designTaskResult is what one task produced and how long each step took.
type designTaskResult struct {
	total, query, verify, fmoo, fverify time.Duration
	yield                               *core.YieldVerification
	fyield                              *filter.YieldResult
	params                              ota.Params
	caps                                filter.Caps
	fprob                               *filter.Problem
	genTimes                            []time.Time
	cacheHits, cacheLookups             int
	fevals                              int
}

// runDesignTask runs one designer request end to end: Table 3 query,
// §4.4 yield verification, §5 filter design and its transistor-level
// yield check. prob is the OTA problem (traced or not); tr records spans.
func runDesignTask(ctx context.Context, sz designSizes, m *core.Model, prob core.CircuitProblem,
	traced *tracedOTA, proc *process.Process, gmNominal float64, t designTask, tr *tracer) (*designTaskResult, error) {
	r := &designTaskResult{}
	root := tr.begin("design.task", 0, int64(t.k+1))
	defer root.end()
	t0 := time.Now()

	sp := tr.begin("core.design_for", root.id, root.trace)
	q0 := time.Now()
	d, err := m.DesignFor(t.spec0, t.spec1)
	r.query = time.Since(q0)
	sp.end()
	if err != nil {
		return nil, fmt.Errorf("DesignFor: %w", err)
	}
	otaProb := core.NewOTAProblem()
	genes, err := otaProb.GenesForDesign(d)
	if err != nil {
		return nil, err
	}
	if r.params, err = otaProb.ParamsFromTableValues(d.Params); err != nil {
		return nil, err
	}

	sp = tr.begin("core.verify", root.id, root.trace)
	if traced != nil {
		traced.under(sp)
	}
	v0 := time.Now()
	r.yield, err = core.VerifyDesignYieldMC(ctx, prob, proc, genes, t.spec0, t.spec1, sz.VerifySamples, t.seed, t.strategy)
	r.verify = time.Since(v0)
	sp.end()
	if err != nil {
		return nil, fmt.Errorf("VerifyDesignYieldMC: %w", err)
	}

	// §5: the filter's transconductors are the designed OTA, reduced to
	// its behavioural (gm, ro) pair for the capacitor MOO.
	cfg := ota.DefaultConfig()
	sp = tr.begin("ota.eval_nominal", root.id, root.trace)
	n0 := time.Now()
	perf, err := cfg.Evaluate(r.params, nil)
	if traced != nil {
		traced.mu.Lock()
		traced.nominal = append(traced.nominal, time.Since(n0))
		traced.mu.Unlock()
	}
	sp.end()
	if err != nil {
		return nil, fmt.Errorf("nominal OTA: %w", err)
	}
	gm, ro := behave.FromPerf(perf, cfg.CLoad)
	r.fprob = &filter.Problem{Spec: filterSpecFor(gm, gmNominal), Space: filter.DefaultCapSpace(), GM: gm, Ro: ro}
	sp = tr.begin("filter.optimize", root.id, root.trace)
	f0 := time.Now()
	opts := filter.OptimizeOptions{PopSize: sz.FilterPop, Generations: sz.FilterGen, Seed: t.filterOptSeed, Workers: sz.Workers}
	if tr != nil {
		opts.Obs = core.ObserverFunc(func(e core.Event) {
			if g, ok := e.(core.GenerationDone); ok {
				r.genTimes = append(r.genTimes, time.Now())
				r.cacheHits, r.cacheLookups = g.CacheHits, g.CacheHits+g.CacheMisses
			}
		})
	}
	opt, err := filter.Optimize(ctx, r.fprob, opts)
	r.fmoo = time.Since(f0)
	sp.end()
	if err != nil {
		return nil, fmt.Errorf("filter.Optimize: %w", err)
	}
	r.caps = opt.Caps
	r.fevals = opt.Evaluations

	sp = tr.begin("filter.verify", root.id, root.trace)
	fv0 := time.Now()
	r.fyield, err = filter.VerifyYieldMC(ctx, opt.Caps, cfg, r.params, r.fprob.Spec, proc, sz.FilterSamples, t.seed, montecarlo.StrategyNaive)
	r.fverify = time.Since(fv0)
	sp.end()
	if err != nil {
		return nil, fmt.Errorf("filter.VerifyYieldMC: %w", err)
	}
	r.total = time.Since(t0)
	return r, nil
}

// pairMeans averages consecutive (naive, is+surrogate) task pairs. The
// two strategies cost differently, so the per-task times are bimodal and
// their median would sit in the gap between the modes; the median of
// pair means is the median seconds per task over whole pairs.
func pairMeans(totals []float64) []float64 {
	var out []float64
	for i := 0; i+1 < len(totals); i += 2 {
		out = append(out, (totals[i]+totals[i+1])/2)
	}
	return out
}

// filterSpecFor scales the Fig 10 template's band edges with the
// designed OTA's transconductance relative to the nominal OTA the
// template was written for: the biquad's ω0 = gm/√(C1C2), so the same
// capacitor space then holds a solution for every designed OTA.
func filterSpecFor(gm, gmNominal float64) filter.Spec {
	s := filter.DefaultSpec()
	k := gm / gmNominal
	s.PassbandEdge *= k
	s.StopbandEdge *= k
	return s
}

// nominalGM is the behavioural transconductance of the nominal OTA.
func nominalGM() (float64, error) {
	cfg := ota.DefaultConfig()
	perf, err := cfg.Evaluate(ota.NominalParams(), nil)
	if err != nil {
		return 0, err
	}
	gm, _ := behave.FromPerf(perf, cfg.CLoad)
	return gm, nil
}

// fingerprint renders the task's outputs that must repeat exactly for
// the same seed: both yields and the circuit-simulation counts.
func (r *designTaskResult) fingerprint() string {
	return fmt.Sprintf("%.17g/%d/%.17g/%d/%d", r.yield.Yield, r.yield.FullEvals,
		r.fyield.Yield, r.fyield.FullEvals, r.fyield.Failed)
}

func runDesignWorkload(e *env) error {
	rep, sz := e.rep, e.sz.design
	proc := process.C35()

	// Set-up, repeated: build the model with a small flow and draw the
	// specs from the seed.
	var res *core.FlowResult
	var tasks []designTask
	var gmNom float64
	var setups []float64
	for i := 0; i < setupRepeats; i++ {
		t0 := time.Now()
		var err error
		if res, err = buildModel(sz.ModelSeed, sz.ModelPop, sz.ModelGen, sz.ModelMC, sz.Workers, proc); err != nil {
			return err
		}
		if tasks, err = drawTasks(res.Model, rand.New(rand.NewSource(e.seed)), sz.Tasks); err != nil {
			return err
		}
		if gmNom, err = nominalGM(); err != nil {
			return err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	lo, hi := res.Model.Domain()
	rep.note("design model: front %d points, gain domain [%.3f, %.3f] dB", len(res.Points), lo, hi)

	ctx := context.Background()
	mem := startMemDelta()
	var totals []float64
	var prints []string
	start := time.Now()
	// All Tasks run, in (naive, is+surrogate) pairs, unless the host is so
	// slow that the run passes twice its window; a pair once begun
	// completes.
	for i := 0; i < len(tasks) && (i%2 == 1 || time.Since(start) < 2*e.seconds); i++ {
		rep.Attempted++
		r, err := runDesignTask(ctx, sz, res.Model, core.NewOTAProblem(), nil, proc, gmNom, tasks[i], nil)
		if err != nil {
			rep.fail("design task %d: %v", i, err)
			continue
		}
		totals = append(totals, r.total.Seconds())
		prints = append(prints, r.fingerprint())
	}
	if err := agreeAcrossRuns(e, fmt.Sprintf("design-%d", e.seed), prints); err != nil {
		rep.fail("design seed %d: %v", e.seed, err)
	}
	pairs := pairMeans(totals)
	if !e.trace {
		finishE2E(rep, setups, median(pairs)*1000, len(pairs), float64(len(totals))/sum(totals), len(totals))
		return nil
	}

	// Traced pass: repeat the first tasks with spans and the evaluation
	// wrapper, then replay the layers on the design's own inputs.
	tr := newTracer()
	n := min(sz.TracedTasks, len(totals))
	tracedTotals, got, err := traceDesign(rep, tr, sz, res.Model, proc, gmNom, tasks[:n])
	if err != nil {
		return err
	}
	mem.report(rep)
	for i, fp := range got {
		if fp != prints[i] {
			rep.fail("traced design task %d: outputs %s differ from the untraced run %s", i, fp, prints[i])
		}
	}
	overhead(rep, median(pairMeans(tracedTotals))*1000, median(pairMeans(totals[:n]))*1000,
		float64(len(tracedTotals))/sum(tracedTotals), float64(n)/sum(totals[:n]), n)

	// The layers the design does not load: the flow stages, by rerunning
	// the set-up flow traced, and the service, on the model it built.
	sub := newReport()
	traceFlow(sub, tr, flowConfig(nil, proc, sz.ModelPop, sz.ModelGen, sz.ModelMC, sz.ModelSeed, sz.Workers, nil),
		e.seed, checkSameModel(res))
	rep.adopt(sub)
	if err := probeServe(e, tr, res); err != nil {
		return err
	}
	return tr.write(e.out, "design", e.seed)
}

// traceDesign runs the given tasks traced and reports the design layers
// (core query and verification, montecarlo IS, filter, the filter's
// wbga, ota evaluations), then replays the circuit, surrogate and filter
// layers on the last task's design. It returns the traced task times
// and the outputs' fingerprints.
func traceDesign(rep *report, tr *tracer, sz designSizes, m *core.Model, proc *process.Process,
	gmNom float64, tasks []designTask) (totals []float64, prints []string, err error) {
	ctx := context.Background()
	prob := newTracedOTA(tr)
	var query, verify, fmoo, fverify, genMS, fullFrac, ess []float64
	var last *designTaskResult
	var lastTask designTask
	evals, hits, lookups := 0, 0, 0
	for _, t := range tasks {
		rep.Attempted++
		r, err := runDesignTask(ctx, sz, m, prob, prob, proc, gmNom, t, tr)
		if err != nil {
			rep.fail("traced design task %d: %v", t.k, err)
			prints = append(prints, "failed")
			continue
		}
		prints = append(prints, r.fingerprint())
		totals = append(totals, r.total.Seconds())
		query = append(query, micros(r.query))
		verify = append(verify, millis(r.verify))
		fmoo = append(fmoo, millis(r.fmoo))
		fverify = append(fverify, millis(r.fverify))
		genMS = append(genMS, spacingMS(r.genTimes)...)
		evals += r.fevals
		hits += r.cacheHits
		lookups += r.cacheLookups
		if t.strategy == montecarlo.StrategyISSurrogate {
			fullFrac = append(fullFrac, float64(r.yield.FullEvals)/float64(r.yield.Samples))
			ess = append(ess, r.yield.ESS)
		}
		last, lastTask = r, t
	}
	if last == nil {
		return nil, nil, fmt.Errorf("no traced design task succeeded")
	}
	rep.set("core.design_query_us", median(query), "us", len(query))
	rep.set("core.verify_ms", median(verify), "ms", len(verify))
	rep.set("montecarlo.full_evals_frac", median(fullFrac), "ratio", len(fullFrac))
	rep.set("montecarlo.ess", median(ess), "count", len(ess))
	rep.set("filter.moo_ms", median(fmoo), "ms", len(fmoo))
	rep.set("filter.verify_ms", median(fverify), "ms", len(fverify))
	rep.set("wbga.evals", float64(evals)/float64(len(fmoo)), "count", len(fmoo))
	rep.set("wbga.gen_ms", median(genMS), "ms", len(genMS))
	rep.set("wbga.cache_hit_ratio", ratio(hits, lookups), "ratio", lookups)
	prob.reportEvals(rep)

	var cases []evalCase
	for i := 0; i < 48; i++ {
		cases = append(cases, evalCase{params: last.params, seed: lastTask.seed, index: i})
	}
	layerSum := replayCircuit(rep, tr, proc, cases)
	reportUnexplained(rep, layerSum)
	replaySurrogate(rep, tr, proc, last.params, lastTask.seed)
	replayFilter(rep, tr, last.fprob, last.caps, last.params, proc, lastTask.seed, rand.New(rand.NewSource(lastTask.seed)))
	return totals, prints, nil
}
