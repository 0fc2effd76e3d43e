package main

import (
	"fmt"
	"math/rand"

	"analogyield/internal/core"
	"analogyield/internal/process"
)

// A traced run reports every layer, including those its workload does
// not load. Those are measured by a short probe of the workload that
// does load them, run on the model this run built and on inputs drawn
// from its seed; the workload's own measurement of a metric always wins
// (report.adopt). The flow layers need no probe: design and serve rerun
// their set-up flow traced (traceFlow).

// probeDesign makes ProbeTasks design requests of the model, traced,
// and checks that every run of the seed gets the same outputs.
func probeDesign(e *env, tr *tracer, m *core.Model, proc *process.Process, workload string) error {
	sz := e.sz.design
	gmNom, err := nominalGM()
	if err != nil {
		return err
	}
	tasks, err := drawTasks(m, rand.New(rand.NewSource(e.seed)), sz.ProbeTasks)
	if err != nil {
		return fmt.Errorf("design probe: %w", err)
	}
	sub := newReport()
	_, prints, err := traceDesign(sub, tr, sz, m, proc, gmNom, tasks)
	if err != nil {
		return fmt.Errorf("design probe: %w", err)
	}
	if err := agreeAcrossRuns(e, fmt.Sprintf("designprobe-%s-%d", workload, e.seed), prints); err != nil {
		sub.fail("design probe: %v", err)
	}
	e.rep.adopt(sub)
	return nil
}

// probeServe serves models derived from the flow's front and drives
// them for ProbeWindow with spans around every wire request.
func probeServe(e *env, tr *tracer, res *core.FlowResult) error {
	sz := e.sz.serve
	// Two rounds, so each phase outlasts the first due control requests.
	sz.Rounds = min(sz.Rounds, 2)
	b, err := setupServe(e, sz, rand.New(rand.NewSource(e.seed)), res)
	if err != nil {
		return fmt.Errorf("serve probe: %w", err)
	}
	defer b.close()
	b.tr = tr
	sub := newReport()
	c0, i0 := b.srv.Registry().QueryStats()
	run := b.runPhases(sz.ProbeWindow)
	c1, i1 := b.srv.Registry().QueryStats()
	b.account(sub)
	if err := b.layers(sub, run, c1-c0, i1-i0); err != nil {
		return fmt.Errorf("serve probe: %w", err)
	}
	e.rep.adopt(sub)
	return nil
}
