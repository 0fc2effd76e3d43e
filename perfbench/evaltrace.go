package main

import (
	"sync"
	"sync/atomic"
	"time"

	"analogyield/internal/analysis"
	"analogyield/internal/core"
	"analogyield/internal/process"
)

// tracedOTA wraps the OTA problem so each circuit evaluation is timed
// from outside the ota layer. It keeps the workspace path: EvaluateWS is
// forwarded, so the flow still hands every worker its long-lived solver
// workspace (core.WorkspaceEvaluator).
type tracedOTA struct {
	*core.OTAProblem
	tr *tracer
	// parent is the span the next evaluation hangs under (the current
	// flow stage or design step); trace is its trace ID.
	parent, trace atomic.Int64

	mu      sync.Mutex
	nominal []time.Duration
	mc      []time.Duration
	mcSum   time.Duration
}

var _ core.WorkspaceEvaluator = (*tracedOTA)(nil)

func newTracedOTA(tr *tracer) *tracedOTA {
	return &tracedOTA{OTAProblem: core.NewOTAProblem(), tr: tr}
}

// under sets the span the following evaluations belong to.
func (p *tracedOTA) under(a active) {
	p.parent.Store(a.id)
	p.trace.Store(a.trace)
}

func (p *tracedOTA) Evaluate(genes []float64, s *process.Sample) ([]float64, error) {
	return p.EvaluateWS(genes, s, nil)
}

func (p *tracedOTA) EvaluateWS(genes []float64, s *process.Sample, ws *analysis.Workspace) ([]float64, error) {
	name := "ota.eval_nominal"
	if s != nil {
		name = "ota.eval_mc"
	}
	sp := p.tr.begin(name, p.parent.Load(), p.trace.Load())
	t0 := time.Now()
	out, err := p.OTAProblem.EvaluateWS(genes, s, ws)
	d := time.Since(t0)
	sp.end()
	p.mu.Lock()
	if s == nil {
		p.nominal = append(p.nominal, d)
	} else {
		p.mc = append(p.mc, d)
		p.mcSum += d
	}
	p.mu.Unlock()
	return out, err
}

// reportEvals sets the ota.* evaluation metrics.
func (p *tracedOTA) reportEvals(rep *report) {
	p.mu.Lock()
	defer p.mu.Unlock()
	nom, mc := durUS(p.nominal), durUS(p.mc)
	rep.set("ota.eval_nominal_us", median(nom), "us", len(nom))
	rep.set("ota.eval_mc_us", median(mc), "us", len(mc))
	rep.set("ota.evals_mc", float64(len(mc)), "count", len(mc))
	rep.set("ota.eval_mc_p99_us", p99(mc), "us", len(mc))
}

func durUS(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = micros(d)
	}
	return out
}
