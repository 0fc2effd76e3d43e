package ota

import (
	"testing"

	"analogyield/internal/analysis"
)

// BenchmarkEvaluate times one full objective evaluation (OP + AC sweep +
// measurements) — the unit cost of the paper's 10,000-sample MOO.
func BenchmarkEvaluate(b *testing.B) {
	c := DefaultConfig()
	p := NominalParams()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := c.Evaluate(p, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEvaluateWS is BenchmarkEvaluate through one reused workspace,
// the way every WBGA and Monte Carlo worker evaluates: the testbench is
// built once and re-sized per evaluation.
func BenchmarkEvaluateWS(b *testing.B) {
	c := DefaultConfig()
	p := NominalParams()
	ws := analysis.NewWorkspace()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := c.EvaluateWS(p, nil, ws); err != nil {
			b.Fatal(err)
		}
	}
}
