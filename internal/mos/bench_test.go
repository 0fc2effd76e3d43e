package mos

import "testing"

// sink keeps the compiler from discarding benchmarked evaluations.
var sink OP

// BenchmarkEval times one full operating-point evaluation in each
// region of the model.
func BenchmarkEval(b *testing.B) {
	n, p := NominalNMOS(), NominalPMOS()
	cases := []struct {
		name           string
		p              Params
		vg, vd, vs, vb float64
	}{
		{"nmos-saturation", n, 1.0, 2.0, 0, 0},
		{"pmos-saturation", p, 1.8, 1.0, 3.3, 3.3},
		{"nmos-triode", n, 2.0, 0.05, 0, 0},
		{"nmos-subthreshold", n, 0.3, 1.5, 0, 0},
		{"nmos-swapped", n, 1.5, 0, 0.5, 0},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				sink = c.p.Eval(10e-6, 1e-6, c.vg, c.vd, c.vs, c.vb)
			}
		})
	}
}
