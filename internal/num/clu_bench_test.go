package num_test

import (
	"math"
	"testing"

	"analogyield/internal/analysis"
	"analogyield/internal/circuit"
	"analogyield/internal/num"
	"analogyield/internal/ota"
)

// BenchmarkCRefactorIntoOTA times the complex refactorisations of one
// OTA open-loop AC sweep (20 points per decade, 100 Hz to 1 GHz) against
// the sweep's first-point reference, the way analysis runs them. The
// systems are assembled before the timer starts.
func BenchmarkCRefactorIntoOTA(b *testing.B) {
	n := ota.DefaultConfig().Build(ota.NominalParams(), nil)
	op, err := analysis.OP(n, nil)
	if err != nil {
		b.Fatal(err)
	}
	freqs, err := analysis.DecadeFreqs(100, 1e9, 20)
	if err != nil {
		b.Fatal(err)
	}
	var lin circuit.ACStamps
	lin.Linearise(n, op.X)
	nu := lin.Order()
	systems := make([]*num.CMatrix, len(freqs))
	rhs := make([]complex128, nu)
	for i, f := range freqs {
		systems[i] = num.NewCMatrix(nu)
		lin.Assemble(2*math.Pi*f, systems[i], rhs)
		for j := 0; j < n.NumNodes(); j++ {
			systems[i].Add(j, j, complex(1e-12, 0))
		}
	}
	ref, err := num.CFactor(systems[0])
	if err != nil {
		b.Fatal(err)
	}
	f := num.NewCLU(nu)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, a := range systems {
			if _, err := f.RefactorInto(a, ref); err != nil {
				b.Fatal(err)
			}
		}
	}
}
