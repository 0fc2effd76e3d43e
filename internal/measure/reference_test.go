package measure

import (
	"fmt"
	"math"
)

// referencePhaseAt is PhaseAt as it stood before it unwrapped
// incrementally: it unwraps the whole sweep with referenceUnwrap (the
// earlier UnwrapPhaseDeg body) and interpolates in the result. It is
// kept only as the reference the bit-identity tests compare against.
func referencePhaseAt(freqs []float64, tf []complex128, f float64) (float64, error) {
	if len(freqs) != len(tf) || len(freqs) < 2 {
		return 0, fmt.Errorf("measure: need matching sweeps of >= 2 points")
	}
	if f < freqs[0] || f > freqs[len(freqs)-1] {
		return 0, fmt.Errorf("%w: %g Hz outside sweep", ErrNotFound, f)
	}
	ph := referenceUnwrap(tf)
	for i := 1; i < len(freqs); i++ {
		if f <= freqs[i] {
			lf0, lf1 := math.Log10(freqs[i-1]), math.Log10(freqs[i])
			t := 0.0
			if lf1 > lf0 {
				t = (math.Log10(f) - lf0) / (lf1 - lf0)
			}
			return ph[i-1] + t*(ph[i]-ph[i-1]), nil
		}
	}
	return ph[len(ph)-1], nil
}

func referenceUnwrap(tf []complex128) []float64 {
	out := make([]float64, len(tf))
	if len(tf) == 0 {
		return out
	}
	out[0] = PhaseDeg(tf[0])
	for i := 1; i < len(tf); i++ {
		p := PhaseDeg(tf[i])
		prev := out[i-1]
		for p-prev > 180 {
			p -= 360
		}
		for p-prev < -180 {
			p += 360
		}
		out[i] = p
	}
	return out
}
