// Package measure extracts scalar performance figures from frequency-
// and time-domain simulation results: gain in dB, unity-gain frequency,
// phase margin, gain margin and −3 dB bandwidth. These are the
// performance functions of the paper's objective set (open-loop gain and
// phase margin for the OTA).
package measure

import (
	"errors"
	"fmt"
	"math"
	"math/cmplx"
)

// ErrNotFound is returned when a crossing (unity gain, −3 dB, −180°)
// does not occur within the swept range.
var ErrNotFound = errors.New("measure: crossing not found in swept range")

// GainDB converts a complex transfer value to decibels (20·log10|H|).
func GainDB(h complex128) float64 {
	return 20 * math.Log10(cmplx.Abs(h))
}

// PhaseDeg returns the principal-value phase of h in degrees (−180, 180].
func PhaseDeg(h complex128) float64 {
	return cmplx.Phase(h) * 180 / math.Pi
}

// UnwrapPhaseDeg converts a transfer-function sweep to a continuous
// phase curve in degrees, removing ±360° jumps between adjacent points.
func UnwrapPhaseDeg(tf []complex128) []float64 {
	out := make([]float64, len(tf))
	if len(tf) == 0 {
		return out
	}
	out[0] = PhaseDeg(tf[0])
	for i := 1; i < len(tf); i++ {
		out[i] = unwrapNext(out[i-1], tf[i])
	}
	return out
}

// unwrapNext returns the unwrapped phase (degrees) of h given the
// unwrapped phase prev of the point before it: each point depends only
// on the points before it, so a sweep can be unwrapped as it goes.
func unwrapNext(prev float64, h complex128) float64 {
	p := PhaseDeg(h)
	for p-prev > 180 {
		p -= 360
	}
	for p-prev < -180 {
		p += 360
	}
	return p
}

// DCGainDB returns the gain of the lowest-frequency point in dB. The
// sweep must start well below the first pole for this to approximate the
// true DC gain.
func DCGainDB(tf []complex128) float64 {
	if len(tf) == 0 {
		return math.Inf(-1)
	}
	return GainDB(tf[0])
}

// interpLog linearly interpolates y over log10(f) between two sweep
// points to the location where y crosses target.
func interpLog(f0, f1, y0, y1, target float64) float64 {
	if y1 == y0 {
		return math.Sqrt(f0 * f1)
	}
	t := (target - y0) / (y1 - y0)
	return math.Pow(10, math.Log10(f0)+t*(math.Log10(f1)-math.Log10(f0)))
}

// UnityGainFreq returns the frequency at which |H| first crosses 1
// (0 dB), interpolating between sweep points on a log-frequency/dB grid.
// A first point already below 0 dB fails on its own, so a one-point
// sweep reports that too. A crossing that interpolates to a non-finite
// frequency (an infinite gain next to it) is not found.
func UnityGainFreq(freqs []float64, tf []complex128) (float64, error) {
	if len(freqs) != len(tf) || len(freqs) == 0 {
		return 0, fmt.Errorf("measure: need matching sweeps of >= 2 points")
	}
	prev := GainDB(tf[0])
	if prev < 0 {
		return 0, fmt.Errorf("%w: gain already below 0 dB at %g Hz", ErrNotFound, freqs[0])
	}
	if len(freqs) < 2 {
		return 0, fmt.Errorf("measure: need matching sweeps of >= 2 points")
	}
	for i := 1; i < len(freqs); i++ {
		g := GainDB(tf[i])
		if prev >= 0 && g < 0 {
			return unityCrossing(freqs[i-1], freqs[i], prev, g)
		}
		prev = g
	}
	return 0, fmt.Errorf("%w: unity-gain crossing above %g Hz", ErrNotFound, freqs[len(freqs)-1])
}

// unityCrossing interpolates the 0 dB crossing between the sweep points
// (f0, g0 dB) and (f1, g1 dB), with g0 >= 0 > g1.
func unityCrossing(f0, f1, g0, g1 float64) (float64, error) {
	fu := interpLog(f0, f1, g0, g1, 0)
	if math.IsNaN(fu) || math.IsInf(fu, 0) {
		return 0, fmt.Errorf("%w: unity-gain crossing between %g and %g Hz is not finite", ErrNotFound, f0, f1)
	}
	return fu, nil
}

// PhaseAt returns the unwrapped phase (degrees) interpolated at
// frequency f on a log-frequency grid. It unwraps the sweep only up to
// the first point at or above f; unwrapping is causal, so that gives
// the bits UnwrapPhaseDeg of the whole sweep would.
func PhaseAt(freqs []float64, tf []complex128, f float64) (float64, error) {
	if len(freqs) != len(tf) || len(freqs) < 2 {
		return 0, fmt.Errorf("measure: need matching sweeps of >= 2 points")
	}
	if math.IsNaN(f) || math.IsInf(f, 0) {
		return 0, fmt.Errorf("%w: phase at non-finite frequency %g", ErrNotFound, f)
	}
	if f < freqs[0] || f > freqs[len(freqs)-1] {
		return 0, fmt.Errorf("%w: %g Hz outside sweep", ErrNotFound, f)
	}
	prev := PhaseDeg(tf[0])
	for i := 1; i < len(freqs); i++ {
		ph := unwrapNext(prev, tf[i])
		if f <= freqs[i] {
			lf0, lf1 := math.Log10(freqs[i-1]), math.Log10(freqs[i])
			t := 0.0
			if lf1 > lf0 {
				t = (math.Log10(f) - lf0) / (lf1 - lf0)
			}
			return prev + t*(ph-prev), nil
		}
		prev = ph
	}
	return prev, nil
}

// PhaseMarginDeg returns 180° + phase at the unity-gain frequency, the
// classic stability margin of a negative-feedback loop whose open-loop
// response is tf. For an inverting amplifier measured as Vout/Vin the
// caller should pass the loop gain (i.e. −H); InvertingPhaseMargin
// handles that common case.
func PhaseMarginDeg(freqs []float64, tf []complex128) (float64, error) {
	fu, err := UnityGainFreq(freqs, tf)
	if err != nil {
		return 0, err
	}
	ph, err := PhaseAt(freqs, tf, fu)
	if err != nil {
		return 0, err
	}
	return 180 + ph, nil
}

// InvertingPhaseMargin computes the phase margin of a loop built around
// an inverting amplifier whose measured response is tf = Vout/Vin
// (DC phase ≈ ±180°). The loop gain is −tf, so each point is negated
// before the margin is evaluated.
func InvertingPhaseMargin(freqs []float64, tf []complex128) (float64, error) {
	neg := make([]complex128, len(tf))
	for i, h := range tf {
		neg[i] = -h
	}
	return PhaseMarginDeg(freqs, neg)
}

// GainMarginDB returns −gain(dB) at the frequency where the unwrapped
// phase crosses −180°.
func GainMarginDB(freqs []float64, tf []complex128) (float64, error) {
	if len(freqs) != len(tf) || len(freqs) < 2 {
		return 0, fmt.Errorf("measure: need matching sweeps of >= 2 points")
	}
	ph := UnwrapPhaseDeg(tf)
	for i := 1; i < len(freqs); i++ {
		if (ph[i-1] > -180 && ph[i] <= -180) || (ph[i-1] < -180 && ph[i] >= -180) {
			f := interpLog(freqs[i-1], freqs[i], ph[i-1], ph[i], -180)
			g0, g1 := GainDB(tf[i-1]), GainDB(tf[i])
			lf0, lf1 := math.Log10(freqs[i-1]), math.Log10(freqs[i])
			t := 0.0
			if lf1 > lf0 {
				t = (math.Log10(f) - lf0) / (lf1 - lf0)
			}
			return -(g0 + t*(g1-g0)), nil
		}
	}
	return 0, fmt.Errorf("%w: no −180° phase crossing", ErrNotFound)
}

// Bandwidth3dB returns the frequency where the gain first falls 3 dB
// below the lowest-frequency gain.
func Bandwidth3dB(freqs []float64, tf []complex128) (float64, error) {
	if len(freqs) != len(tf) || len(freqs) < 2 {
		return 0, fmt.Errorf("measure: need matching sweeps of >= 2 points")
	}
	ref := GainDB(tf[0]) - 3
	prev := GainDB(tf[0])
	for i := 1; i < len(freqs); i++ {
		g := GainDB(tf[i])
		if prev >= ref && g < ref {
			return interpLog(freqs[i-1], freqs[i], prev, g, ref), nil
		}
		prev = g
	}
	return 0, fmt.Errorf("%w: response never falls 3 dB", ErrNotFound)
}

// GainAt returns the gain in dB interpolated at frequency f.
func GainAt(freqs []float64, tf []complex128, f float64) (float64, error) {
	if len(freqs) != len(tf) || len(freqs) < 2 {
		return 0, fmt.Errorf("measure: need matching sweeps of >= 2 points")
	}
	if f < freqs[0] || f > freqs[len(freqs)-1] {
		return 0, fmt.Errorf("%w: %g Hz outside sweep", ErrNotFound, f)
	}
	for i := 1; i < len(freqs); i++ {
		if f <= freqs[i] {
			g0, g1 := GainDB(tf[i-1]), GainDB(tf[i])
			lf0, lf1 := math.Log10(freqs[i-1]), math.Log10(freqs[i])
			t := 0.0
			if lf1 > lf0 {
				t = (math.Log10(f) - lf0) / (lf1 - lf0)
			}
			return g0 + t*(g1-g0), nil
		}
	}
	return GainDB(tf[len(tf)-1]), nil
}

// Peak returns the maximum gain (dB) over the sweep and its frequency.
func Peak(freqs []float64, tf []complex128) (f float64, gainDB float64) {
	best := math.Inf(-1)
	for i, h := range tf {
		if g := GainDB(h); g > best {
			best, f = g, freqs[i]
		}
	}
	return f, best
}

// SlewRate returns the maximum |dv/dt| of a sampled waveform (V/s), the
// classic large-signal speed figure of a buffer step response.
func SlewRate(times, vs []float64) (float64, error) {
	if len(times) != len(vs) || len(times) < 2 {
		return 0, fmt.Errorf("measure: need matching waveforms of >= 2 points")
	}
	best := 0.0
	for i := 1; i < len(times); i++ {
		dt := times[i] - times[i-1]
		if dt <= 0 {
			continue
		}
		if r := math.Abs(vs[i]-vs[i-1]) / dt; r > best {
			best = r
		}
	}
	return best, nil
}

// SettlingTime returns the time after tEdge at which the waveform enters
// and stays within ±tol of its final value.
func SettlingTime(times, vs []float64, tEdge, tol float64) (float64, error) {
	if len(times) != len(vs) || len(times) < 2 {
		return 0, fmt.Errorf("measure: need matching waveforms of >= 2 points")
	}
	final := vs[len(vs)-1]
	settled := -1.0
	for i := range times {
		if times[i] < tEdge {
			continue
		}
		if math.Abs(vs[i]-final) <= tol {
			if settled < 0 {
				settled = times[i]
			}
		} else {
			settled = -1
		}
	}
	if settled < 0 {
		return 0, fmt.Errorf("%w: waveform never settles within %g", ErrNotFound, tol)
	}
	return settled - tEdge, nil
}

// TransitionSlew measures the slew rate of a step transition as the
// average dv/dt between the 20% and 80% crossing levels of the excursion
// from v0 to v1. Unlike the raw maximum derivative (SlewRate), this is
// immune to capacitive feedthrough spikes at the driving edge.
func TransitionSlew(times, vs []float64, v0, v1 float64) (float64, error) {
	if len(times) != len(vs) || len(times) < 2 {
		return 0, fmt.Errorf("measure: need matching waveforms of >= 2 points")
	}
	lo := v0 + 0.2*(v1-v0)
	hi := v0 + 0.8*(v1-v0)
	// First crossing of the 80% level...
	tHi := math.NaN()
	iHi := -1
	for i := 1; i < len(times); i++ {
		if crossed(vs[i-1], vs[i], hi) {
			tHi = crossTime(times[i-1], times[i], vs[i-1], vs[i], hi)
			iHi = i
			break
		}
	}
	if math.IsNaN(tHi) {
		return 0, fmt.Errorf("%w: transition levels not crossed", ErrNotFound)
	}
	// ...and the *latest* 20% crossing before it, so a brief feedthrough
	// spike through the low level early on does not fake a long edge.
	tLo := math.NaN()
	for i := iHi; i >= 1; i-- {
		if crossed(vs[i-1], vs[i], lo) {
			tLo = crossTime(times[i-1], times[i], vs[i-1], vs[i], lo)
			break
		}
	}
	if math.IsNaN(tLo) || tHi <= tLo {
		return 0, fmt.Errorf("%w: transition levels not crossed", ErrNotFound)
	}
	return math.Abs(hi-lo) / (tHi - tLo), nil
}

func crossed(a, b, level float64) bool {
	return (a <= level && level <= b) || (b <= level && level <= a)
}

func crossTime(t0, t1, v0, v1, level float64) float64 {
	if v1 == v0 {
		return t0
	}
	return t0 + (t1-t0)*(level-v0)/(v1-v0)
}
