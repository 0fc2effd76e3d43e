package measure

import "math"

// SweepTracker decides, one sweep point at a time, when the points fed
// so far fix the open-loop figures DCGainDB, UnityGainFreq,
// PhaseMarginDeg and Bandwidth3dB. Once Add returns false, each of them
// computed on the points fed so far equals the same function on the
// whole sweep, bit for bit and error text included, whatever points
// follow. The frequencies must ascend, as a sweep's do.
//
// Each function reads a sweep only up to a first crossing:
// UnityGainFreq up to its 0 dB crossing, Bandwidth3dB up to its −3 dB
// crossing, and PhaseMarginDeg, through PhaseAt, up to the first point
// at or above f_u (unwrapping is causal). Add stops once all three are
// reached, or once the first point already decides the evaluation: a
// non-finite gain (DCGainDB is degenerate) or one below 0 dB
// (UnityGainFreq and PhaseMarginDeg fail). In those two cases the
// figures after the failing one are not fixed; a caller reads none of
// them.
//
// The zero value is ready for a sweep; Reset readies it for the next.
// Add must not be called again after it has returned false.
type SweepTracker struct {
	started      bool    // point 0 has been fed
	ref          float64 // Bandwidth3dB's level: point 0's gain − 3 dB
	prevF, prevG float64 // frequency (Hz) and gain (dB) of the last point
	fu           float64 // the unity-gain crossing, once unity is set
	unity        bool    // the first 0 dB crossing has been met
	fuBad        bool    // ... and interpolated to a non-finite frequency
	bw           bool    // the first −3 dB crossing has been met
}

// Reset readies t for a new sweep.
func (t *SweepTracker) Reset() { *t = SweepTracker{} }

// Add feeds the next sweep point, h at f Hz, and reports whether the
// figures may still depend on points after it.
func (t *SweepTracker) Add(f float64, h complex128) bool {
	g := GainDB(h)
	if !t.started {
		t.started = true
		t.ref, t.prevF, t.prevG = g-3, f, g
		return !(math.IsNaN(g) || math.IsInf(g, 0) || g < 0)
	}
	// The same tests, on the same values, as the loops of UnityGainFreq
	// and Bandwidth3dB.
	if !t.unity && t.prevG >= 0 && g < 0 {
		var err error
		t.unity = true
		t.fu, err = unityCrossing(t.prevF, f, t.prevG, g)
		t.fuBad = err != nil
	}
	if !t.bw && t.prevG >= t.ref && g < t.ref {
		t.bw = true
	}
	t.prevF, t.prevG = f, g
	return !(t.bw && t.unity && (t.fuBad || f >= t.fu))
}
