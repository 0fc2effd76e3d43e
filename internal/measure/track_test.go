package measure

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"analogyield/internal/num"
)

// TestPhaseAtMatchesReference pins the incremental PhaseAt bit for bit
// against the earlier body, which unwrapped the whole sweep first, on
// random sweeps whose phase wraps many times, at random frequencies,
// at the grid points themselves and at the ends.
func TestPhaseAtMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 2000; trial++ {
		n := 2 + rng.Intn(100)
		freqs := num.Logspace(math.Pow(10, 4*rng.Float64()), 1e10, n)
		tf := make([]complex128, n)
		for i := range tf {
			mag := math.Pow(10, 6*rng.NormFloat64())
			tf[i] = complex(mag*rng.NormFloat64(), mag*rng.NormFloat64())
			switch rng.Intn(40) {
			case 0:
				tf[i] = complex(math.NaN(), 0)
			case 1:
				tf[i] = 0
			case 2:
				tf[i] = complex(math.Inf(1), 1)
			}
		}
		lf0, lf1 := math.Log10(freqs[0]), math.Log10(freqs[n-1])
		probes := []float64{freqs[0], freqs[n-1], freqs[rng.Intn(n)], freqs[0] / 2, freqs[n-1] * 2}
		for k := 0; k < 8; k++ {
			probes = append(probes, math.Pow(10, lf0+rng.Float64()*(lf1-lf0)))
		}
		for _, f := range probes {
			got, gerr := PhaseAt(freqs, tf, f)
			want, werr := referencePhaseAt(freqs, tf, f)
			if fmt.Sprint(gerr) != fmt.Sprint(werr) {
				t.Fatalf("trial %d f=%g: error %v, reference %v", trial, f, gerr, werr)
			}
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("trial %d f=%g: phase %v, reference %v", trial, f, got, want)
			}
		}
	}
}

func TestPhaseAtAllocs(t *testing.T) {
	fs := sweep()
	tf := twoPole(fs, 1000, 1e3, 1e5)
	if n := testing.AllocsPerRun(100, func() {
		if _, err := PhaseAt(fs, tf, 3e8); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("PhaseAt allocates %v objects per call, want 0", n)
	}
}

// figures are the four open-loop measurements of one sweep, with each
// error as text.
type figures struct {
	dc                  float64
	fu, pm, bw          float64
	fuErr, pmErr, bwErr string
}

func measureAll(freqs []float64, tf []complex128) figures {
	var r figures
	var err error
	errText := func(err error) string {
		if err == nil {
			return ""
		}
		return err.Error()
	}
	r.dc = DCGainDB(tf)
	r.fu, err = UnityGainFreq(freqs, tf)
	r.fuErr = errText(err)
	r.pm, err = PhaseMarginDeg(freqs, tf)
	r.pmErr = errText(err)
	r.bw, err = Bandwidth3dB(freqs, tf)
	r.bwErr = errText(err)
	return r
}

// trackedPrefix feeds a sweep to a SweepTracker and returns how many
// points it took before the tracker stopped (all of them if it never
// did).
func trackedPrefix(freqs []float64, tf []complex128) int {
	var tr SweepTracker
	for i := range tf {
		if !tr.Add(freqs[i], tf[i]) {
			return i + 1
		}
	}
	return len(tf)
}

// checkPrefix fails unless the measurements on the tracker's prefix
// equal those on the whole sweep, bit for bit and error text included,
// under SweepTracker's contract: after a non-finite first point only
// DCGainDB is fixed, after one below 0 dB everything but Bandwidth3dB.
func checkPrefix(t *testing.T, name string, freqs []float64, tf []complex128) int {
	t.Helper()
	m := trackedPrefix(freqs, tf)
	got, want := measureAll(freqs[:m], tf[:m]), measureAll(freqs, tf)
	same := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	if !same(got.dc, want.dc) {
		t.Fatalf("%s (prefix %d of %d): DCGainDB %v, full sweep %v", name, m, len(tf), got.dc, want.dc)
	}
	if math.IsNaN(want.dc) || math.IsInf(want.dc, 0) {
		return m
	}
	if !same(got.fu, want.fu) || got.fuErr != want.fuErr {
		t.Fatalf("%s (prefix %d of %d): UnityGainFreq %v %q, full sweep %v %q", name, m, len(tf), got.fu, got.fuErr, want.fu, want.fuErr)
	}
	if !same(got.pm, want.pm) || got.pmErr != want.pmErr {
		t.Fatalf("%s (prefix %d of %d): PhaseMarginDeg %v %q, full sweep %v %q", name, m, len(tf), got.pm, got.pmErr, want.pm, want.pmErr)
	}
	if want.dc < 0 {
		return m
	}
	if !same(got.bw, want.bw) || got.bwErr != want.bwErr {
		t.Fatalf("%s (prefix %d of %d): Bandwidth3dB %v %q, full sweep %v %q", name, m, len(tf), got.bw, got.bwErr, want.bw, want.bwErr)
	}
	return m
}

// TestSweepTrackerEdges walks the tracker through each way a sweep's
// figures get fixed or fail, checking where it stops and that the
// prefix measures as the whole sweep does.
func TestSweepTrackerEdges(t *testing.T) {
	fs := num.Logspace(100, 1e9, 71)
	n := len(fs)
	db := func(g float64) complex128 { return complex(math.Pow(10, g/20), 0) }
	withAt := func(tf []complex128, i int, v complex128) []complex128 {
		out := append([]complex128(nil), tf...)
		out[i] = v
		return out
	}
	// An f_u that rounds above the point that brackets it: a gain far
	// above 0 dB followed by one just below makes the interpolation
	// weight exactly 1, and on some grid intervals 10^(lf0+(lf1−lf0))
	// rounds above f1.
	hi, lo := 100.0, GainDB(complex(1-0x1p-53, 0))
	iu := -1
	for i := 1; i < n-1; i++ {
		if fu := interpLog(fs[i-1], fs[i], hi, lo, 0); fu > fs[i] {
			iu = i
			break
		}
	}
	if iu < 0 {
		t.Fatal("no grid interval where f_u rounds above its bracket")
	}
	above := make([]complex128, n)
	for i := range above {
		switch {
		case i < iu:
			above[i] = db(hi)
		case i == iu:
			above[i] = complex(1-0x1p-53, 0)
		default:
			above[i] = db(-20)
		}
	}
	for _, tc := range []struct {
		name    string
		tf      []complex128
		wantLen int // points the tracker takes; 0 = the whole sweep
		check   func(t *testing.T, full figures)
	}{
		{name: "two-pole amplifier", tf: twoPole(fs, 300, 3e3, 3e7),
			check: func(t *testing.T, full figures) {
				if full.pmErr != "" || full.bwErr != "" {
					t.Errorf("want a clean measurement, got %q %q", full.pmErr, full.bwErr)
				}
			}},
		{name: "DC gain below 0 dB", tf: onePole(fs, 0.5, 1e4), wantLen: 1,
			check: func(t *testing.T, full figures) {
				if !strings.Contains(full.pmErr, "below 0 dB at 100 Hz") {
					t.Errorf("error %q, want the below-0 dB failure", full.pmErr)
				}
			}},
		{name: "DC gain in (0, 3) dB", tf: onePole(fs, math.Pow(10, 1.5/20), 1e5),
			check: func(t *testing.T, full figures) {
				if !(full.fu < full.bw) {
					t.Errorf("f_u %g, −3 dB %g: want the −3 dB crossing after unity", full.fu, full.bw)
				}
			}},
		{name: "no unity crossing in range", tf: onePole(fs, 1e4, 1e6), wantLen: n,
			check: func(t *testing.T, full figures) {
				if !strings.Contains(full.pmErr, "above 1e+09 Hz") {
					t.Errorf("error %q, want it to name the last frequency", full.pmErr)
				}
			}},
		{name: "NaN at point 0", tf: withAt(onePole(fs, 300, 1e4), 0, complex(math.NaN(), 0)), wantLen: 1},
		{name: "Inf at point 0", tf: withAt(onePole(fs, 300, 1e4), 0, complex(math.Inf(1), 0)), wantLen: 1},
		{name: "zero at point 0", tf: withAt(onePole(fs, 300, 1e4), 0, 0), wantLen: 1},
		// |H| = 1 near 3 MHz, between points 44 and 45.
		{name: "Inf just before the crossing", tf: withAt(onePole(fs, 300, 1e4), 44, complex(math.Inf(1), 0)),
			check: func(t *testing.T, full figures) {
				if !strings.Contains(full.pmErr, "not finite") {
					t.Errorf("error %q, want the non-finite crossing", full.pmErr)
				}
			}},
		{name: "f_u rounds above its bracket", tf: above, wantLen: iu + 2,
			check: func(t *testing.T, full figures) {
				if !(full.fu > fs[iu]) {
					t.Errorf("f_u %v does not round above %v", full.fu, fs[iu])
				}
			}},
	} {
		m := checkPrefix(t, tc.name, fs, tc.tf)
		if tc.wantLen != 0 && m != tc.wantLen {
			t.Errorf("%s: tracker took %d points, want %d", tc.name, m, tc.wantLen)
		}
		if tc.wantLen == 0 && m >= n {
			t.Errorf("%s: tracker took the whole sweep, want it to stop early", tc.name)
		}
		if tc.check != nil {
			tc.check(t, measureAll(fs, tc.tf))
		}
	}
}

// FuzzSweepPrefixMatchesFull: on synthetic two-pole sweeps, with one
// point replaced by a hostile value, the four measurements of the
// tracker's prefix equal those of the whole sweep, bit for bit.
func FuzzSweepPrefixMatchesFull(f *testing.F) {
	f.Add(300.0, 3e3, 3e7, uint8(71), uint8(0), uint8(0))
	f.Add(0.5, 1e4, 1e8, uint8(71), uint8(0), uint8(0))
	f.Add(1.2, 1e5, 1e9, uint8(40), uint8(0), uint8(0))
	f.Add(1e4, 1e6, 1e9, uint8(71), uint8(0), uint8(0))
	f.Add(300.0, 3e3, 3e7, uint8(71), uint8(0), uint8(1))
	f.Add(300.0, 3e3, 3e7, uint8(71), uint8(30), uint8(2))
	f.Add(300.0, 3e3, 3e7, uint8(71), uint8(31), uint8(3))
	f.Add(300.0, 3e3, 3e7, uint8(71), uint8(20), uint8(4))
	f.Add(300.0, 3e3, 3e7, uint8(71), uint8(32), uint8(5))
	f.Add(-300.0, 1e2, 1e3, uint8(12), uint8(5), uint8(6))
	f.Fuzz(func(t *testing.T, a0, fp1, fp2 float64, npts, at, kind uint8) {
		n := 2 + int(npts)%199
		fs := num.Logspace(100, 1e9, n)
		tf := twoPole(fs, a0, fp1, fp2)
		i := int(at) % n
		switch kind % 8 {
		case 1:
			tf[i] = complex(math.NaN(), 0)
		case 2:
			tf[i] = complex(math.Inf(1), 0)
		case 3:
			tf[i] = 0
		case 4:
			tf[i] = -tf[i]
		case 5:
			tf[i] = complex(1-0x1p-53, 0) // just below 0 dB
		case 6:
			tf[i] = complex(0, 1e300)
		case 7:
			tf[i] = 1 // exactly 0 dB
		}
		checkPrefix(t, "fuzz", fs, tf)
	})
}
