package measure

import (
	"errors"
	"math"
	"math/cmplx"
	"testing"

	"analogyield/internal/num"
)

// onePole builds H(f) = A0 / (1 + j f/fp).
func onePole(freqs []float64, a0, fp float64) []complex128 {
	out := make([]complex128, len(freqs))
	for i, f := range freqs {
		out[i] = complex(a0, 0) / complex(1, f/fp)
	}
	return out
}

// twoPole builds H(f) = A0 / ((1 + j f/fp1)(1 + j f/fp2)).
func twoPole(freqs []float64, a0, fp1, fp2 float64) []complex128 {
	out := make([]complex128, len(freqs))
	for i, f := range freqs {
		out[i] = complex(a0, 0) / (complex(1, f/fp1) * complex(1, f/fp2))
	}
	return out
}

func sweep() []float64 { return num.Logspace(1, 1e9, 400) }

func TestGainDB(t *testing.T) {
	if g := GainDB(complex(10, 0)); math.Abs(g-20) > 1e-12 {
		t.Errorf("GainDB(10) = %g, want 20", g)
	}
	if g := GainDB(complex(0, 1)); math.Abs(g) > 1e-12 {
		t.Errorf("GainDB(j) = %g, want 0", g)
	}
}

func TestDCGainDB(t *testing.T) {
	fs := sweep()
	tf := onePole(fs, 316.23, 1e4) // 50 dB
	if g := DCGainDB(tf); math.Abs(g-50) > 0.01 {
		t.Errorf("DCGainDB = %g, want 50", g)
	}
	if !math.IsInf(DCGainDB(nil), -1) {
		t.Error("DCGainDB(nil) should be -Inf")
	}
}

func TestUnityGainFreqOnePole(t *testing.T) {
	// Single pole: fu ≈ A0 · fp for A0 >> 1.
	fs := sweep()
	a0, fp := 100.0, 1e4
	tf := onePole(fs, a0, fp)
	fu, err := UnityGainFreq(fs, tf)
	if err != nil {
		t.Fatal(err)
	}
	want := fp * math.Sqrt(a0*a0-1)
	if math.Abs(fu-want)/want > 0.02 {
		t.Errorf("fu = %g, want %g", fu, want)
	}
}

func TestUnityGainFreqNotFound(t *testing.T) {
	fs := sweep()
	tf := onePole(fs, 0.5, 1e4) // never above 0 dB
	if _, err := UnityGainFreq(fs, tf); !errors.Is(err, ErrNotFound) {
		t.Fatalf("want ErrNotFound, got %v", err)
	}
	// Gain that never falls below 0 dB.
	flat := make([]complex128, len(fs))
	for i := range flat {
		flat[i] = 10
	}
	if _, err := UnityGainFreq(fs, flat); !errors.Is(err, ErrNotFound) {
		t.Fatalf("want ErrNotFound for flat gain, got %v", err)
	}
}

// TestNonFiniteCrossingNotFound: an infinite gain next to the 0 dB
// crossing interpolates it to NaN. UnityGainFreq reports that crossing
// as not found, and PhaseAt refuses a non-finite frequency, so the
// phase margin fails instead of reading the last point's phase.
func TestNonFiniteCrossingNotFound(t *testing.T) {
	fs := []float64{1e2, 1e3, 1e4, 1e5}
	inf := math.Inf(1)
	for _, tc := range []struct {
		name string
		tf   []complex128
	}{
		{"infinite gain before the crossing", []complex128{10, complex(inf, 0), 0.5, 0.1}},
		{"infinite first point", []complex128{complex(inf, 0), 0.5, 0.2, 0.1}},
		{"infinite imaginary part", []complex128{10, complex(1, inf), 0.5, 0.1}},
	} {
		if fu, err := UnityGainFreq(fs, tc.tf); !errors.Is(err, ErrNotFound) {
			t.Errorf("%s: UnityGainFreq = %g, %v; want ErrNotFound", tc.name, fu, err)
		}
		if pm, err := PhaseMarginDeg(fs, tc.tf); !errors.Is(err, ErrNotFound) {
			t.Errorf("%s: PhaseMarginDeg = %g, %v; want ErrNotFound", tc.name, pm, err)
		}
	}
	tf := onePole(fs, 100, 1e3)
	for _, f := range []float64{math.NaN(), inf, math.Inf(-1)} {
		if ph, err := PhaseAt(fs, tf, f); !errors.Is(err, ErrNotFound) {
			t.Errorf("PhaseAt(%g) = %g, %v; want ErrNotFound", f, ph, err)
		}
	}
}

func TestPhaseMarginOnePole(t *testing.T) {
	// A single-pole system has PM = 180 − 90·(asymptotic) ≈ 90° + small
	// correction; exactly PM = 180 − atan(fu/fp) ≈ 90.57° for A0=100.
	fs := sweep()
	a0, fp := 100.0, 1e4
	tf := onePole(fs, a0, fp)
	pm, err := PhaseMarginDeg(fs, tf)
	if err != nil {
		t.Fatal(err)
	}
	fu := fp * math.Sqrt(a0*a0-1)
	want := 180 - math.Atan(fu/fp)*180/math.Pi
	if math.Abs(pm-want) > 1 {
		t.Errorf("PM = %g, want %g", pm, want)
	}
}

func TestPhaseMarginTwoPole(t *testing.T) {
	// Second pole at fu reduces PM by ~45°.
	fs := sweep()
	a0, fp1 := 1000.0, 1e3
	fuOnePole := fp1 * a0
	tf := twoPole(fs, a0, fp1, fuOnePole)
	pm, err := PhaseMarginDeg(fs, tf)
	if err != nil {
		t.Fatal(err)
	}
	if pm < 40 || pm > 60 {
		t.Errorf("two-pole PM = %g, want ~45..52", pm)
	}
}

func TestInvertingPhaseMargin(t *testing.T) {
	fs := sweep()
	a0, fp := 100.0, 1e4
	tf := onePole(fs, a0, fp)
	inv := make([]complex128, len(tf))
	for i, h := range tf {
		inv[i] = -h
	}
	pmDirect, err := PhaseMarginDeg(fs, tf)
	if err != nil {
		t.Fatal(err)
	}
	pmInv, err := InvertingPhaseMargin(fs, inv)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(pmDirect-pmInv) > 1e-6 {
		t.Errorf("inverting PM = %g, direct PM = %g", pmInv, pmDirect)
	}
}

func TestGainMargin(t *testing.T) {
	// Three coincident poles give −180° at f = √3·fp where gain has
	// dropped by 3·20·log10(2) = 18 dB relative to... compute directly.
	fs := sweep()
	a0, fp := 100.0, 1e4
	tf := make([]complex128, len(fs))
	for i, f := range fs {
		d := complex(1, f/fp)
		tf[i] = complex(a0, 0) / (d * d * d)
	}
	gm, err := GainMarginDB(fs, tf)
	if err != nil {
		t.Fatal(err)
	}
	// At f = √3 fp: |H| = a0/8 → GM = −20log10(a0/8) = −21.9 dB (unstable).
	want := -20 * math.Log10(a0/8)
	if math.Abs(gm-want) > 0.5 {
		t.Errorf("GM = %g dB, want %g", gm, want)
	}
}

func TestGainMarginNotFound(t *testing.T) {
	fs := sweep()
	tf := onePole(fs, 100, 1e4) // phase never reaches −180
	if _, err := GainMarginDB(fs, tf); !errors.Is(err, ErrNotFound) {
		t.Fatalf("want ErrNotFound, got %v", err)
	}
}

func TestBandwidth3dB(t *testing.T) {
	fs := sweep()
	fp := 2e5
	tf := onePole(fs, 10, fp)
	bw, err := Bandwidth3dB(fs, tf)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(bw-fp)/fp > 0.02 {
		t.Errorf("BW = %g, want %g", bw, fp)
	}
}

func TestUnwrapPhase(t *testing.T) {
	fs := sweep()
	tf := twoPole(fs, 1000, 1e3, 1e5)
	ph := UnwrapPhaseDeg(tf)
	// Final phase should approach −180 continuously, never jumping to +180.
	for i := 1; i < len(ph); i++ {
		if math.Abs(ph[i]-ph[i-1]) > 90 {
			t.Fatalf("phase jump at %d: %g -> %g", i, ph[i-1], ph[i])
		}
	}
	if ph[len(ph)-1] > -150 {
		t.Errorf("final unwrapped phase = %g, want near -180", ph[len(ph)-1])
	}
	if len(UnwrapPhaseDeg(nil)) != 0 {
		t.Error("UnwrapPhaseDeg(nil) should be empty")
	}
}

func TestPhaseAtAndGainAt(t *testing.T) {
	fs := sweep()
	fp := 1e4
	tf := onePole(fs, 100, fp)
	ph, err := PhaseAt(fs, tf, fp)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(ph+45) > 1 {
		t.Errorf("phase at pole = %g, want -45", ph)
	}
	g, err := GainAt(fs, tf, fp)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(g-(40-3.0103)) > 0.1 {
		t.Errorf("gain at pole = %g, want ~36.99", g)
	}
	if _, err := GainAt(fs, tf, 1e12); !errors.Is(err, ErrNotFound) {
		t.Error("out-of-sweep GainAt accepted")
	}
	if _, err := PhaseAt(fs, tf, 0.1); !errors.Is(err, ErrNotFound) {
		t.Error("out-of-sweep PhaseAt accepted")
	}
}

func TestPeak(t *testing.T) {
	fs := []float64{1, 10, 100}
	tf := []complex128{1, 5, 2}
	f, g := Peak(fs, tf)
	if f != 10 || math.Abs(g-GainDB(5)) > 1e-12 {
		t.Errorf("Peak = (%g, %g)", f, g)
	}
}

func TestValidationErrors(t *testing.T) {
	if _, err := UnityGainFreq([]float64{1}, []complex128{1}); err == nil {
		t.Error("single point accepted")
	}
	if _, err := PhaseMarginDeg([]float64{1, 2}, []complex128{1}); err == nil {
		t.Error("length mismatch accepted")
	}
	if _, err := Bandwidth3dB(nil, nil); err == nil {
		t.Error("empty sweep accepted")
	}
}

func TestPhaseDegRange(t *testing.T) {
	if p := PhaseDeg(complex(-1, 0)); math.Abs(math.Abs(p)-180) > 1e-9 {
		t.Errorf("PhaseDeg(-1) = %g", p)
	}
	if p := PhaseDeg(cmplx.Rect(1, math.Pi/4)); math.Abs(p-45) > 1e-9 {
		t.Errorf("PhaseDeg(e^jpi/4) = %g", p)
	}
}

func TestSlewRate(t *testing.T) {
	times := []float64{0, 1, 2, 3}
	vs := []float64{0, 0.5, 2.5, 3}
	sr, err := SlewRate(times, vs)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(sr-2) > 1e-12 {
		t.Errorf("SlewRate = %g, want 2", sr)
	}
	if _, err := SlewRate([]float64{0}, []float64{0}); err == nil {
		t.Error("single point accepted")
	}
}

func TestSettlingTime(t *testing.T) {
	var times, vs []float64
	for i := 0; i <= 100; i++ {
		tt := float64(i) * 0.1
		times = append(times, tt)
		vs = append(vs, 1-math.Exp(-tt)) // tau = 1
	}
	st, err := SettlingTime(times, vs, 0, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	// Settles within 1% of final (~0.99995 of 1) around t ≈ ln(1/0.01) ≈ 4.6.
	if st < 3.5 || st > 5.5 {
		t.Errorf("settling time = %g, want ~4.6", st)
	}
	// An oscillation only "settles" at the final sample itself, so its
	// reported settling time must be essentially the whole window.
	osc := make([]float64, len(times))
	for i := range osc {
		osc[i] = math.Sin(times[i] * 10)
	}
	if st, err := SettlingTime(times, osc, 0, 0.001); err == nil && st < 9 {
		t.Errorf("oscillation settled at %g, want near the end of the window", st)
	}
}

func TestTransitionSlew(t *testing.T) {
	// Ramp from 0 to 1 V over 1 µs with a fast feedthrough spike at the
	// start that would fool the max-derivative measure.
	var times, vs []float64
	times = append(times, 0, 1e-9, 2e-9)
	vs = append(vs, 0, 0.05, 0) // spike
	for i := 0; i <= 100; i++ {
		times = append(times, 2e-9+float64(i)*1e-8)
		vs = append(vs, float64(i)/100)
	}
	sr, err := TransitionSlew(times, vs, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	want := 1.0 / 1e-6
	if math.Abs(sr-want)/want > 0.05 {
		t.Errorf("TransitionSlew = %g, want %g", sr, want)
	}
	// The raw max derivative sees the spike instead.
	raw, _ := SlewRate(times, vs)
	if raw < 10*sr {
		t.Errorf("expected the spike to dominate SlewRate: %g vs %g", raw, sr)
	}
	// Never-crossing waveform.
	if _, err := TransitionSlew(times, vs, 5, 6); err == nil {
		t.Error("uncrossed levels accepted")
	}
}
