package behave

import (
	"math"

	"analogyield/internal/circuit"
	"analogyield/internal/ota"
)

// TwoPoleAmp is the extended behavioural model the paper's §4.4 alludes
// to ("although these higher order effects are not modelled in this
// example, they could easily be incorporated"): the finite-gain
// amplifier with an explicit second pole representing the lumped effect
// of the OTA's internal (mirror) poles.
//
//	H(jω) = K / ((1 + jω/ω1)(1 + jω/ω2)),   K = ±10^(GainDB/20)
//
// The first pole is realised physically by Ro against the external load
// (exactly as in the paper's model); the second pole scales the
// controlled source in the AC stamps. At DC and in transient the second
// pole is transparent (it only shapes the small-signal response).
type TwoPoleAmp struct {
	Inst          string
	InP, InN, Out int
	GainDB        float64 // DC gain magnitude, dB
	Ro            float64 // output resistance, ohms
	F2            float64 // second pole, Hz (<= 0 disables it)
	Invert        bool
}

// Name returns the instance name.
func (a *TwoPoleAmp) Name() string { return a.Inst }

// Branches returns 0.
func (a *TwoPoleAmp) Branches() int { return 0 }

// Copy returns a deep copy.
func (a *TwoPoleAmp) Copy() circuit.Device { c := *a; return &c }

// K returns the signed linear DC gain.
func (a *TwoPoleAmp) K() float64 {
	k := math.Pow(10, a.GainDB/20)
	if a.Invert {
		k = -k
	}
	return k
}

func (a *TwoPoleAmp) stampReal(addJ func(i, j int, v float64)) {
	g := 1 / a.Ro
	kg := a.K() * g
	addJ(a.Out, a.Out, g)
	addJ(a.Out, a.InP, -kg)
	addJ(a.Out, a.InN, kg)
}

// StampDC stamps the DC-gain amplifier (the second pole is invisible).
func (a *TwoPoleAmp) StampDC(ctx *circuit.DCCtx, _ int) { a.stampReal(ctx.AddJ) }

// StampTran stamps the DC-gain amplifier.
func (a *TwoPoleAmp) StampTran(ctx *circuit.TranCtx, _ int) { a.stampReal(ctx.AddJ) }

// StampAC stamps the amplifier with the controlled source rolled off by
// the second pole. That stamp is not affine in ω, so it goes through
// AddA and is re-stamped at every sweep frequency.
func (a *TwoPoleAmp) StampAC(ctx *circuit.ACCtx, _ int) {
	g := complex(1/a.Ro, 0)
	k := complex(a.K(), 0)
	if a.F2 > 0 {
		k /= complex(1, ctx.Omega/(2*math.Pi*a.F2))
	}
	kg := k * g
	ctx.AddA(a.Out, a.Out, g)
	ctx.AddA(a.Out, a.InP, -kg)
	ctx.AddA(a.Out, a.InN, kg)
}

// FitTwoPole derives the extended behavioural parameters from a
// measured transistor-level performance: gm and ro as in FromPerf, plus
// a second pole placed so the model reproduces the measured phase
// margin at the unity-gain frequency:
//
//	PM = 180° + φ(fu) ≈ 90° − atan(fu/f2)  ⇒  f2 = fu / tan(90° − PM)
//
// A phase margin at (or numerically above) 90° means no visible second
// pole; f2 is reported as 0 (disabled) in that case.
func FitTwoPole(perf ota.Perf, cl float64) (gm, ro, f2 float64) {
	gm, ro = FromPerf(perf, cl)
	excess := 90 - perf.PMDeg // degrees contributed by the second pole at fu
	if excess <= 0.1 {
		return gm, ro, 0
	}
	f2 = perf.UnityHz / math.Tan(excess*math.Pi/180)
	return gm, ro, f2
}
