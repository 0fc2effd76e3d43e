// Package mos implements a smooth compact MOSFET model for the circuit
// simulator: strong-inversion square law with channel-length modulation
// and body effect, a softplus subthreshold blend for Newton robustness,
// a BSIM-style smooth triode/saturation transition, and Meyer gate
// capacitances.
//
// This stands in for the BSim3v3 foundry models the paper uses: the
// OTA's gain/phase-margin behaviour is first-order in gm, gds(λ(L)),
// mirror ratios and node capacitances, all of which this model captures.
package mos

import (
	"fmt"
	"math"

	"analogyield/internal/process"
)

// Thermal voltage kT/q at 300 K.
const vTherm = 0.02585

// Params holds the electrical parameters of one device type. Voltages
// follow the usual SPICE sign convention: VTO is positive for NMOS and
// negative for PMOS.
type Params struct {
	Class   process.DeviceClass
	VTO     float64 // zero-bias threshold voltage, V (signed)
	KP      float64 // transconductance factor µ0·Cox, A/V²
	LambdaK float64 // channel-length modulation: λ = LambdaK / Leff, m/V
	Gamma   float64 // body-effect coefficient, √V
	Phi     float64 // surface potential 2φF, V
	NSub    float64 // subthreshold slope factor (dimensionless, ~1.3)
	Cox     float64 // gate capacitance per area, F/m²
	CGSO    float64 // gate-source overlap capacitance per width, F/m
	CGDO    float64 // gate-drain overlap capacitance per width, F/m
	CJ      float64 // junction capacitance per area, F/m²
	LD      float64 // lateral diffusion, m (Leff = L − 2·LD)
	JuncExt float64 // source/drain junction extent, m (area = W·JuncExt)
}

// NominalNMOS returns 0.35 µm-class NMOS parameters.
func NominalNMOS() Params {
	return Params{
		Class:   process.NMOS,
		VTO:     0.50,
		KP:      170e-6,
		LambdaK: 0.08e-6,
		Gamma:   0.58,
		Phi:     0.84,
		NSub:    1.3,
		Cox:     4.54e-3,
		CGSO:    1.2e-10,
		CGDO:    1.2e-10,
		CJ:      0.94e-3,
		LD:      0.03e-6,
		JuncExt: 0.85e-6,
	}
}

// NominalPMOS returns 0.35 µm-class PMOS parameters.
func NominalPMOS() Params {
	return Params{
		Class:   process.PMOS,
		VTO:     -0.65,
		KP:      58e-6,
		LambdaK: 0.11e-6,
		Gamma:   0.40,
		Phi:     0.80,
		NSub:    1.35,
		Cox:     4.54e-3,
		CGSO:    0.9e-10,
		CGDO:    0.9e-10,
		CJ:      1.36e-3,
		LD:      0.03e-6,
		JuncExt: 0.85e-6,
	}
}

// Nominal returns the nominal parameters for the given class.
func Nominal(c process.DeviceClass) Params {
	if c == process.PMOS {
		return NominalPMOS()
	}
	return NominalNMOS()
}

// Applied returns a copy of p with a statistical process shift applied.
// Shift.DVth increases the threshold magnitude ("slower"), so it adds to
// an NMOS VTO and subtracts from a (negative) PMOS VTO; DBeta scales KP.
func (p Params) Applied(s process.Shift) Params {
	out := p
	if p.Class == process.PMOS {
		out.VTO -= s.DVth
	} else {
		out.VTO += s.DVth
	}
	out.KP *= 1 + s.DBeta
	if out.KP <= 0 {
		out.KP = 1e-12 // degenerate sample; keep the model evaluable
	}
	return out
}

// OP is the operating-point of one device: drain current, small-signal
// conductances and capacitances. The conductances are derivatives of the
// drain-terminal current with respect to the *absolute terminal
// voltages* (gate, drain, bulk; source held fixed), which is exactly the
// form the MNA stamps consume:
//
//	dId/dVs = −(Gm + Gds + Gmb) by KCL.
type OP struct {
	Id            float64 // current into the drain terminal, A
	Gm, Gds, Gmb  float64 // ∂Id/∂Vg, ∂Id/∂Vd, ∂Id/∂Vb (Vs fixed), S
	Cgs, Cgd, Cgb float64 // gate capacitances, F (terminal-referenced)
	Csb, Cdb      float64 // junction capacitances, F
	Vgs, Vds, Vbs float64 // applied terminal differences (signed)
	Vth           float64 // effective threshold incl. body effect (signed)
	Vov           float64 // smooth overdrive used by the model, V (>0)
	Saturated     bool    // vds beyond vdsat (in the conducting frame)
	Swapped       bool    // drain/source roles exchanged internally
}

// geometry-checked effective length.
func (p Params) leff(l float64) float64 {
	le := l - 2*p.LD
	if le <= 1e-9 {
		le = 1e-9
	}
	return le
}

// stencil is one Eval's view of the model: the constants every point of
// its finite-difference stencil shares, and the threshold and overdrive
// of the stencil's base point, reused by any later point whose inputs
// have the same bits.
//
// Every value is computed by the same floating-point operations, in the
// same order, as an independent evaluation of each point would use, so
// sharing changes no bit of the result. The reuse is keyed on
// math.Float64bits rather than ==, so that a key never matches a value
// that compares equal but differs in its bits (−0 and +0).
type stencil struct {
	pmos     bool
	vto      float64 // |VTO|
	gamma    float64
	phi      float64
	sqrtPhi  float64 // √Phi
	nvt      float64 // 2·NSub·kT/q, the softplus scale
	kpwl     float64 // KP·(W/Leff)
	lambda   float64 // LambdaK/Leff
	vgs, vbs uint64  // bits of the base point's conducting-frame vgs and vbs
	vth, vov float64 // the base point's threshold and overdrive
}

// newStencil computes the per-call constants for a device of effective
// length le.
func (p Params) newStencil(w, le float64) stencil {
	return stencil{
		pmos:    p.Class == process.PMOS,
		vto:     math.Abs(p.VTO),
		gamma:   p.Gamma,
		phi:     p.Phi,
		sqrtPhi: math.Sqrt(p.Phi),
		nvt:     2 * p.NSub * vTherm,
		kpwl:    p.KP * (w / le),
		lambda:  p.LambdaK / le,
	}
}

// threshold is the threshold magnitude at bulk-source voltage vbs: the
// body effect with a smooth clamp keeping the sqrt argument positive.
func (s *stencil) threshold(vbs float64) float64 {
	arg := s.phi - vbs
	const argMin = 0.05
	if arg < argMin {
		arg = argMin
	}
	return s.vto + s.gamma*(math.Sqrt(arg)-s.sqrtPhi)
}

// overdrive is the smooth overdrive (softplus): strong inversion →
// vgs−vth, subthreshold → exponentially small but non-zero.
func (s *stencil) overdrive(vgs, vth float64) float64 {
	x := (vgs - vth) / s.nvt
	switch {
	case x > 40:
		return vgs - vth
	case x < -40:
		return s.nvt * math.Exp(x)
	default:
		return s.nvt * math.Log1p(math.Exp(x))
	}
}

// drain is the NMOS-frame drain current for vds >= 0 at overdrive vov,
// with the saturation voltage it used.
//
// The order-4 blend 1/(1 + r⁴)^¼ is written without math.Pow, with the
// operations math.Pow itself performs for these exponents:
//
//   - r⁴ is the square of the rounded square, as Pow's repeated
//     squaring of the mantissa computes it wherever r⁴ is a normal
//     number (below that range 1 + r⁴ is 1 either way, above it both
//     overflow). The float64 conversion
//     forbids fusing r2*r2 with the following addition into an FMA,
//     which the compiler would otherwise do on arm64.
//   - y^¼ is Exp(¼·Log(y)), the fractional-exponent step of the pure-Go
//     math.pow. On s390x, where math.Pow has an assembly implementation
//     instead, this rewrite is not bit-identical to math.Pow.
func (s *stencil) drain(vds, vov float64) (id, vdsat float64) {
	vdsat = vov
	if vdsat < 1e-9 {
		vdsat = 1e-9
	}
	r := vds / vdsat
	r2 := r * r
	vdse := vds / math.Exp(0.25*math.Log(1+float64(r2*r2)))
	id = s.kpwl * (vov*vdse - 0.5*vdse*vdse) * (1 + s.lambda*vds)
	return id, vdsat
}

// frame maps absolute terminal voltages into the conducting NMOS frame:
// PMOS mirrored, drain and source swapped when vd < vs so the model is
// symmetric about vds = 0. sign turns the frame's current back into the
// current into the drain terminal.
func (s *stencil) frame(vg, vd, vs, vb float64) (vgs, vds, vbs, sign float64, swapped bool) {
	if s.pmos {
		vg, vd, vs, vb = -vg, -vd, -vs, -vb
	}
	sign = 1.0
	if swapped = vd < vs; swapped {
		vd, vs = vs, vd
		sign = -1
	}
	if s.pmos {
		sign = -sign
	}
	return vg - vs, vd - vs, vb - vs, sign, swapped
}

// current returns the signed current into the drain terminal at a
// neighbour of the base point. A point whose conducting-frame vbs (and
// vgs) has the bits of the base point's reuses the base threshold (and
// overdrive): the drain steps of the stencil skip both, the gate steps
// the threshold. A drain step that crosses vs changes frame and simply
// misses the keys.
func (s *stencil) current(vg, vd, vs, vb float64) float64 {
	vgs, vds, vbs, sign, _ := s.frame(vg, vd, vs, vb)
	vth, vov := s.vth, s.vov
	if math.Float64bits(vbs) != s.vbs {
		vth = s.threshold(vbs)
		vov = s.overdrive(vgs, vth)
	} else if math.Float64bits(vgs) != s.vgs {
		vov = s.overdrive(vgs, vth)
	}
	id, _ := s.drain(vds, vov)
	return sign * id
}

// Eval computes the full operating point of a device with the given
// geometry at absolute terminal voltages (gate, drain, source, bulk).
//
// The conductances come from a seven-point central-difference stencil
// around the base point; see stencil for what the points share.
func (p Params) Eval(w, l, vg, vd, vs, vb float64) OP {
	if w <= 0 || l <= 0 {
		panic(fmt.Sprintf("mos: non-positive geometry W=%g L=%g", w, l))
	}
	op := OP{
		Vgs: vg - vs, Vds: vd - vs, Vbs: vb - vs,
	}
	le := p.leff(l)
	s := p.newStencil(w, le)

	// Base point and region bookkeeping, in the conducting frame.
	fvgs, fvds, fvbs, sign, swapped := s.frame(vg, vd, vs, vb)
	s.vth = s.threshold(fvbs)
	s.vov = s.overdrive(fvgs, s.vth)
	s.vgs, s.vbs = math.Float64bits(fvgs), math.Float64bits(fvbs)
	id, vdsat := s.drain(fvds, s.vov)
	op.Id = sign * id
	op.Vov, op.Saturated, op.Swapped = s.vov, fvds > vdsat, swapped
	if s.pmos {
		op.Vth = -s.vth
	} else {
		op.Vth = s.vth
	}

	// Small-signal conductances by central finite differences on the
	// smooth current function. The step is far above double-precision
	// noise and far below any feature size of the model.
	const h = 1e-6
	op.Gm = (s.current(vg+h, vd, vs, vb) - s.current(vg-h, vd, vs, vb)) / (2 * h)
	op.Gds = (s.current(vg, vd+h, vs, vb) - s.current(vg, vd-h, vs, vb)) / (2 * h)
	op.Gmb = (s.current(vg, vd, vs, vb+h) - s.current(vg, vd, vs, vb-h)) / (2 * h)

	// Meyer capacitances, blended between triode (½/½) and saturation
	// (⅔/0) by the saturation ratio.
	cch := w * le * p.Cox
	ratio := fvds / vdsat
	if ratio > 1 {
		ratio = 1
	}
	if ratio < 0 {
		ratio = 0
	}
	cgsInt := cch * (0.5 + ratio/6.0)
	cgdInt := cch * 0.5 * (1 - ratio)
	if swapped {
		cgsInt, cgdInt = cgdInt, cgsInt
	}
	op.Cgs = cgsInt + p.CGSO*w
	op.Cgd = cgdInt + p.CGDO*w
	op.Cgb = 0.1 * cch
	cj := p.CJ * w * p.JuncExt
	op.Csb = cj
	op.Cdb = cj
	return op
}
