package mos

import (
	"fmt"
	"math"

	"analogyield/internal/process"
)

// The functions below are the compact model as it stood before Eval
// shared work between the points of its finite-difference stencil: eight
// independent current evaluations, each with its own math.Pow calls.
// They are kept only as the reference that the bit-identity tests
// compare Eval against; nothing outside the tests calls them.

// refIdsPrimitive evaluates the NMOS-frame drain current for vds >= 0.
func (p Params) refIdsPrimitive(w, l, vgs, vds, vbs float64) (id, vov, vdsat float64, sat bool) {
	le := p.leff(l)
	// Body effect with a smooth clamp keeping the sqrt argument positive.
	vto := math.Abs(p.VTO)
	arg := p.Phi - vbs
	const argMin = 0.05
	if arg < argMin {
		arg = argMin
	}
	vth := vto + p.Gamma*(math.Sqrt(arg)-math.Sqrt(p.Phi))
	// Smooth overdrive (softplus): strong inversion → vgs−vth,
	// subthreshold → exponentially small but non-zero.
	nvt := 2 * p.NSub * vTherm
	x := (vgs - vth) / nvt
	switch {
	case x > 40:
		vov = vgs - vth
	case x < -40:
		vov = nvt * math.Exp(x)
	default:
		vov = nvt * math.Log1p(math.Exp(x))
	}
	vdsat = vov
	if vdsat < 1e-9 {
		vdsat = 1e-9
	}
	// Smooth effective vds (order-4 blend between triode and saturation).
	r := vds / vdsat
	vdse := vds / math.Pow(1+math.Pow(r, 4), 0.25)
	lambda := p.LambdaK / le
	id = p.KP * (w / le) * (vov*vdse - 0.5*vdse*vdse) * (1 + lambda*vds)
	return id, vov, vdsat, vds > vdsat
}

// refDrainCurrent returns the signed current into the drain terminal
// for absolute terminal voltages, handling PMOS mirroring and
// source/drain swap so the model is symmetric about vds = 0.
func (p Params) refDrainCurrent(w, l, vg, vd, vs, vb float64) float64 {
	if p.Class == process.PMOS {
		// Mirror into the NMOS frame.
		vg, vd, vs, vb = -vg, -vd, -vs, -vb
	}
	sign := 1.0
	if vd < vs {
		vd, vs = vs, vd
		sign = -1
	}
	id, _, _, _ := p.refIdsPrimitive(w, l, vg-vs, vd-vs, vb-vs)
	if p.Class == process.PMOS {
		sign = -sign
	}
	return sign * id
}

// refEval computes the full operating point of a device with the given
// geometry at absolute terminal voltages (gate, drain, source, bulk).
func (p Params) refEval(w, l, vg, vd, vs, vb float64) OP {
	if w <= 0 || l <= 0 {
		panic(fmt.Sprintf("mos: non-positive geometry W=%g L=%g", w, l))
	}
	op := OP{
		Vgs: vg - vs, Vds: vd - vs, Vbs: vb - vs,
	}
	op.Id = p.refDrainCurrent(w, l, vg, vd, vs, vb)

	// Small-signal conductances by central finite differences on the
	// smooth current function. The step is far above double-precision
	// noise and far below any feature size of the model.
	const h = 1e-6
	op.Gm = (p.refDrainCurrent(w, l, vg+h, vd, vs, vb) - p.refDrainCurrent(w, l, vg-h, vd, vs, vb)) / (2 * h)
	op.Gds = (p.refDrainCurrent(w, l, vg, vd+h, vs, vb) - p.refDrainCurrent(w, l, vg, vd-h, vs, vb)) / (2 * h)
	op.Gmb = (p.refDrainCurrent(w, l, vg, vd, vs, vb+h) - p.refDrainCurrent(w, l, vg, vd, vs, vb-h)) / (2 * h)

	// Region bookkeeping in the conducting frame.
	fvg, fvd, fvs, fvb := vg, vd, vs, vb
	if p.Class == process.PMOS {
		fvg, fvd, fvs, fvb = -vg, -vd, -vs, -vb
	}
	swapped := fvd < fvs
	if swapped {
		fvd, fvs = fvs, fvd
	}
	_, vov, vdsat, sat := p.refIdsPrimitive(w, l, fvg-fvs, fvd-fvs, fvb-fvs)
	op.Vov, op.Saturated, op.Swapped = vov, sat, swapped
	arg := p.Phi - (fvb - fvs)
	if arg < 0.05 {
		arg = 0.05
	}
	vthMag := math.Abs(p.VTO) + p.Gamma*(math.Sqrt(arg)-math.Sqrt(p.Phi))
	if p.Class == process.PMOS {
		op.Vth = -vthMag
	} else {
		op.Vth = vthMag
	}

	// Meyer capacitances, blended between triode (½/½) and saturation
	// (⅔/0) by the saturation ratio.
	le := p.leff(l)
	cch := w * le * p.Cox
	ratio := (fvd - fvs) / vdsat
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
