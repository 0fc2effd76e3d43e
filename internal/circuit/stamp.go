package circuit

import (
	"analogyield/internal/num"
)

// Device is the common interface of all circuit elements. Stamp methods
// receive their branch base (the index of the device's first auxiliary
// current unknown) even when Branches() is zero.
//
// Sign conventions: the MNA node equation at node k reads
// Σ(currents leaving k through devices) = 0, assembled as J·x = b with
// constant/companion current terms moved to b.
type Device interface {
	// Name returns the unique instance name (e.g. "M3", "C1").
	Name() string
	// Branches returns the number of auxiliary current unknowns.
	Branches() int
	// Copy returns a deep copy (for netlist cloning).
	Copy() Device
	// StampDC adds the device's linearised large-signal contribution at
	// the iterate ctx.X.
	StampDC(ctx *DCCtx, branchBase int)
	// StampAC adds the device's small-signal contribution at angular
	// frequency ctx.Omega, linearised about the DC solution ctx.DC.
	StampAC(ctx *ACCtx, branchBase int)
	// StampTran adds the device's companion-model contribution for the
	// timestep ending at ctx.Time.
	StampTran(ctx *TranCtx, branchBase int)
}

// DCCtx carries the Newton iteration state during DC solves.
type DCCtx struct {
	J *num.Matrix // Jacobian, NumUnknowns square
	B []float64   // right-hand side
	X []float64   // current iterate (node voltages + branch currents)
	// SourceScale multiplies all independent sources; the DC solver
	// ramps it from 0 to 1 during source stepping. 1 for a plain solve.
	SourceScale float64
}

// V returns the iterate voltage of a node (0 for Ground).
func (c *DCCtx) V(node int) float64 {
	if node == Ground {
		return 0
	}
	return c.X[node]
}

// AddJ stamps a Jacobian entry, dropping Ground rows/columns.
func (c *DCCtx) AddJ(i, j int, v float64) {
	if i == Ground || j == Ground {
		return
	}
	c.J.Add(i, j, v)
}

// AddB stamps a right-hand-side entry, dropping Ground rows.
func (c *DCCtx) AddB(i int, v float64) {
	if i == Ground {
		return
	}
	c.B[i] += v
}

// StampConductance stamps a two-terminal conductance between nodes a, b.
func (c *DCCtx) StampConductance(a, b int, g float64) {
	c.AddJ(a, a, g)
	c.AddJ(b, b, g)
	c.AddJ(a, b, -g)
	c.AddJ(b, a, -g)
}

// StampCurrent stamps a constant current i flowing from node a to node b
// (leaving a, entering b).
func (c *DCCtx) StampCurrent(a, b int, i float64) {
	c.AddB(a, -i)
	c.AddB(b, i)
}

// ACCtx carries the complex small-signal system. A device stamps an
// admittance g + jω·cv with AddY or StampY, and its stimulus with AddB.
// The context is used in two modes:
//
//   - direct: every stamp is added into A and B at the angular frequency
//     Omega (a context built with A, B, Omega and DC set);
//   - linearising (see ACStamps): every AddY and AddB is recorded once,
//     frequency-independent, and replayed at each sweep frequency.
//
// AddA adds a ready-made complex value. It is for devices whose stamp
// is not affine in ω; a device that calls it while linearising is not
// recorded but re-stamped directly at every frequency.
type ACCtx struct {
	A     *num.CMatrix
	B     []complex128
	Omega float64   // rad/s
	DC    []float64 // solved DC operating point (node voltages + branches)

	rec     *ACStamps // non-nil while linearising
	dynamic bool      // the device being recorded called AddA
}

// VDC returns the DC bias voltage of a node (0 for Ground).
func (c *ACCtx) VDC(node int) float64 {
	if node == Ground {
		return 0
	}
	return c.DC[node]
}

// AddY stamps the admittance g + jω·cv into entry (i, j).
func (c *ACCtx) AddY(i, j int, g, cv float64) {
	if i == Ground || j == Ground {
		return
	}
	if c.rec != nil {
		c.rec.addY(i, j, g, cv)
		return
	}
	c.A.Add(i, j, complex(g, c.Omega*cv))
}

// StampY stamps a two-terminal admittance g + jω·cv between nodes a, b.
func (c *ACCtx) StampY(a, b int, g, cv float64) {
	c.AddY(a, a, g, cv)
	c.AddY(b, b, g, cv)
	c.AddY(a, b, -g, -cv)
	c.AddY(b, a, -g, -cv)
}

// AddA stamps a complex admittance-matrix entry computed at Omega.
func (c *ACCtx) AddA(i, j int, v complex128) {
	if c.rec != nil {
		c.dynamic = true
		return
	}
	if i == Ground || j == Ground {
		return
	}
	c.A.Add(i, j, v)
}

// AddB stamps a complex right-hand-side entry.
func (c *ACCtx) AddB(i int, v complex128) {
	if i == Ground {
		return
	}
	if c.rec != nil {
		c.rec.b = append(c.rec.b, rhsEntry{i, v})
		return
	}
	c.B[i] += v
}

// StampAdmittance stamps a two-terminal admittance between nodes a, b
// through AddA.
func (c *ACCtx) StampAdmittance(a, b int, y complex128) {
	c.AddA(a, a, y)
	c.AddA(b, b, y)
	c.AddA(a, b, -y)
	c.AddA(b, a, -y)
}

// TranCtx carries the Newton state of one transient timestep. The
// trapezoidal companion models need the previous solution and the
// previous device currents; the latter are kept in State, keyed by
// device name.
type TranCtx struct {
	J     *num.Matrix
	B     []float64
	X     []float64 // iterate at t = Time
	XPrev []float64 // converged solution at the previous timestep
	Time  float64
	Dt    float64
	// State holds per-device companion history (e.g. capacitor current
	// at the previous accepted timestep).
	State map[string][]float64
}

// V returns the iterate voltage of a node (0 for Ground).
func (c *TranCtx) V(node int) float64 {
	if node == Ground {
		return 0
	}
	return c.X[node]
}

// VPrev returns the previous-timestep voltage of a node.
func (c *TranCtx) VPrev(node int) float64 {
	if node == Ground {
		return 0
	}
	return c.XPrev[node]
}

// AddJ stamps a Jacobian entry, dropping Ground rows/columns.
func (c *TranCtx) AddJ(i, j int, v float64) {
	if i == Ground || j == Ground {
		return
	}
	c.J.Add(i, j, v)
}

// AddB stamps a right-hand-side entry, dropping Ground rows.
func (c *TranCtx) AddB(i int, v float64) {
	if i == Ground {
		return
	}
	c.B[i] += v
}

// StampConductance stamps a two-terminal conductance between nodes a, b.
func (c *TranCtx) StampConductance(a, b int, g float64) {
	c.AddJ(a, a, g)
	c.AddJ(b, b, g)
	c.AddJ(a, b, -g)
	c.AddJ(b, a, -g)
}

// StampCurrent stamps a constant current i flowing from node a to b.
func (c *TranCtx) StampCurrent(a, b int, i float64) {
	c.AddB(a, -i)
	c.AddB(b, i)
}
