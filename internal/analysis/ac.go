package analysis

import (
	"fmt"
	"math"

	"analogyield/internal/circuit"
	"analogyield/internal/num"
)

// ACResult holds a small-signal frequency sweep: the complex solution
// vector at every frequency point.
type ACResult struct {
	Freqs []float64      // hertz
	X     [][]complex128 // X[i] is the solution at Freqs[i]
	net   *circuit.Netlist
}

// V returns the complex node voltage across the sweep for a named node.
func (r *ACResult) V(node string) ([]complex128, error) {
	idx, ok := r.net.NodeIndex(node)
	if !ok {
		return nil, fmt.Errorf("analysis: unknown node %q", node)
	}
	out := make([]complex128, len(r.Freqs))
	if idx == circuit.Ground {
		return out, nil
	}
	for i, x := range r.X {
		out[i] = x[idx]
	}
	return out, nil
}

// AC performs a small-signal sweep over the given frequencies (hertz),
// linearised about the DC operating point op. Sources contribute their
// ACMag values as stimulus.
func AC(n *circuit.Netlist, op *OPResult, freqs []float64) (*ACResult, error) {
	return ACWith(n, op, freqs, nil)
}

// acSweep solves the small-signal system of n at the frequencies of
// freqs in order and hands each solution to keep, which must copy what
// it needs (x is overwritten by the next point). The sweep stops after
// the first point for which keep returns false; it returns the number
// of points solved.
//
// The netlist is linearised about op once per sweep (see
// circuit.ACStamps): every device, and so the compact model of every
// MOSFET, is stamped once, and each point replays the recorded entries
// into a zeroed matrix. The sweep's reference factorisation — the first
// frequency under full partial pivoting — fixes the pivot order every
// point reuses (with a deterministic per-point fallback when the values
// drift too far; see num.RefactorInto), so each point's solution
// depends only on its frequency and the reference. A sweep cut short
// therefore solves the same bits as the same prefix of the full sweep.
func acSweep(n *circuit.Netlist, op *OPResult, freqs []float64, ws *Workspace, keep func(i int, x []complex128) bool) (int, error) {
	if err := validateFreqs(freqs); err != nil {
		return 0, err
	}
	lin := ws.acStamps()
	lin.Linearise(n, op.X)
	cw := ws.cplx(lin.Order())
	ref := ws.acReference(lin.Order())
	nn := n.NumNodes()
	assembleAC(lin, nn, freqs[0], cw)
	if err := ref.FactorInto(cw.A); err != nil {
		return 0, fmt.Errorf("analysis: AC solve at %g Hz: %w", freqs[0], err)
	}
	for i, f := range freqs {
		if i > 0 { // FactorInto left the first point's system intact
			assembleAC(lin, nn, f, cw)
		}
		if _, err := cw.LU.RefactorInto(cw.A, ref); err != nil {
			return 0, fmt.Errorf("analysis: AC solve at %g Hz: %w", f, err)
		}
		cw.LU.Solve(cw.B, cw.X)
		if !keep(i, cw.X) {
			return i + 1, nil
		}
	}
	return len(freqs), nil
}

// assembleAC writes the system at frequency f into cw.A and cw.B.
func assembleAC(lin *circuit.ACStamps, numNodes int, f float64, cw *num.CWorkspace) {
	lin.Assemble(2*math.Pi*f, cw.A, cw.B)
	// A tiny conductance to ground keeps floating small-signal nodes
	// (e.g. isolated gates) solvable without affecting results.
	for i := 0; i < numNodes; i++ {
		cw.A.Add(i, i, complex(1e-12, 0))
	}
}

func validateFreqs(freqs []float64) error {
	if len(freqs) == 0 {
		return fmt.Errorf("analysis: empty frequency list")
	}
	for _, f := range freqs {
		if f <= 0 {
			return fmt.Errorf("analysis: non-positive AC frequency %g", f)
		}
	}
	return nil
}

// ACWith is AC with reusable solver buffers: the netlist is linearised
// and every frequency point assembled, refactored and solved through ws
// instead of allocating a fresh complex system. A nil ws allocates
// internally once per call.
func ACWith(n *circuit.Netlist, op *OPResult, freqs []float64, ws *Workspace) (*ACResult, error) {
	nu := n.NumUnknowns()
	res := &ACResult{Freqs: append([]float64(nil), freqs...), X: make([][]complex128, len(freqs)), net: n}
	rows := make([]complex128, len(freqs)*nu)
	_, err := acSweep(n, op, freqs, ws, func(i int, x []complex128) bool {
		res.X[i] = rows[i*nu : (i+1)*nu : (i+1)*nu]
		copy(res.X[i], x)
		return true
	})
	if err != nil {
		return nil, err
	}
	return res, nil
}

// ACNode is ACWith keeping only the response at one node: it returns
// V(node) at each frequency, so a sweep allocates nothing per point.
func ACNode(n *circuit.Netlist, op *OPResult, node string, freqs []float64, ws *Workspace) ([]complex128, error) {
	return ACNodeUntil(n, op, node, freqs, ws, nil)
}

// ACNodeUntil is ACNode that stops early: after solving point i it
// calls more(i, V(node)), and a false result ends the sweep there. It
// returns the solved prefix, whose values have the same bits as the
// same points of the full sweep (see acSweep). A nil more sweeps every
// frequency.
func ACNodeUntil(n *circuit.Netlist, op *OPResult, node string, freqs []float64, ws *Workspace, more func(i int, v complex128) bool) ([]complex128, error) {
	idx, ok := n.NodeIndex(node)
	if !ok {
		return nil, fmt.Errorf("analysis: unknown node %q", node)
	}
	out := make([]complex128, len(freqs))
	m, err := acSweep(n, op, freqs, ws, func(i int, x []complex128) bool {
		if idx != circuit.Ground {
			out[i] = x[idx]
		}
		return more == nil || more(i, out[i])
	})
	if err != nil {
		return nil, err
	}
	return out[:m], nil
}

// ACDecade sweeps pointsPerDecade logarithmically spaced frequencies
// from fStart to fStop (inclusive endpoints).
func ACDecade(n *circuit.Netlist, op *OPResult, fStart, fStop float64, pointsPerDecade int) (*ACResult, error) {
	return ACDecadeWith(n, op, fStart, fStop, pointsPerDecade, nil)
}

// ACDecadeWith is ACDecade with reusable solver buffers (see ACWith).
func ACDecadeWith(n *circuit.Netlist, op *OPResult, fStart, fStop float64, pointsPerDecade int, ws *Workspace) (*ACResult, error) {
	freqs, err := DecadeFreqs(fStart, fStop, pointsPerDecade)
	if err != nil {
		return nil, err
	}
	return ACWith(n, op, freqs, ws)
}

// DecadeFreqs returns the frequencies of an ACDecade sweep:
// pointsPerDecade logarithmically spaced points from fStart to fStop
// (inclusive endpoints; pointsPerDecade < 1 selects 10).
func DecadeFreqs(fStart, fStop float64, pointsPerDecade int) ([]float64, error) {
	if fStart <= 0 || fStop <= fStart {
		return nil, fmt.Errorf("analysis: bad AC range [%g, %g]", fStart, fStop)
	}
	if pointsPerDecade < 1 {
		pointsPerDecade = 10
	}
	decades := math.Log10(fStop / fStart)
	npts := int(math.Ceil(decades*float64(pointsPerDecade))) + 1
	if npts < 2 {
		npts = 2
	}
	return num.Logspace(fStart, fStop, npts), nil
}
