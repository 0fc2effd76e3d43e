package analysis

import (
	"analogyield/internal/circuit"
	"analogyield/internal/num"
)

// Workspace holds the reusable solver state of one evaluation thread:
// the real Newton system shared by OP, DC sweeps and transient steps,
// the complex system used by AC and noise solves, and the linearised
// small-signal stamps those solves replay. Reusing one
// Workspace across the thousands of evaluations of a GA or Monte Carlo
// run keeps the solver hot path allocation-free.
//
// A nil *Workspace is always valid — every analysis then allocates
// internally, once per call — so existing callers need not change.
// A Workspace serves one goroutine at a time: never share one between
// concurrently running analyses.
type Workspace struct {
	re    *num.Workspace
	cx    *num.CWorkspace
	acRef *num.CLU          // AC sweep reference factorisation (see ac.go)
	lin   *circuit.ACStamps // linearised small-signal system (see ac.go)
	memo  map[any]any       // caller state kept per worker (see Memo)
}

// NewWorkspace returns an empty workspace; buffers are sized lazily by
// the first analysis that uses it.
func NewWorkspace() *Workspace { return &Workspace{} }

// real returns the real solver workspace sized for order-n systems. On a
// nil receiver it allocates fresh buffers (the allocate-per-call path).
func (w *Workspace) real(n int) *num.Workspace {
	if w == nil {
		return num.NewWorkspace(n)
	}
	if w.re == nil {
		w.re = num.NewWorkspace(n)
	} else {
		w.re.Resize(n)
	}
	return w.re
}

// acReference returns the buffer holding the AC sweep's reference
// factorisation (its order is set by FactorInto). On a nil receiver it
// allocates fresh buffers.
func (w *Workspace) acReference(n int) *num.CLU {
	if w == nil {
		return num.NewCLU(n)
	}
	if w.acRef == nil {
		w.acRef = num.NewCLU(n)
	}
	return w.acRef
}

// cplx returns the complex solver workspace sized for order-n systems.
// On a nil receiver it allocates fresh buffers.
func (w *Workspace) cplx(n int) *num.CWorkspace {
	if w == nil {
		return num.NewCWorkspace(n)
	}
	if w.cx == nil {
		w.cx = num.NewCWorkspace(n)
	} else {
		w.cx.Resize(n)
	}
	return w.cx
}

// acStamps returns the buffer holding a sweep's linearised small-signal
// system. On a nil receiver it allocates a fresh one.
func (w *Workspace) acStamps() *circuit.ACStamps {
	if w == nil {
		return new(circuit.ACStamps)
	}
	if w.lin == nil {
		w.lin = new(circuit.ACStamps)
	}
	return w.lin
}

// Memo returns the value kept in w under key, creating it with mk on
// first use. A caller that simulates one circuit many times keeps its
// per-worker state here, next to the solver buffers it runs through:
// ota keeps its testbench netlist, built once and re-sized for each
// evaluation. Keys should be values of an unexported type, as for
// context.WithValue. On a nil receiver Memo returns mk() and keeps
// nothing.
func (w *Workspace) Memo(key any, mk func() any) any {
	if w == nil {
		return mk()
	}
	if v, ok := w.memo[key]; ok {
		return v
	}
	if w.memo == nil {
		w.memo = make(map[any]any)
	}
	v := mk()
	w.memo[key] = v
	return v
}
