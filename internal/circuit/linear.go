package circuit

import (
	"fmt"
	"math"

	"analogyield/internal/num"
)

// ACStamps is a netlist's small-signal system linearised about one DC
// operating point. Linearise runs every device's StampAC once and
// records its stamps, in device order, as entries A[row][col] +=
// complex(g, ω·c) and B[row] += v. Assemble then builds the system at
// any ω by replaying the entries: no device code and no compact-model
// evaluation per frequency.
//
// The replay is bit-identical to stamping every device directly at ω.
// Each entry is replayed in recording order and no two entries of one
// cell are ever pre-summed (ω·(c1+c2) is not ω·c1 + ω·c2 in floating
// point), so every cell is the same floating-point sum, term by term.
// A device that is not affine in ω (it calls ACCtx.AddA) keeps its
// place in that order and is stamped directly at every frequency.
//
// An ACStamps is reusable: Linearise keeps the entry buffers. It serves
// one goroutine at a time.
type ACStamps struct {
	order int
	a     []yEntry
	b     []rhsEntry
	dyn   []dynStamp
	ctx   ACCtx
}

// yEntry is one recorded matrix stamp: A.Data[k] += complex(g, ω·c).
type yEntry struct {
	k    int
	g, c float64
}

// rhsEntry is one recorded right-hand-side stamp: B[i] += v.
type rhsEntry struct {
	i int
	v complex128
}

// dynStamp is a device stamped directly at each frequency, after the
// first a matrix and b right-hand-side entries.
type dynStamp struct {
	d    Device
	bb   int
	a, b int
}

// Linearise records the small-signal stamps of every device of n about
// the DC solution dc, replacing whatever s held.
func (s *ACStamps) Linearise(n *Netlist, dc []float64) {
	s.order = n.NumUnknowns()
	s.a, s.b = s.a[:0], s.b[:0]
	clear(s.dyn)
	s.dyn = s.dyn[:0]
	// A device that reads Omega while being recorded poisons its
	// entries with NaN instead of silently baking in one frequency.
	s.ctx = ACCtx{Omega: math.NaN(), DC: dc, rec: s}
	for di, d := range n.Devices() {
		na, nb := len(s.a), len(s.b)
		bb := n.BranchBase(di)
		s.ctx.dynamic = false
		d.StampAC(&s.ctx, bb)
		if s.ctx.dynamic {
			s.a, s.b = s.a[:na], s.b[:nb]
			s.dyn = append(s.dyn, dynStamp{d: d, bb: bb, a: na, b: nb})
		}
	}
	s.ctx.rec = nil
}

func (s *ACStamps) addY(i, j int, g, c float64) {
	// Adding an exact zero leaves every cell unchanged, so it is not
	// recorded.
	if g == 0 && c == 0 {
		return
	}
	s.a = append(s.a, yEntry{k: i*s.order + j, g: g, c: c})
}

// Order returns the order of the linearised system.
func (s *ACStamps) Order() int { return s.order }

// Assemble overwrites A and B with the system at angular frequency
// omega. A must be of order Order() and B as long.
func (s *ACStamps) Assemble(omega float64, A *num.CMatrix, B []complex128) {
	if A.N != s.order || len(B) != s.order {
		panic(fmt.Sprintf("circuit: assembling an order-%d AC system into order %d", s.order, A.N))
	}
	A.Zero()
	clear(B)
	a := A.Data
	s.ctx.A, s.ctx.B, s.ctx.Omega = A, B, omega
	ia, ib := 0, 0
	for _, d := range s.dyn {
		replay(a, B, omega, s.a[ia:d.a], s.b[ib:d.b])
		d.d.StampAC(&s.ctx, d.bb)
		ia, ib = d.a, d.b
	}
	replay(a, B, omega, s.a[ia:], s.b[ib:])
}

func replay(a, b []complex128, omega float64, ys []yEntry, rhs []rhsEntry) {
	for _, e := range ys {
		a[e.k] += complex(e.g, omega*e.c)
	}
	for _, e := range rhs {
		b[e.i] += e.v
	}
}
