//go:build !race

package linalg

import (
	"math/rand"
	"testing"
)

// The race detector instruments allocations, so the allocation gates
// run only in non-race builds.

func TestFactorSolveIntoAllocs(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	const n = 21 // the MNA matrices below: 18 nodes, 3 sources
	mr, mc := randReal(r, n), randComplex(r, n)
	br, xr := make([]float64, n), make([]float64, n)
	bc, xc := make([]complex128, n), make([]complex128, n)
	var lr LUReal
	var lc LUComplex
	// The first Factor sizes the storage; every later one reuses it.
	if err := lr.Factor(mr); err != nil {
		t.Fatal(err)
	}
	if err := lc.Factor(mc); err != nil {
		t.Fatal(err)
	}
	if a := testing.AllocsPerRun(20, func() {
		_ = lr.Factor(mr)
		lr.SolveInto(xr, br)
	}); a != 0 {
		t.Fatalf("reused real Factor+SolveInto allocates %v per run, want 0", a)
	}
	if a := testing.AllocsPerRun(20, func() {
		_ = lc.Factor(mc)
		lc.SolveInto(xc, bc)
	}); a != 0 {
		t.Fatalf("reused complex Factor+SolveInto allocates %v per run, want 0", a)
	}

	// MNA-shaped sparse matrices of the same size, after the dense ones:
	// the nonzero-column scratch is reused, not regrown per pivot row.
	gs, ys := make([]*Real, 8), make([]*Complex, 8)
	for i := range gs {
		gs[i], ys[i] = mnaPair(rand.New(rand.NewSource(int64(i))), 18, 3, 1e9)
	}
	k := 0
	if a := testing.AllocsPerRun(20, func() {
		_ = lr.Factor(gs[k%len(gs)])
		lr.SolveInto(xr, br)
		_ = lc.Factor(ys[k%len(ys)])
		lc.SolveInto(xc, bc)
		k++
	}); a != 0 {
		t.Fatalf("reused Factor+SolveInto on MNA matrices allocates %v per run, want 0", a)
	}
}
