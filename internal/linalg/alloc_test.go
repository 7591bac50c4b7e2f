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
	const n = 21
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
}
