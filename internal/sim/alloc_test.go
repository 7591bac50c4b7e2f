//go:build !race

package sim

import (
	"testing"

	"loas/internal/techno"
)

// The race detector instruments allocations, so the allocation gates
// run only in non-race builds.

// acResultAllocs is what a one-frequency Solve must allocate once the
// solver exists: the result slice, the ACResult and its phasor vector.
const acResultAllocs = 3

func TestACSolveAllocs(t *testing.T) {
	tech := techno.Default060()
	c, seeds := fiveTransistorOTA(tech)
	e := NewEngine(c, techno.TempNominal)
	op, err := e.OP(OPOptions{NodeSet: seeds})
	if err != nil {
		t.Fatal(err)
	}
	s := e.PrepareAC(op)
	freq := []float64{1e6}
	if _, err := s.Solve(freq); err != nil {
		t.Fatal(err)
	}
	if a := testing.AllocsPerRun(20, func() {
		if _, err := s.Solve(freq); err != nil {
			t.Fatal(err)
		}
	}); a != acResultAllocs {
		t.Fatalf("one-frequency Solve allocates %v per call, want %d", a, acResultAllocs)
	}
}

// TestOPAllocsIndependentOfIterations runs the same circuit through a long
// and a short gmin continuation: the Newton workspace is per call, so the
// allocation count must not follow the iteration count.
func TestOPAllocsIndependentOfIterations(t *testing.T) {
	tech := techno.Default060()
	c, seeds := fiveTransistorOTA(tech)
	e := NewEngine(c, techno.TempNominal)
	long := OPOptions{NodeSet: seeds}
	short := OPOptions{NodeSet: seeds, GminStart: 1e-12}
	rl, err := e.OP(long)
	if err != nil {
		t.Fatal(err)
	}
	rs, err := e.OP(short)
	if err != nil {
		t.Fatal(err)
	}
	if rl.Iterations <= rs.Iterations {
		t.Fatalf("continuations do not differ in work: %d vs %d Newton iterations", rl.Iterations, rs.Iterations)
	}
	allocs := func(o OPOptions) float64 {
		return testing.AllocsPerRun(10, func() {
			if _, err := e.OP(o); err != nil {
				t.Fatal(err)
			}
		})
	}
	if al, as := allocs(long), allocs(short); al != as {
		t.Fatalf("OP allocates %v with %d Newton iterations but %v with %d",
			al, rl.Iterations, as, rs.Iterations)
	}
}

// TestUnityCrossingAllocs: the crossing search reads the output phasor
// straight from the solver's buffer, so a search that finds its crossing
// allocates nothing.
func TestUnityCrossingAllocs(t *testing.T) {
	tech := techno.Default060()
	c, seeds := fiveTransistorOTA(tech)
	e := NewEngine(c, techno.TempNominal)
	op, err := e.OP(OPOptions{NodeSet: seeds})
	if err != nil {
		t.Fatal(err)
	}
	s := e.PrepareAC(op)
	if a := testing.AllocsPerRun(5, func() {
		if _, err := s.UnityCrossing("out", 1e3, 3e9, 130, 0); err != nil {
			t.Fatal(err)
		}
	}); a != 0 {
		t.Fatalf("UnityCrossing allocates %v per call, want 0", a)
	}
}
