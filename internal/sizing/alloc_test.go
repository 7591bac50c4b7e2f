//go:build !race

package sizing

import (
	"runtime"
	"testing"

	"loas/internal/sim"
	"loas/internal/techno"
)

// The race detector instruments allocations, so the allocation gates
// run only in non-race builds.

// TestEngineOPAllocs pins what a fresh engine and one operating point
// cost on the case-4 sizing bench (19 elements, 15 nodes), the pattern
// every sizing evaluation and measurement repeats. NewEngine allocates
// the engine and its element index table, nothing else (the name-keyed
// branch map and branch list the table replaced took five allocations
// and 368 bytes more); the rest is OP's workspace and result.
func TestEngineOPAllocs(t *testing.T) {
	tech := techno.Default060()
	ps, _ := Case(4)
	d, err := SizeFoldedCascode(tech, Default65MHz(), ps)
	if err != nil {
		t.Fatal(err)
	}
	ckt, ns := d.gbwBench(d.Spec)
	opts := sim.OPOptions{NodeSet: ns}
	run := func() {
		if _, err := sim.NewEngine(ckt, tech.Temp).OP(opts); err != nil {
			t.Fatal(err)
		}
	}
	const wantAllocs, maxBytes = 19, 13144
	if a := testing.AllocsPerRun(20, run); a != wantAllocs {
		t.Fatalf("NewEngine+OP allocates %v times, want %d", a, wantAllocs)
	}
	const runs = 50
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 0; i < runs; i++ {
		run()
	}
	runtime.ReadMemStats(&m1)
	if b := (m1.TotalAlloc - m0.TotalAlloc) / runs; b > maxBytes {
		t.Fatalf("NewEngine+OP allocates %d bytes, want at most %d", b, maxBytes)
	}
	if a := testing.AllocsPerRun(20, func() { sim.NewEngine(ckt, tech.Temp) }); a != 2 {
		t.Fatalf("NewEngine allocates %v times, want 2 (engine and index table)", a)
	}
}
