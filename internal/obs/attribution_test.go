package obs

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime/pprof"
	"strconv"
	"strings"
	"testing"
	"time"
)

// goroutineLabels captures the debug=1 goroutine profile, whose text
// form prints each goroutine group's pprof labels as `# labels: {...}`.
// It retries until the profile contains want: while the runtime's
// finalizer goroutine is starting up it counts as a user goroutine, and
// the runtime then truncates the profile by one goroutine, which can
// drop the one under test.
func goroutineLabels(t *testing.T, want string) string {
	t.Helper()
	var buf bytes.Buffer
	for try := 0; try < 100; try++ {
		buf.Reset()
		if err := pprof.Lookup("goroutine").WriteTo(&buf, 1); err != nil {
			t.Fatal(err)
		}
		if strings.Contains(buf.String(), want) {
			break
		}
		time.Sleep(time.Millisecond)
	}
	return buf.String()
}

// phaseCount reads loas_phase_seconds_count for one phase from the
// process-wide registry (0 before the first observation).
func phaseCount(t *testing.T, phase string) int {
	t.Helper()
	var buf bytes.Buffer
	if err := Default.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	prefix := `loas_phase_seconds_count{phase="` + phase + `"} `
	for _, line := range strings.Split(buf.String(), "\n") {
		if v, ok := strings.CutPrefix(line, prefix); ok {
			n, err := strconv.Atoi(v)
			if err != nil {
				t.Fatalf("%s%s: %v", prefix, v, err)
			}
			return n
		}
	}
	return 0
}

// TestPhaseAppliesPprofLabel: while Phase(fn) runs, the goroutine
// carries phase=<name> layered over the ctx labels, visible in the
// goroutine profile; phase wall time lands in loas_phase_seconds. The
// registry is process-wide, so the count is checked as a delta (the
// test must pass under -count=N).
func TestPhaseAppliesPprofLabel(t *testing.T) {
	ctx := LabelCtx(context.Background(), "topology", "test_topo_xyz", "run_id", "run-000777")
	before := phaseCount(t, "test-phase-abc")

	inPhase := make(chan struct{})
	release := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		Phase(ctx, "test-phase-abc", func() {
			close(inPhase)
			<-release
		})
	}()
	<-inPhase
	prof := goroutineLabels(t, `"phase":"test-phase-abc"`)
	close(release)
	<-done

	for _, want := range []string{`"phase":"test-phase-abc"`, `"topology":"test_topo_xyz"`, `"run_id":"run-000777"`} {
		if !strings.Contains(prof, want) {
			t.Errorf("goroutine profile missing label %s:\n%s", want, prof)
		}
	}

	// The phase duration must have been observed into the histogram vec.
	if got := phaseCount(t, "test-phase-abc"); got != before+1 {
		t.Errorf("loas_phase_seconds_count{phase=\"test-phase-abc\"} = %d after one Phase, want %d", got, before+1)
	}
}

// TestLabelCtxSkipsEmptyPairs: empty keys or values are dropped so call
// sites can pass optional attributes unconditionally.
func TestLabelCtxSkipsEmptyPairs(t *testing.T) {
	ctx := LabelCtx(nil, "topology", "", "", "x", "run_id", "run-1")
	var got []string
	pprof.Do(ctx, pprof.Labels(), func(ctx context.Context) {
		pprof.ForLabels(ctx, func(k, v string) bool {
			got = append(got, k+"="+v)
			return true
		})
	})
	if len(got) != 1 || got[0] != "run_id=run-1" {
		t.Fatalf("want only run_id=run-1, got %v", got)
	}
}

// TestSampleResourcesMonotone: the counters are cumulative, so a second
// sample after forced allocation can only move forward, and allocation
// between the samples is visible in the delta.
func TestSampleResourcesMonotone(t *testing.T) {
	before := SampleResources()
	sink := make([][]byte, 0, 64)
	for i := 0; i < 64; i++ {
		sink = append(sink, make([]byte, 16<<10))
	}
	_ = sink
	after := SampleResources()
	if after.AllocBytes < before.AllocBytes {
		t.Fatalf("AllocBytes went backwards: %d -> %d", before.AllocBytes, after.AllocBytes)
	}
	// Size-class accounting can shave a little off the nominal total;
	// half is far above noise while immune to rounding.
	if after.AllocBytes-before.AllocBytes < 64*16<<10/2 {
		t.Fatalf("delta %d nowhere near the %d bytes allocated between samples",
			after.AllocBytes-before.AllocBytes, 64*16<<10)
	}
	if after.GCCycles < before.GCCycles {
		t.Fatalf("GCCycles went backwards: %d -> %d", before.GCCycles, after.GCCycles)
	}
}

// TestSpanResourceDeltas: a span that opts in via BeginResources freezes
// nonzero allocation deltas at End, they surface in the Snapshot record,
// and SpanTreeText renders them. A sibling without the opt-in stays at
// zero (omitted from JSON via omitempty).
func TestSpanResourceDeltas(t *testing.T) {
	rec := NewRecorder()
	root := rec.Root("request")
	sized := root.Child("sizing")
	sized.BeginResources()
	sink := make([][]byte, 0, 32)
	for i := 0; i < 32; i++ {
		sink = append(sink, make([]byte, 32<<10))
	}
	_ = sink
	sized.End()
	plain := root.Child("cache-lookup")
	plain.End()
	root.End()

	snap := rec.Snapshot()
	if len(snap) != 3 {
		t.Fatalf("want 3 spans, got %d", len(snap))
	}
	var sizing, lookup SpanRecord
	for _, s := range snap {
		switch s.Name {
		case "sizing":
			sizing = s
		case "cache-lookup":
			lookup = s
		}
	}
	if sizing.AllocBytes < 32*32<<10 {
		t.Errorf("sizing span alloc delta %d below the %d bytes it allocated", sizing.AllocBytes, 32*32<<10)
	}
	if sizing.GCCycles < 0 {
		t.Errorf("negative GC delta %d", sizing.GCCycles)
	}
	if lookup.AllocBytes != 0 || lookup.GCCycles != 0 {
		t.Errorf("span without BeginResources reported deltas: alloc=%d gc=%d", lookup.AllocBytes, lookup.GCCycles)
	}

	text := SpanTreeText(snap)
	if !strings.Contains(text, "alloc=") {
		t.Errorf("SpanTreeText missing alloc= rendering:\n%s", text)
	}
}

// TestBeginResourcesAfterEndIsNoop: opting in after the span closed must
// not resurrect it with garbage deltas.
func TestBeginResourcesAfterEndIsNoop(t *testing.T) {
	rec := NewRecorder()
	s := rec.Root("late")
	s.End()
	s.BeginResources()
	s.End()
	got := rec.Snapshot()[0]
	if got.AllocBytes != 0 || got.GCCycles != 0 {
		t.Fatalf("late BeginResources produced deltas: alloc=%d gc=%d", got.AllocBytes, got.GCCycles)
	}
}

// TestReadLedgerAcrossRotation writes enough records through a
// tiny-MaxBytes ledger to force rotation, then checks ReadLedger
// stitches <path>.1 + <path> back into one continuous, drop-free
// sequence in write order — the property `loas replay` depends on.
func TestReadLedgerAcrossRotation(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "runs.jsonl")
	l, err := OpenLedger(path, LedgerOptions{MaxBytes: 2048})
	if err != nil {
		t.Fatal(err)
	}
	const total = 40
	for i := 1; i <= total; i++ {
		err := l.Append(RunRecord{
			ID: fmt.Sprintf("run-%06d", i), Seq: int64(i), Kind: "synthesize",
			Topology: "ota_miller", Outcome: "ok",
			Request: []byte(`{"spec":{"gbw_hz":1e6}}`), BodySHA256: strings.Repeat("ab", 32),
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(path + ".1"); err != nil {
		t.Fatalf("MaxBytes=2048 never rotated: %v", err)
	}

	got := ReadLedger(path, 0)
	// The single .1 generation keeps only the most recent rotation's
	// worth, so the head may be gone — but what remains must be a
	// continuous suffix ending at the final record.
	if len(got) == 0 {
		t.Fatal("ReadLedger returned nothing")
	}
	for i := 1; i < len(got); i++ {
		if got[i].Seq != got[i-1].Seq+1 {
			t.Fatalf("sequence gap after rotation: seq %d followed by %d", got[i-1].Seq, got[i].Seq)
		}
	}
	if last := got[len(got)-1]; last.Seq != total {
		t.Fatalf("last record seq = %d, want %d", last.Seq, total)
	}
	// Replay-critical fields survive the round trip.
	if r := got[len(got)-1]; string(r.Request) != `{"spec":{"gbw_hz":1e6}}` || r.BodySHA256 != strings.Repeat("ab", 32) {
		t.Fatalf("request/sha fields did not round-trip: %+v", r)
	}

	// max bounds the tail.
	if tail := ReadLedger(path, 5); len(tail) != 5 || tail[4].Seq != total {
		t.Fatalf("ReadLedger(max=5) = %d records ending seq %d", len(tail), tail[len(tail)-1].Seq)
	}
	// A missing ledger is empty history, not an error.
	if r := ReadLedger(filepath.Join(dir, "absent.jsonl"), 0); r != nil {
		t.Fatalf("ReadLedger on missing path = %v, want nil", r)
	}
}
