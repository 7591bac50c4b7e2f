package main

import (
	"bytes"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// loasdBin is the daemon the service tests drive, built once by TestMain.
var loasdBin string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "perfbench-test")
	if err != nil {
		panic(err)
	}
	loasdBin = filepath.Join(dir, "loasd")
	build := exec.Command("go", "build", "-o", loasdBin, "./cmd/loasd")
	build.Dir = ".."
	build.Stderr = os.Stderr
	if err := build.Run(); err != nil {
		os.RemoveAll(dir)
		panic("building loasd: " + err.Error())
	}
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

// declared reads the metric declarations of BENCHMARK.json.
func declared(t *testing.T) (endToEnd, perLayer map[string]string) {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	endToEnd, perLayer = map[string]string{}, map[string]string{}
	for _, m := range spec.EndToEnd {
		endToEnd[m.Name] = m.Unit
	}
	for _, m := range spec.PerLayer {
		perLayer[m.Name] = m.Unit
	}
	return endToEnd, perLayer
}

func smoke(t *testing.T, workload string, seconds time.Duration, trace, corrupt bool) (*result, []span, string) {
	t.Helper()
	var out bytes.Buffer
	res, spans, err := execute(config{
		workload:        workload,
		seed:            7,
		run:             seconds,
		trace:           trace,
		root:            "..",
		loasd:           loasdBin,
		out:             t.TempDir(),
		corruptExpected: corrupt,
	}, &out)
	if err != nil {
		t.Fatalf("%s (trace %v): %v\n%s", workload, trace, err, out.String())
	}
	return res, spans, out.String()
}

// namedMetrics are the end-to-end figures each workload prints by name
// as report lines, beside the JSON result.
var namedMetrics = map[string][]string{
	"table1":    {"setup_s s", "table1_s s", "case4_s s", "alloc_mb_per_table1 MB", "fail_ratio ratio"},
	"mc-offset": {"setup_s s", "mc_samples_per_s 1/s", "alloc_mb_per_sample MB", "fail_ratio ratio"},
	"service": {"setup_s s", "svc_rps 1/s", "svc_hit_p50_ms ms", "svc_cold_p50_s s",
		"svc_peak_rss_mb MB", "fail_ratio ratio"},
}

func TestSmokeEveryMetricWithUnit(t *testing.T) {
	endToEnd, perLayer := declared(t)
	for _, wl := range workloads {
		for _, trace := range []bool{false, true} {
			res, spans, out := smoke(t, wl.name, time.Second, trace, false)
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s trace %v: correct %v, %d of %d failed\n%s",
					wl.name, trace, res.Correct, res.Failed, res.Attempted, out)
			}
			want := endToEnd
			if trace {
				want = perLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace %v: %d metrics, BENCHMARK.json declares %d", wl.name, trace, len(res.Metrics), len(want))
			}
			for name, unit := range want {
				if m, ok := res.Metrics[name]; !ok || m.Unit != unit {
					t.Errorf("%s trace %v: metric %s = %+v, want unit %s", wl.name, trace, name, m, unit)
				}
			}
			if !trace {
				for _, nu := range namedMetrics[wl.name] {
					name, unit, _ := strings.Cut(nu, " ")
					if !hasNamedLine(out, name, unit) {
						t.Errorf("%s: no report line for %s in %s\n%s", wl.name, name, unit, out)
					}
				}
				continue
			}
			checkSelfTimes(t, wl.name, spans)
		}
	}
}

func hasNamedLine(out, name, unit string) bool {
	for _, line := range strings.Split(out, "\n") {
		f := strings.Fields(line)
		if len(f) >= 4 && f[0] == "metric" && f[1] == name && f[3] == unit {
			return true
		}
	}
	return false
}

// checkSelfTimes checks that no child's self time exceeds its parent
// span and that no self time is negative.
func checkSelfTimes(t *testing.T, workload string, spans []span) {
	t.Helper()
	if len(spans) == 0 {
		t.Errorf("%s: traced run recorded no spans", workload)
	}
	byID := map[int]span{}
	for _, s := range spans {
		byID[s.ID] = s
	}
	for _, s := range spans {
		if s.SelfNS < 0 || s.SelfNS > s.durNS() {
			t.Errorf("%s: span %s self %d ns outside [0, %d]", workload, s.Name, s.SelfNS, s.durNS())
		}
		if s.Parent == 0 {
			continue
		}
		p, ok := byID[s.Parent]
		if !ok {
			t.Errorf("%s: span %s has unknown parent %d", workload, s.Name, s.Parent)
			continue
		}
		if s.Op != p.Op {
			t.Errorf("%s: span %s in op %d under a parent in op %d", workload, s.Name, s.Op, p.Op)
		}
		if s.SelfNS > p.durNS() {
			t.Errorf("%s: child %s self %d ns exceeds parent %s %d ns", workload, s.Name, s.SelfNS, p.Name, p.durNS())
		}
	}
}

func TestWrongExpectedOutputFires(t *testing.T) {
	// mc-offset compares repetitions of a stream, so its run must be long
	// enough to come back to stream 0.
	runs := map[string]time.Duration{"table1": time.Second, "mc-offset": 3 * time.Second, "service": time.Second}
	for _, wl := range workloads {
		res, _, out := smoke(t, wl.name, runs[wl.name], false, true)
		if res.Correct || res.Failed == 0 {
			t.Errorf("%s: wrong expected output went unnoticed (%d of %d failed)\n%s",
				wl.name, res.Failed, res.Attempted, out)
		}
		if !strings.Contains(out, "check failed:") {
			t.Errorf("%s: no check-failed line\n%s", wl.name, out)
		}
	}
}

func TestCoveredMergesOverlappingChildren(t *testing.T) {
	parent := span{StartNS: 0, EndNS: 100}
	kids := []span{{StartNS: 20, EndNS: 50}, {StartNS: 10, EndNS: 30}, {StartNS: 90, EndNS: 120}}
	if got := covered(parent, kids); got != 50 {
		t.Fatalf("covered = %d, want 50 (10–50 and 90–100)", got)
	}
}

func TestHistQuantile(t *testing.T) {
	m := parseProm([]byte(strings.Join([]string{
		`# TYPE q histogram`,
		`q_bucket{le="0.1"} 2`,
		`q_bucket{le="0.2"} 6`,
		`q_bucket{le="+Inf"} 8`,
		`q_count 8`,
	}, "\n")))
	if got := histQuantile(m, "q", 0.5); got < 0.149 || got > 0.151 {
		t.Fatalf("p50 = %g, want 0.15", got)
	}
}
