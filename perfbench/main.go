// Command perfbench is the repository's benchmark. It runs one named
// workload against the synthesis engine for a fixed time, checks every
// output it gets, and prints the end-to-end metrics — or, with --trace 1,
// the per-layer metrics of a traced run — as one JSON object on the last
// line of standard output. The lines before it name every metric with
// its unit and sample count, and fingerprint the machine.
//
//	go build -o perfbench . && ./perfbench --workload table1 --seed 1 --seconds 20 --trace 0
//
// run.sh builds it and the loasd daemon from source and runs it from the
// checkout root. README.md records why each workload exists, which layer
// metric should move which end-to-end metric, and the pairs predicted
// not to move.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// metricDef is one declared metric: the name BENCHMARK.json lists and
// its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics of an untraced run, reported by every
// workload. What an "op" and an "item" are differs per workload;
// README.md defines them. Times are CPU times (see cpuSeconds); the
// wall-clock figures are printed as report lines.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"op_cpu_ms", "ms"},
	{"item_cpu_ms", "ms"},
	{"alloc_mb_per_op", "MB"},
}

// perLayer are the metrics of a traced run. A workload that never calls
// into a layer reports that layer's metrics as 0.
var perLayer = []metricDef{
	{"core.layout_calls", "count"},
	{"core.sizing_passes", "count"},
	{"core.gc_cycles", "count"},
	{"core.self_s", "s"},
	{"sizing.s", "s"},
	{"sizing.alloc_mb", "MB"},
	{"layout.slicing.s", "s"},
	{"layout.rows.s", "s"},
	{"layout.alloc_mb", "MB"},
	{"extract.s", "s"},
	{"meas.verify_synth_s", "s"},
	{"meas.verify_extracted_s", "s"},
	{"meas.offset_iterations", "count"},
	{"meas.alloc_mb", "MB"},
	{"sim.tran_s", "s"},
	{"sim.tran_steps", "count"},
	{"sim.tran_alloc_mb", "MB"},
	{"sim.op_s", "s"},
	{"sim.op_newton_iters", "count"},
	{"sim.ac_s", "s"},
	{"sim.ac_points", "count"},
	{"sim.noise_s", "s"},
	{"linalg.mna_size", "count"},
	{"linalg.factor_real_ns", "ns"},
	{"linalg.factor_complex_ns", "ns"},
	{"device.eval_ns", "ns"},
	{"device.evalid_ns", "ns"},
	{"mc.sample_s", "s"},
	{"mc.ok_ratio", "ratio"},
	{"parallel.speedup", "ratio"},
	{"serve.hit_ratio", "ratio"},
	{"serve.dedup", "count"},
	{"serve.backend_runs", "count"},
	{"serve.queue_wait_p50_s", "s"},
	{"serve.shed", "count"},
	{"obs.ledger_bytes_per_request", "B"},
	{"tracing_overhead", "ratio"},
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// config is one invocation.
type config struct {
	workload string
	seed     int64
	run      time.Duration
	trace    bool
	root     string // checkout root: golden files and sources are read from here
	loasd    string // daemon binary for the service workload
	out      string // directory the span dump is written to
	// corruptExpected replaces each workload's expected output with a
	// wrong one, so tests can show that the output checks fire.
	corruptExpected bool
}

// bench is the state of one run: counters, metrics, report lines and,
// when tracing, the span recorder.
type bench struct {
	cfg       config
	w         io.Writer
	attempted int
	failed    int
	values    map[string]float64
	spans     *recorder
}

// op records one attempted operation and whether it failed.
func (b *bench) op(failed bool) {
	b.attempted++
	if failed {
		b.failed++
	}
}

// set records a metric value under its declared name.
func (b *bench) set(name string, v float64) { b.values[name] = v }

// notef prints one human-readable report line.
func (b *bench) notef(format string, args ...any) {
	fmt.Fprintf(b.w, format+"\n", args...)
}

// named prints one of the workload's named end-to-end figures.
func (b *bench) named(name string, v float64, unit string, n int, how string) {
	b.notef("metric %-22s %14.6g %-5s n=%d (%s)", name, v, unit, n, how)
}

type workload struct {
	name string
	// run measures the workload untraced and sets every endToEnd metric.
	run func(b *bench) error
	// trace runs the traced variant and sets the per-layer metrics the
	// workload exercises, tracing_overhead included.
	trace func(b *bench) error
}

var workloads = []workload{
	{"table1", runTable1, traceTable1},
	{"mc-offset", runMC, traceMC},
	{"service", runService, traceService},
}

func main() {
	cfg := config{}
	var seconds int
	var trace int
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.StringVar(&cfg.workload, "workload", "", "workload to run: table1, mc-offset or service")
	fs.Int64Var(&cfg.seed, "seed", 1, "seed of the generated inputs")
	fs.IntVar(&seconds, "seconds", 20, "measured run length in seconds")
	fs.IntVar(&trace, "trace", 0, "1 runs the traced variant and reports per-layer metrics")
	fs.StringVar(&cfg.root, "root", ".", "checkout root")
	fs.StringVar(&cfg.loasd, "loasd", "", "loasd binary (service workload)")
	fs.StringVar(&cfg.out, "out", "", "directory for the span dump of a traced run (empty: none)")
	if err := fs.Parse(os.Args[1:]); err != nil {
		os.Exit(2)
	}
	cfg.run = time.Duration(seconds) * time.Second
	cfg.trace = trace == 1
	res, _, err := execute(cfg, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// execute runs one workload and assembles its result, and returns the
// spans of a traced run. An error means the benchmark could not run at
// all (no result is printed); a failed output check is counted in the
// result instead.
func execute(cfg config, w io.Writer) (*result, []span, error) {
	var wl *workload
	for i := range workloads {
		if workloads[i].name == cfg.workload {
			wl = &workloads[i]
		}
	}
	if wl == nil {
		return nil, nil, fmt.Errorf("unknown workload %q", cfg.workload)
	}
	if cfg.run <= 0 {
		return nil, nil, fmt.Errorf("--seconds must be positive")
	}
	fp, err := takeFingerprint(cfg.root)
	if err != nil {
		return nil, nil, err
	}
	fpJSON, err := json.Marshal(fp)
	if err != nil {
		return nil, nil, err
	}
	b := &bench{cfg: cfg, w: w, values: map[string]float64{}}
	fmt.Fprintf(w, "fingerprint %s\n", fpJSON)
	fmt.Fprintf(w, "workload %s seed %d seconds %g trace %v\n",
		cfg.workload, cfg.seed, cfg.run.Seconds(), cfg.trace)

	defs := endToEnd
	if cfg.trace {
		defs = perLayer
		b.spans = newRecorder()
		if err := wl.trace(b); err != nil {
			return nil, nil, err
		}
		if err := b.dumpSpans(); err != nil {
			return nil, nil, err
		}
		// Layers this workload never calls read 0.
		for _, d := range perLayer {
			if _, ok := b.values[d.name]; !ok {
				b.values[d.name] = 0
			}
		}
	} else if err := wl.run(b); err != nil {
		return nil, nil, err
	}
	if b.attempted == 0 {
		return nil, nil, fmt.Errorf("%s: no operation completed", cfg.workload)
	}
	res := &result{
		Correct:   b.failed == 0,
		Attempted: b.attempted,
		Failed:    b.failed,
		Metrics:   map[string]metric{},
	}
	for _, d := range defs {
		v, ok := b.values[d.name]
		if !ok {
			return nil, nil, fmt.Errorf("%s: metric %s was not measured", cfg.workload, d.name)
		}
		res.Metrics[d.name] = metric{Value: v, Unit: d.unit}
	}
	b.named("fail_ratio", float64(b.failed)/float64(b.attempted), "ratio", b.attempted, "failed/attempted")
	names := make([]string, 0, len(res.Metrics))
	for name := range res.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := res.Metrics[name]
		fmt.Fprintf(w, "result %-30s %14.6g %s\n", name, m.Value, m.Unit)
	}
	var spans []span
	if b.spans != nil {
		spans = b.spans.snapshot()
	}
	return res, spans, nil
}

// dumpSpans writes the recorded spans once the run has ended.
func (b *bench) dumpSpans() error {
	if b.cfg.out == "" {
		return nil
	}
	if err := os.MkdirAll(b.cfg.out, 0o755); err != nil {
		return err
	}
	path := filepath.Join(b.cfg.out, fmt.Sprintf("spans-%s-seed%d.json", b.cfg.workload, b.cfg.seed))
	data, err := json.MarshalIndent(b.spans.snapshot(), "", " ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return err
	}
	b.notef("spans %d written to %s", len(b.spans.snapshot()), path)
	return nil
}
