package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"loas/internal/circuit"
	"loas/internal/core"
	"loas/internal/device"
	"loas/internal/layout"
	"loas/internal/layout/cairo"
	"loas/internal/layout/extract"
	"loas/internal/meas"
	"loas/internal/repro"
	"loas/internal/sizing"
	"loas/internal/techno"
)

// setupReps is how many times each workload repeats its set-up; setup_s
// is the median.
const setupReps = 3

// goldenPath is the committed Table-1 golden file, relative to the
// checkout root. It is read, never written.
const goldenPath = "internal/repro/testdata/table1_golden.json"

func loadGolden(cfg config) (*repro.GoldenReport, error) {
	data, err := os.ReadFile(filepath.Join(cfg.root, goldenPath))
	if err != nil {
		return nil, err
	}
	var g repro.GoldenReport
	if err := json.Unmarshal(data, &g); err != nil {
		return nil, fmt.Errorf("%s: %w", goldenPath, err)
	}
	if len(g.Cases) != core.NumTable1Cases {
		return nil, fmt.Errorf("%s: %d cases, want %d", goldenPath, len(g.Cases), core.NumTable1Cases)
	}
	if cfg.corruptExpected {
		g.Cases[0].Extracted.GBW = "0x1p+00"
	}
	return &g, nil
}

// goldenMismatch compares one case's synthesized and extracted
// performance, hex-exact, with the golden file; "" means equal.
func goldenMismatch(tech *techno.Tech, spec sizing.OTASpec, g *repro.GoldenReport, caseN int, res *core.Result) string {
	got := repro.BuildGolden(tech, spec, []repro.Table1Case{{Case: caseN, Result: res}}).Cases[0]
	want := g.Cases[caseN-1]
	switch {
	case want.Case != caseN:
		return fmt.Sprintf("golden case %d holds case %d", caseN, want.Case)
	case got.Synthesized != want.Synthesized:
		return fmt.Sprintf("case %d synthesized %+v, golden %+v", caseN, got.Synthesized, want.Synthesized)
	case got.Extracted != want.Extracted:
		return fmt.Sprintf("case %d extracted %+v, golden %+v", caseN, got.Extracted, want.Extracted)
	}
	return ""
}

// table1Setup loads the golden file and runs one untimed case-1
// synthesis, so first-call costs are paid before the timed loop. It is
// repeated setupReps times and setup_s is the median CPU time.
func table1Setup(b *bench, tech *techno.Tech, spec sizing.OTASpec) (*repro.GoldenReport, error) {
	var golden *repro.GoldenReport
	var setups []float64
	for i := 0; i < setupReps; i++ {
		c0 := selfCPU()
		g, err := loadGolden(b.cfg)
		if err != nil {
			return nil, err
		}
		if _, err := core.Synthesize(tech, spec, core.Options{Case: 1}); err != nil {
			return nil, fmt.Errorf("table1 set-up: %w", err)
		}
		setups = append(setups, selfCPU()-c0)
		golden = g
	}
	b.set("setup_s", median(setups))
	b.named("setup_s", median(setups), "s", len(setups), "median CPU time")
	return golden, nil
}

// sample is one timed operation: wall and CPU seconds.
type sample struct{ wall, cpu float64 }

// timeIt runs fn and returns its wall and CPU time (this process, all
// threads: the garbage collector's work counts).
func timeIt(fn func()) sample {
	c0, t0 := selfCPU(), time.Now()
	fn()
	return sample{time.Since(t0).Seconds(), selfCPU() - c0}
}

func walls(ss []sample) []float64 {
	out := make([]float64, len(ss))
	for i, s := range ss {
		out[i] = s.wall
	}
	return out
}

func cpus(ss []sample) []float64 {
	out := make([]float64, len(ss))
	for i, s := range ss {
		out[i] = s.cpu
	}
	return out
}

// serialProcs runs the serial table1 workload on one P: with more, the
// runtime's idle-priority GC mark workers spend otherwise idle CPU, by
// an amount that depends on scheduling (about 15 % of the CPU time on
// two CPUs, and it varied from run to run). It returns the function that
// restores the previous setting.
func serialProcs(b *bench) func() {
	prev := runtime.GOMAXPROCS(1)
	b.notef("table1 runs on GOMAXPROCS=1 (process default %d)", prev)
	return func() { runtime.GOMAXPROCS(prev) }
}

// runTable1 runs the paper's Table 1 — the folded-cascode OTA at the
// 65 MHz spec through all four parasitic-awareness cases — serially on
// this goroutine with fresh per-run state, until the run length is
// reached. Op: one four-case Table 1; item: its case-4 synthesis.
func runTable1(b *bench) error {
	defer serialProcs(b)()
	tech := techno.Default060()
	spec := sizing.Default65MHz()
	golden, err := table1Setup(b, tech, spec)
	if err != nil {
		return err
	}
	var tables, case4 []sample
	var allocs []float64
	deadline := time.Now().Add(b.cfg.run)
	for len(tables) == 0 || time.Now().Before(deadline) {
		a0, _ := heapCounters()
		tables = append(tables, timeIt(func() {
			for c := 1; c <= core.NumTable1Cases; c++ {
				var res *core.Result
				var err error
				s := timeIt(func() { res, err = core.Synthesize(tech, spec, core.Options{Case: c}) })
				if c == 4 {
					case4 = append(case4, s)
				}
				msg := ""
				if err != nil {
					msg = err.Error()
				} else {
					msg = goldenMismatch(tech, spec, golden, c, res)
				}
				if msg != "" {
					b.notef("check failed: %s", msg)
				}
				b.op(msg != "")
			}
		}))
		a1, _ := heapCounters()
		allocs = append(allocs, float64(a1-a0)/1e6)
	}
	rss, err := peakRSSMB("self")
	if err != nil {
		return err
	}
	b.named("table1_s", median(walls(tables)), "s", len(tables), "median wall")
	b.named("case4_s", median(walls(case4)), "s", len(case4), "median wall")
	b.named("table1_cpu_s", median(cpus(tables)), "s", len(tables), "median CPU")
	b.named("case4_cpu_s", median(cpus(case4)), "s", len(case4), "median CPU")
	b.named("alloc_mb_per_table1", median(allocs), "MB", len(allocs), "median")
	b.named("peak_rss_mb", rss, "MB", 1, "VmHWM")
	b.set("op_cpu_ms", median(cpus(tables))*1e3)
	b.set("item_cpu_ms", median(cpus(case4))*1e3)
	b.set("alloc_mb_per_op", median(allocs))
	return nil
}

// case4Run is what the traced drive of the case-4 loop produced, in the
// fields core.Result has for the same run.
type case4Run struct {
	Synthesized, Extracted sizing.Performance
	LayoutCalls            int
	SizingPasses           int
	TotalCapF              float64
	design                 sizing.Design
	par                    *extract.Parasitics
	offsetIterations       int
}

// driveCase4 runs the case-4 synthesis through the public layer calls,
// in the order core.Synthesize makes them and with the same per-run
// caches, recording one span per call. Op id op groups the spans.
func driveCase4(r *recorder, op int, tech *techno.Tech, spec sizing.OTASpec) (*case4Run, error) {
	root := r.start("core.case4", 0, op)
	defer r.end(root)
	const maxLayoutCalls = 8
	const convergeTolF = 1e-15
	plan, err := sizing.Lookup("")
	if err != nil {
		return nil, err
	}
	ps, err := sizing.Case(4)
	if err != nil {
		return nil, err
	}
	ps.Memo = device.NewMemo(0)
	session := cairo.NewSession(true, true)
	backend, err := layout.Lookup("")
	if err != nil {
		return nil, err
	}
	out := &case4Run{}
	var par *extract.Parasitics
	var design sizing.Design
	for call := 1; ; call++ {
		ps.Report = par
		r.timed("sizing.Size", root, op, func(int) { design, err = plan.Size(tech, spec, ps) })
		if err != nil {
			return nil, fmt.Errorf("sizing pass %d: %w", call, err)
		}
		out.SizingPasses++
		var lay *cairo.Plan
		r.timed("layout.Plan."+backend.Info().Name, root, op, func(int) {
			lay, err = backend.Plan(tech, design.Layout(), cairo.Constraint{}, session)
		})
		if err != nil {
			return nil, fmt.Errorf("layout call %d: %w", call, err)
		}
		out.LayoutCalls++
		newPar := lay.Parasitics
		newPar.LayoutCalls = out.LayoutCalls
		delta := -1.0
		if par != nil {
			r.timed("extract.MaxDelta", root, op, func(int) { delta = extract.MaxDelta(par, newPar) })
		}
		converged := par != nil && delta < convergeTolF
		par = newPar
		if converged {
			break
		}
		if call == maxLayoutCalls {
			return nil, fmt.Errorf("parasitics did not converge in %d layout calls", maxLayoutCalls)
		}
	}
	var rep *meas.Report
	r.timed("meas.Measure", root, op, func(int) {
		rep, err = meas.Measure(core.OTABench(tech, spec, design, func() *circuit.Circuit {
			return design.AssumedNetlist("assumed")
		}))
	})
	if err != nil {
		return nil, fmt.Errorf("synthesized verification: %w", err)
	}
	out.Synthesized = rep.Perf
	out.Synthesized.Offset = 0
	out.offsetIterations = rep.OffsetIterations
	var perf *sizing.Performance
	r.timed("core.VerifyExtracted", root, op, func(int) {
		perf, _, err = core.VerifyExtracted(tech, spec, design, par)
	})
	if err != nil {
		return nil, fmt.Errorf("extracted verification: %w", err)
	}
	out.Extracted = *perf
	out.TotalCapF = par.TotalCap()
	out.design, out.par = design, par
	return out, nil
}

// equivalence lists every difference between the traced drive and
// core.Synthesize, compared hex-exactly.
func equivalence(got *case4Run, want *core.Result) []string {
	var diffs []string
	hex := func(v float64) string { return fmt.Sprintf("%x", math.Float64bits(v)) }
	perfDiff := func(what string, g, w sizing.Performance) {
		gv, wv := perfFields(g), perfFields(w)
		for i := range gv {
			if math.Float64bits(gv[i]) != math.Float64bits(wv[i]) {
				diffs = append(diffs, fmt.Sprintf("%s field %d: %s != %s", what, i, hex(gv[i]), hex(wv[i])))
			}
		}
	}
	perfDiff("synthesized", got.Synthesized, want.Synthesized)
	perfDiff("extracted", got.Extracted, want.Extracted)
	if got.LayoutCalls != want.LayoutCalls {
		diffs = append(diffs, fmt.Sprintf("layout calls %d != %d", got.LayoutCalls, want.LayoutCalls))
	}
	if got.SizingPasses != want.SizingPasses {
		diffs = append(diffs, fmt.Sprintf("sizing passes %d != %d", got.SizingPasses, want.SizingPasses))
	}
	if w := want.Parasitics.TotalCap(); math.Float64bits(got.TotalCapF) != math.Float64bits(w) {
		diffs = append(diffs, fmt.Sprintf("total cap %s != %s", hex(got.TotalCapF), hex(w)))
	}
	return diffs
}

func perfFields(p sizing.Performance) []float64 {
	return []float64{p.DCGainDB, p.GBW, p.PhaseDeg, p.SlewRate, p.CMRRDB, p.Offset,
		p.Rout, p.NoiseRMS, p.NoiseTh, p.NoiseFl1, p.Power}
}

// traceTable1 is the traced run of table1. The first half of the run
// length times untraced case-4 syntheses (core.Synthesize); the second
// half drives the same case-4 loop through the layer calls with a span
// around each. The drive must reproduce core.Synthesize hex-exactly, or
// the run aborts. Then the sim, linalg and device probes run on the
// case-4 extracted testbench.
func traceTable1(b *bench) error {
	defer serialProcs(b)()
	tech := techno.Default060()
	spec := sizing.Default65MHz()
	golden, err := table1Setup(b, tech, spec)
	if err != nil {
		return err
	}
	var ref *core.Result
	var plain []sample
	half := time.Now().Add(b.cfg.run / 2)
	for len(plain) == 0 || time.Now().Before(half) {
		var res *core.Result
		var err error
		plain = append(plain, timeIt(func() { res, err = core.Synthesize(tech, spec, core.Options{Case: 4}) }))
		msg := ""
		if err != nil {
			msg = err.Error()
		} else {
			msg = goldenMismatch(tech, spec, golden, 4, res)
		}
		if msg != "" {
			b.notef("check failed: %s", msg)
		}
		b.op(msg != "")
		if err == nil && ref == nil {
			ref = res
		}
	}
	if ref == nil {
		return fmt.Errorf("table1 trace: no successful case-4 synthesis to compare against")
	}

	var traced []sample
	var gcs []float64
	var last *case4Run
	end := time.Now().Add(b.cfg.run / 2)
	for op := 1; len(traced) == 0 || time.Now().Before(end); op++ {
		_, gc0 := heapCounters()
		var run *case4Run
		var err error
		traced = append(traced, timeIt(func() { run, err = driveCase4(b.spans, op, tech, spec) }))
		_, gc1 := heapCounters()
		gcs = append(gcs, float64(gc1-gc0))
		if err != nil {
			return fmt.Errorf("table1 trace: %w", err)
		}
		if diffs := equivalence(run, ref); len(diffs) > 0 {
			return fmt.Errorf("table1 trace: layer drive differs from core.Synthesize: %v", diffs)
		}
		b.op(false)
		last = run
	}
	b.notef("traced case-4 drive reproduces core.Synthesize hex-exactly (%d ops)", len(traced))

	spans := b.spans.snapshot()
	b.set("core.layout_calls", float64(last.LayoutCalls))
	b.set("core.sizing_passes", float64(last.SizingPasses))
	b.set("core.gc_cycles", median(gcs))
	b.set("core.self_s", selfPerOp(spans, "core.case4"))
	b.set("sizing.s", selfPerOp(spans, "sizing.Size"))
	b.set("sizing.alloc_mb", allocPerOp(spans, "sizing.Size"))
	b.set("layout.slicing.s", selfPerOp(spans, "layout.Plan.slicing"))
	b.set("layout.alloc_mb", allocPerOp(spans, "layout.Plan.slicing"))
	b.set("extract.s", selfPerOp(spans, "extract.MaxDelta"))
	b.set("meas.verify_synth_s", selfPerOp(spans, "meas.Measure"))
	b.set("meas.verify_extracted_s", selfPerOp(spans, "core.VerifyExtracted"))
	b.set("meas.offset_iterations", float64(last.offsetIterations))
	b.set("meas.alloc_mb", allocPerOp(spans, "meas.Measure")+allocPerOp(spans, "core.VerifyExtracted"))
	b.set("tracing_overhead", median(cpus(traced))/median(cpus(plain))-1)
	b.notef("case-4 CPU: untraced %.4f s (n=%d), traced %.4f s (n=%d)",
		median(cpus(plain)), len(plain), median(cpus(traced)), len(traced))

	bench := core.OTABench(tech, spec, last.design, func() *circuit.Circuit {
		return core.ExtractedNetlist(tech, last.design, last.par)
	})
	if err := probeTestbench(b, bench, last.Extracted); err != nil {
		return err
	}
	reportSpans(b, b.spans.snapshot())
	return nil
}

// reportSpans prints total and self time per span name, summed over the
// run.
func reportSpans(b *bench, spans []span) {
	type agg struct {
		n           int
		total, self float64
	}
	byName := map[string]*agg{}
	var names []string
	for _, s := range spans {
		a := byName[s.Name]
		if a == nil {
			a = &agg{}
			byName[s.Name] = a
			names = append(names, s.Name)
		}
		a.n++
		a.total += float64(s.durNS()) / 1e9
		a.self += float64(s.SelfNS) / 1e9
	}
	for _, name := range names {
		a := byName[name]
		b.notef("span %-28s n=%-6d total %10.4f s  self %10.4f s", name, a.n, a.total, a.self)
	}
}
