package main

import (
	"fmt"
	"math"
	"runtime"
	"time"

	"loas/internal/circuit"
	"loas/internal/core"
	"loas/internal/mc"
	"loas/internal/sim"
	"loas/internal/sizing"
	"loas/internal/techno"
)

// mcSamplesPerWorker sizes one mc.RunOffset call: enough samples per
// worker that the fan-out's start and finish are a small share of it.
const mcSamplesPerWorker = 8

// mcStreams is how many Monte-Carlo streams a run cycles through; each
// stream is repeated, and every repetition must give bit-identical
// statistics.
const mcStreams = 4

// mcSetup synthesizes the case-4 folded-cascode design the Monte Carlo
// perturbs. It is repeated setupReps times and setup_s is the median.
func mcSetup(b *bench) (mc.OffsetConfig, error) {
	tech := techno.Default060()
	spec := sizing.Default65MHz()
	var cfg mc.OffsetConfig
	var setups []float64
	for i := 0; i < setupReps; i++ {
		c0 := selfCPU()
		res, err := core.Synthesize(tech, spec, core.Options{Case: 4, SkipVerify: true})
		if err != nil {
			return cfg, fmt.Errorf("mc-offset set-up: %w", err)
		}
		d := res.Design
		cfg = mc.OffsetConfig{
			Build:   func() *circuit.Circuit { return d.Netlist("mc") },
			InP:     sizing.NetInP,
			InN:     sizing.NetInN,
			Out:     sizing.NetOut,
			VicmDC:  0.5 * (spec.ICMLow + spec.ICMHigh),
			VoutMid: 0.5 * (spec.OutLow + spec.OutHigh),
			Temp:    tech.Temp,
			NodeSet: d.NodeSet(),
			Workers: runtime.NumCPU(),
		}
		setups = append(setups, selfCPU()-c0)
	}
	b.set("setup_s", median(setups))
	b.named("setup_s", median(setups), "s", len(setups), "median CPU time")
	return cfg, nil
}

// streamSeed is the Monte-Carlo seed of stream k of a run.
func streamSeed(seed int64, k int) int64 { return seed*mcStreams + int64(k) }

func sameStats(a, b *mc.OffsetStats) bool {
	return a.N == b.N && a.Failures == b.Failures &&
		math.Float64bits(a.MeanV) == math.Float64bits(b.MeanV) &&
		math.Float64bits(a.SigmaV) == math.Float64bits(b.SigmaV) &&
		math.Float64bits(a.WorstAbsV) == math.Float64bits(b.WorstAbsV)
}

// mcLoop runs mc.RunOffset batches, cycling through the run's streams,
// until d has passed. The first batch of each stream is its reference;
// every later batch of that stream must match it bit for bit. With a
// recorder, each batch is one op with one span.
func mcLoop(b *bench, cfg mc.OffsetConfig, d time.Duration, ref map[int]*mc.OffsetStats, r *recorder) (batches []sample, allocs []float64, samples int) {
	n := mcSamplesPerWorker * cfg.Workers
	deadline := time.Now().Add(d)
	for i := 0; len(batches) == 0 || time.Now().Before(deadline); i++ {
		k := i % mcStreams
		a0, _ := heapCounters()
		var stats *mc.OffsetStats
		var err error
		batches = append(batches, timeIt(func() {
			if r != nil {
				r.timed("mc.RunOffset", 0, i+1, func(int) { stats, err = mc.RunOffset(cfg, n, streamSeed(b.cfg.seed, k)) })
			} else {
				stats, err = mc.RunOffset(cfg, n, streamSeed(b.cfg.seed, k))
			}
		}))
		a1, _ := heapCounters()
		allocs = append(allocs, float64(a1-a0)/1e6)
		samples += n
		msg := ""
		switch want, seen := ref[k]; {
		case err != nil:
			msg = err.Error()
		case !seen:
			ref[k] = stats
			if b.cfg.corruptExpected {
				bad := *stats
				bad.MeanV++
				ref[k] = &bad
			}
		case !sameStats(want, stats):
			msg = fmt.Sprintf("stream %d: stats %+v differ from the first repetition's %+v", k, *stats, *want)
		}
		if msg != "" {
			b.notef("check failed: %s", msg)
		}
		b.op(msg != "")
	}
	return batches, allocs, samples
}

// runMC measures Monte-Carlo offset analysis of the case-4 design on the
// worker pool (Workers = nproc). Op: one mc.RunOffset call of
// mcSamplesPerWorker×nproc samples; item: one sample.
func runMC(b *bench) error {
	cfg, err := mcSetup(b)
	if err != nil {
		return err
	}
	batches, allocs, samples := mcLoop(b, cfg, b.cfg.run, map[int]*mc.OffsetStats{}, nil)
	rss, err := peakRSSMB("self")
	if err != nil {
		return err
	}
	n := float64(samples / len(batches))
	b.named("mc_samples_per_s", float64(samples)/sum(walls(batches)), "1/s", samples, "samples / summed batch wall time")
	b.named("alloc_mb_per_sample", median(allocs)/n, "MB", len(allocs), "median over batches")
	b.named("mc_batch_s", median(walls(batches)), "s", len(batches), "median wall")
	b.named("mc_batch_cpu_s", median(cpus(batches)), "s", len(batches), "median CPU, all workers")
	b.named("peak_rss_mb", rss, "MB", 1, "VmHWM")
	b.set("op_cpu_ms", median(cpus(batches))*1e3)
	b.set("item_cpu_ms", median(cpus(batches))*1e3/n)
	b.set("alloc_mb_per_op", median(allocs))
	return nil
}

// traceMC is the traced run of mc-offset: half the run length untraced,
// half with a span around every mc.RunOffset call, then the serial
// against parallel comparison on stream 0 and the DC probe on the
// design's netlist.
func traceMC(b *bench) error {
	cfg, err := mcSetup(b)
	if err != nil {
		return err
	}
	ref := map[int]*mc.OffsetStats{}
	plain, _, _ := mcLoop(b, cfg, b.cfg.run/2, ref, nil)
	traced, _, _ := mcLoop(b, cfg, b.cfg.run/2, ref, b.spans)
	b.set("tracing_overhead", median(cpus(traced))/median(cpus(plain))-1)
	b.notef("mc.RunOffset CPU: untraced %.4f s (n=%d), traced %.4f s (n=%d)",
		median(cpus(plain)), len(plain), median(cpus(traced)), len(traced))

	// The same samples serially and on nproc workers.
	n := mcSamplesPerWorker * cfg.Workers
	seed := streamSeed(b.cfg.seed, 0)
	timeSamples := func(workers int) (float64, []mc.OffsetSample, error) {
		c := cfg
		c.Workers = workers
		var ts []float64
		var outs []mc.OffsetSample
		for i := 0; i < 2; i++ {
			var err error
			t0 := time.Now()
			b.spans.timed(fmt.Sprintf("mc.OffsetSamples.workers%d", workers), 0, probeOp, func(int) {
				outs, err = mc.OffsetSamples(c, 0, n, seed)
			})
			ts = append(ts, time.Since(t0).Seconds())
			if err != nil {
				return 0, nil, err
			}
		}
		return median(ts), outs, nil
	}
	t1, outs, err := timeSamples(1)
	if err != nil {
		return fmt.Errorf("mc-offset trace: %w", err)
	}
	tn, _, err := timeSamples(cfg.Workers)
	if err != nil {
		return fmt.Errorf("mc-offset trace: %w", err)
	}
	ok := 0
	for _, o := range outs {
		if o.OK {
			ok++
		}
	}
	if want := ref[0]; want == nil || !sameStats(mc.ReduceOffsets(outs), want) {
		b.notef("check failed: serial samples of stream 0 do not reduce to the pooled statistics")
		b.op(true)
	} else {
		b.op(false)
	}
	b.set("mc.sample_s", t1/float64(n))
	b.set("mc.ok_ratio", float64(ok)/float64(n))
	b.set("parallel.speedup", t1/tn)
	b.notef("stream 0, %d samples: 1 worker %.4f s, %d workers %.4f s", n, t1, cfg.Workers, tn)

	// One nominal DC solve of the sample netlist at zero differential
	// input, as SimulateOffset makes ~20 per sample.
	ckt := cfg.Build()
	ckt.Add(
		&circuit.VSource{Name: "mcp", Pos: cfg.InP, Neg: circuit.Ground, DC: cfg.VicmDC},
		&circuit.VSource{Name: "mcn", Pos: cfg.InN, Neg: circuit.Ground, DC: cfg.VicmDC},
	)
	eng := sim.NewEngine(ckt, cfg.Temp)
	ns := map[string]float64{cfg.InP: cfg.VicmDC, cfg.InN: cfg.VicmDC, cfg.Out: cfg.VoutMid}
	for k, v := range cfg.NodeSet {
		ns[k] = v
	}
	var op *sim.OPResult
	opS, err := timedCalls(b, "sim.OP", func() (err error) {
		op, err = eng.OP(sim.OPOptions{NodeSet: ns})
		return err
	})
	if err != nil {
		return err
	}
	b.set("sim.op_s", opS)
	b.set("sim.op_newton_iters", float64(op.Iterations))
	probeLinalg(b, eng.Size())
	probeDevice(b, ckt, op, cfg.Temp)
	reportSpans(b, b.spans.snapshot())
	return nil
}
