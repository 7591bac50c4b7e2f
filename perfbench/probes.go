package main

import (
	"fmt"
	"math"
	"math/cmplx"
	"math/rand"
	"time"

	"loas/internal/circuit"
	"loas/internal/linalg"
	"loas/internal/meas"
	"loas/internal/sim"
	"loas/internal/sizing"
)

// probeReps is how many times each simulator probe call is repeated;
// the reported figure is the median.
const probeReps = 3

// sink keeps probe results alive so the compiler cannot drop the calls.
var sink float64

// probeOp is the op id the probe spans are recorded under.
const probeOp = 1 << 30

// timedCalls runs fn probeReps times inside spans named name and returns
// the median wall time in seconds.
func timedCalls(b *bench, name string, fn func() error) (float64, error) {
	root := b.spans.start("probe."+name, 0, probeOp)
	defer b.spans.end(root)
	var ts []float64
	for i := 0; i < probeReps; i++ {
		var err error
		t0 := time.Now()
		b.spans.timed(name, root, probeOp, func(int) { err = fn() })
		ts = append(ts, time.Since(t0).Seconds())
		if err != nil {
			return 0, fmt.Errorf("%s probe: %w", name, err)
		}
	}
	return median(ts), nil
}

// benchNodeSet is the initial guess meas seeds every solve with.
func benchNodeSet(bench meas.Bench) map[string]float64 {
	ns := map[string]float64{bench.InP: bench.VicmDC, bench.InN: bench.VicmDC, bench.Out: bench.VoutMid}
	for k, v := range bench.NodeSet {
		ns[k] = v
	}
	return ns
}

// probeTestbench replays on one testbench the analyses meas.Measure runs:
// the open-loop operating point at the measured offset, the 130-point
// AC sweep, the 200-point noise sweep and the slew-rate transient at
// meas's tstop and step. perf is the performance meas reported for the
// same testbench; the transient must reproduce its slew rate exactly.
func probeTestbench(b *bench, bench meas.Bench, perf sizing.Performance) error {
	ckt := bench.Build()
	ckt.Add(
		&circuit.VSource{Name: "tbip", Pos: bench.InP, Neg: circuit.Ground,
			DC: bench.VicmDC + perf.Offset/2, ACMag: 0.5},
		&circuit.VSource{Name: "tbin", Pos: bench.InN, Neg: circuit.Ground,
			DC: bench.VicmDC - perf.Offset/2, ACMag: 0.5, ACPhase: 180},
		&circuit.Capacitor{Name: "tbload", A: bench.Out, B: circuit.Ground, C: bench.CL},
	)
	eng := sim.NewEngine(ckt, bench.Temp)
	var op *sim.OPResult
	opS, err := timedCalls(b, "sim.OP", func() (err error) {
		op, err = eng.OP(sim.OPOptions{NodeSet: benchNodeSet(bench)})
		return err
	})
	if err != nil {
		return err
	}
	// The offset nulls the output to within meas's 0.1 mV tolerance.
	if dv := math.Abs(op.Volt(ckt, bench.Out) - bench.VoutMid); dv > 1e-4 {
		b.notef("check failed: probe OP output %.3g V off mid-rail", dv)
		b.op(true)
	} else {
		b.op(false)
	}
	b.set("sim.op_s", opS)
	b.set("sim.op_newton_iters", float64(op.Iterations))

	freqs := sim.LogSpace(1e3, 3e9, 130)
	acS, err := timedCalls(b, "sim.AC", func() error {
		res, err := eng.PrepareAC(op).Solve(freqs)
		if err == nil {
			sink += cmplx.Abs(res[0].Volt(ckt, bench.Out))
		}
		return err
	})
	if err != nil {
		return err
	}
	b.set("sim.ac_s", acS)
	b.set("sim.ac_points", float64(len(freqs)))

	noiseS, err := timedCalls(b, "sim.Noise", func() error {
		pts, err := eng.Noise(op, bench.Out, sim.LogSpace(1, perf.GBW, 200))
		if err == nil {
			sink += pts[0].OutPSD
		}
		return err
	})
	if err != nil {
		return err
	}
	b.set("sim.noise_s", noiseS)

	if err := probeTran(b, bench, perf); err != nil {
		return err
	}
	probeLinalg(b, eng.Size())
	probeDevice(b, ckt, op, bench.Temp)
	b.notef("note: sim, linalg and device figures are per-call unit costs measured by probes; " +
		"how many such calls happen inside meas.Measure is not visible from outside the program")
	return nil
}

// probeTran runs meas's slew-rate transient: a unity-gain buffer driven
// by a 0.8 V step, 60/GBW long at a 0.02/GBW step.
func probeTran(b *bench, bench meas.Bench, perf sizing.Performance) error {
	const step = 0.8
	ckt := bench.Build()
	ckt.Add(
		&circuit.Resistor{Name: "tbfb", A: bench.Out, B: bench.InN, R: 1.0},
		&circuit.VSource{Name: "tbstep", Pos: bench.InP, Neg: circuit.Ground,
			DC: bench.VicmDC - step/2,
			Pulse: &circuit.Pulse{
				V1: bench.VicmDC - step/2, V2: bench.VicmDC + step/2,
				Delay: 4 / perf.GBW, Rise: 1e-10,
			}},
		&circuit.Capacitor{Name: "tbload", A: bench.Out, B: circuit.Ground, C: bench.CL},
	)
	ns := benchNodeSet(bench)
	ns[bench.InP] = bench.VicmDC - step/2
	ns[bench.InN] = bench.VicmDC - step/2
	ns[bench.Out] = bench.VicmDC - step/2
	var res *sim.TranResult
	var allocs []float64
	tranS, err := timedCalls(b, "sim.Tran", func() (err error) {
		a0, _ := heapCounters()
		res, err = sim.NewEngine(ckt, bench.Temp).Tran(60/perf.GBW, 0.02/perf.GBW, sim.OPOptions{NodeSet: ns})
		a1, _ := heapCounters()
		allocs = append(allocs, float64(a1-a0)/1e6)
		return err
	})
	if err != nil {
		return err
	}
	slope, _ := res.MaxSlope(ckt, bench.Out)
	if math.Float64bits(slope) != math.Float64bits(perf.SlewRate) {
		b.notef("check failed: probe transient slew %x != measured %x",
			math.Float64bits(slope), math.Float64bits(perf.SlewRate))
		b.op(true)
	} else {
		b.op(false)
	}
	b.set("sim.tran_s", tranS)
	b.set("sim.tran_steps", float64(len(res.T)-1))
	b.set("sim.tran_alloc_mb", median(allocs))
	return nil
}

// probeLinalg times dense real and complex LU factorization at the MNA
// size n, on diagonally dominant matrices drawn from a fixed stream.
func probeLinalg(b *bench, n int) {
	rng := rand.New(rand.NewSource(1))
	mr := linalg.NewReal(n)
	mc := linalg.NewComplex(n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			v := rng.Float64() - 0.5
			if i == j {
				v += float64(n)
			}
			mr.Set(i, j, v)
			mc.Set(i, j, complex(v, rng.Float64()-0.5))
		}
	}
	b.set("linalg.mna_size", float64(n))
	b.set("linalg.factor_real_ns", nsPerCall(func() {
		if _, err := linalg.FactorReal(mr); err == nil {
			sink++
		}
	}))
	b.set("linalg.factor_complex_ns", nsPerCall(func() {
		if _, err := linalg.FactorComplex(mc); err == nil {
			sink++
		}
	}))
}

// probeDevice times the MOS model at every transistor's operating point.
func probeDevice(b *bench, ckt *circuit.Circuit, op *sim.OPResult, temp float64) {
	type bias struct {
		m              *circuit.MOSFET
		vg, vd, vs, vb float64
	}
	var pts []bias
	for _, m := range ckt.MOSFETs() {
		pts = append(pts, bias{m, op.Volt(ckt, m.G), op.Volt(ckt, m.D), op.Volt(ckt, m.S), op.Volt(ckt, m.B)})
	}
	if len(pts) == 0 {
		return
	}
	n := float64(len(pts))
	b.set("device.eval_ns", nsPerCall(func() {
		for _, p := range pts {
			sink += p.m.Dev.Eval(p.vg, p.vd, p.vs, p.vb, temp).ID
		}
	})/n)
	b.set("device.evalid_ns", nsPerCall(func() {
		for _, p := range pts {
			sink += p.m.Dev.EvalID(p.vg, p.vd, p.vs, p.vb, temp)
		}
	})/n)
}

// nsPerCall returns the median time of one fn call over seven batches
// of about 20 ms each.
func nsPerCall(fn func()) float64 {
	iters := 1
	for {
		t0 := time.Now()
		for i := 0; i < iters; i++ {
			fn()
		}
		if time.Since(t0) > 2*time.Millisecond || iters > 1<<24 {
			break
		}
		iters *= 2
	}
	iters *= 10
	var per []float64
	for r := 0; r < 7; r++ {
		t0 := time.Now()
		for i := 0; i < iters; i++ {
			fn()
		}
		per = append(per, float64(time.Since(t0).Nanoseconds())/float64(iters))
	}
	return median(per)
}
