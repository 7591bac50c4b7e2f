// Package meas measures opamp performance on a netlist by simulation —
// the role Cadence extraction + simulation play in the paper's Table 1
// (the bracketed numbers). Every figure of merit in the table has a
// measurement here: DC gain, GBW, phase margin, slew rate, CMRR,
// systematic offset, output resistance, input-referred noise (integrated,
// thermal plateau, 1/f at 1 Hz) and power.
package meas

import (
	"fmt"
	"math"
	"math/cmplx"

	"loas/internal/circuit"
	"loas/internal/sim"
	"loas/internal/sizing"
)

// Bench describes how to test an OTA netlist builder.
type Bench struct {
	// Build returns a fresh copy of the amplifier netlist. It must
	// contain nodes InP, InN, Out and a supply source named SupplyName;
	// input sources and the load are added by the harness. A fresh copy
	// per measurement keeps testbench edits from leaking between runs.
	Build func() *circuit.Circuit

	InP, InN, Out string
	SupplyName    string  // voltage source name measured for power
	CL            float64 // load capacitance (F)
	VicmDC        float64 // input common-mode voltage (V)
	VoutMid       float64 // target quiescent output voltage (V)
	Temp          float64 // K
	NodeSet       map[string]float64
}

// Report is the measured Performance plus bookkeeping.
type Report struct {
	Perf sizing.Performance
	// OffsetIterations counts DC solves spent nulling the output.
	OffsetIterations int
	// ACSolves counts the differential AC solves spent on the DC gain,
	// the GBW and the phase margin.
	ACSolves int
}

// Measure runs the full suite.
func Measure(b Bench) (*Report, error) {
	rep := &Report{}

	// 1. Systematic offset: differential input voltage that centres the
	// output. Everything small-signal is measured at that bias.
	voff, op, eng, ckt, solves, err := b.findOffset()
	if err != nil {
		return nil, fmt.Errorf("meas: offset search: %w", err)
	}
	rep.OffsetIterations = solves
	rep.Perf.Offset = voff
	rep.Perf.Power = op.SupplyCurrent(b.SupplyName) * supplyVoltage(ckt, b.SupplyName)

	// 2. Differential AC: gain, GBW, phase margin.
	if rep.ACSolves, err = b.acGainSweep(eng, ckt, op, &rep.Perf); err != nil {
		return nil, fmt.Errorf("meas: AC: %w", err)
	}

	// 3. CMRR at low frequency.
	if err := b.cmrr(eng, ckt, op, voff, &rep.Perf); err != nil {
		return nil, fmt.Errorf("meas: CMRR: %w", err)
	}

	// 4. Output resistance.
	if err := b.rout(voff, &rep.Perf); err != nil {
		return nil, fmt.Errorf("meas: Rout: %w", err)
	}

	// 5. Noise.
	if err := b.noise(eng, ckt, op, &rep.Perf); err != nil {
		return nil, fmt.Errorf("meas: noise: %w", err)
	}

	// 6. Slew rate (unity-gain step).
	if err := b.slewRate(&rep.Perf); err != nil {
		return nil, fmt.Errorf("meas: slew rate: %w", err)
	}
	return rep, nil
}

func supplyVoltage(ckt *circuit.Circuit, name string) float64 {
	for _, v := range ckt.VSources() {
		if v.Name == name {
			return math.Abs(v.DC)
		}
	}
	return math.NaN()
}

// bench construction helpers -------------------------------------------

// openLoop builds the open-loop testbench: differential sources around
// the common mode, load at the output.
func (b *Bench) openLoop(vid float64, acDiff, acCM bool) *circuit.Circuit {
	ckt := b.Build()
	vp := &circuit.VSource{Name: "tbip", Pos: b.InP, Neg: circuit.Ground}
	vn := &circuit.VSource{Name: "tbin", Pos: b.InN, Neg: circuit.Ground}
	b.setInputs(vp, vn, vid)
	if acDiff {
		vp.ACMag, vp.ACPhase = 0.5, 0
		vn.ACMag, vn.ACPhase = 0.5, 180
	}
	if acCM {
		vp.ACMag, vp.ACPhase = 1, 0
		vn.ACMag, vn.ACPhase = 1, 0
	}
	ckt.Add(vp, vn,
		&circuit.Capacitor{Name: "tbload", A: b.Out, B: circuit.Ground, C: b.CL})
	return ckt
}

// setInputs drives the differential input vid around the common mode.
func (b *Bench) setInputs(vp, vn *circuit.VSource, vid float64) {
	vp.DC = b.VicmDC + vid/2
	vn.DC = b.VicmDC - vid/2
}

// inputSources returns an open-loop bench's two input sources.
func inputSources(ckt *circuit.Circuit) (vp, vn *circuit.VSource) {
	for _, v := range ckt.VSources() {
		switch v.Name {
		case "tbip":
			vp = v
		case "tbin":
			vn = v
		}
	}
	return vp, vn
}

func (b *Bench) nodeSet() map[string]float64 {
	ns := map[string]float64{b.InP: b.VicmDC, b.InN: b.VicmDC, b.Out: b.VoutMid}
	for k, v := range b.NodeSet {
		ns[k] = v
	}
	return ns
}

// findOffset bisects the differential input for V(out) = VoutMid. It
// returns the bench at the final input and the number of DC solves spent:
// the two bracket ends plus every bisection step.
//
// The probes run on one bench whose input sources move, and each probe
// after the first continues from the previous one's solution
// (sim.DCProbe.Warm). A probe reads only the sign of V(out) − VoutMid and
// whether its magnitude is under 0.1 mV, and a warm solution lies within
// a few pV of the cold one, so a probe is re-solved cold only when the
// result lies within sim.DefaultVTol of either decision threshold. The
// reported bench at the final input is built and solved cold, exactly as
// a cold probe there would be, so every number measured at it is
// unchanged by the warm starts.
func (b *Bench) findOffset() (vid float64, op *sim.OPResult, eng *sim.Engine, ckt *circuit.Circuit, solves int, err error) {
	probeCkt := b.openLoop(0, true, false)
	vp, vn := inputSources(probeCkt)
	p := sim.NewEngine(probeCkt, b.Temp).NewDCProbe(sim.OPOptions{NodeSet: b.nodeSet()})
	// solve probes differential input v and returns V(out) − VoutMid.
	solve := func(v float64) (float64, error) {
		solves++
		b.setInputs(vp, vn, v)
		if err := p.Warm(); err != nil {
			return 0, err
		}
		f := p.Volt(b.Out) - b.VoutMid
		if a := math.Abs(f); a < sim.DefaultVTol || math.Abs(a-offsetTol) < sim.DefaultVTol {
			if err := p.Cold(); err != nil {
				return 0, err
			}
			f = p.Volt(b.Out) - b.VoutMid
		}
		return f, nil
	}
	lo, hi := -20e-3, 20e-3
	fLo, err := solve(lo)
	if err != nil {
		return 0, nil, nil, nil, solves, err
	}
	fHi, err := solve(hi)
	if err != nil {
		return 0, nil, nil, nil, solves, err
	}
	if math.Signbit(fLo) == math.Signbit(fHi) {
		// Gain polarity or extreme offset: report the midpoint result
		// rather than failing (the numbers will say what is wrong).
		solves++
		op, eng, ckt, err = b.solvedOpenLoop(0)
		return 0, op, eng, ckt, solves, err
	}
	// With V(out) monotone in vid (positive gain through InP), bisect.
	for i := 0; i < 40; i++ {
		vid = 0.5 * (lo + hi)
		fm, err := solve(vid)
		if err != nil {
			return 0, nil, nil, nil, solves, err
		}
		if math.Abs(fm) < offsetTol || hi-lo < 1e-9 {
			break
		}
		if math.Signbit(fm) == math.Signbit(fLo) {
			lo = vid
		} else {
			hi = vid
		}
	}
	if op, eng, ckt, err = b.solvedOpenLoop(vid); err != nil {
		return 0, nil, nil, nil, solves, err
	}
	return vid, op, eng, ckt, solves, nil
}

// solvedOpenLoop builds the differential open-loop bench at input vid and
// solves its operating point cold.
func (b *Bench) solvedOpenLoop(vid float64) (*sim.OPResult, *sim.Engine, *circuit.Circuit, error) {
	ckt := b.openLoop(vid, true, false)
	eng := sim.NewEngine(ckt, b.Temp)
	op, err := eng.OP(sim.OPOptions{NodeSet: b.nodeSet()})
	return op, eng, ckt, err
}

// offsetTol is the output error at which the offset search stops.
const offsetTol = 1e-4

// acGainSweep measures DC gain, GBW and phase margin from the
// differential AC response and returns the AC solves it spent.
func (b *Bench) acGainSweep(eng *sim.Engine, ckt *circuit.Circuit, op *sim.OPResult, p *sizing.Performance) (int, error) {
	// One linearization at the bias point serves the DC-gain probe and
	// the unity-crossing search.
	solver := eng.PrepareAC(op)
	res, err := solver.Solve([]float64{1.0})
	if err != nil {
		return 1, err
	}
	p.DCGainDB = sizing.DB(cmplx.Abs(res[0].Volt(ckt, b.Out)))

	// A tolerance of 0 refines the crossing to a few ulps of ln f.
	c, err := solver.UnityCrossing(b.Out, 1e3, 3e9, 130, 0)
	if err != nil {
		return 1 + c.Solves, err
	}
	p.GBW = c.Freq
	p.PhaseDeg = sizing.PhaseMargin(c.H)
	return 1 + c.Solves, nil
}

// cmrr measures Adm/Acm at 1 kHz at the offset operating point op of
// the differential bench eng/ckt. The common-mode bench differs from the
// differential one only in its sources' AC magnitudes and phases, which
// the DC solve never reads, and has the same nodes in the same order, so
// op is bit-identical to the operating point a cold OP of the
// common-mode bench would find; both AC solves run at op.
func (b *Bench) cmrr(eng *sim.Engine, ckt *circuit.Circuit, op *sim.OPResult, voff float64, p *sizing.Performance) error {
	const f = 1e3
	resD, err := eng.AC(op, []float64{f})
	if err != nil {
		return err
	}
	adm := cmplx.Abs(resD[0].Volt(ckt, b.Out))

	cktC := b.openLoop(voff, false, true)
	resC, err := sim.NewEngine(cktC, b.Temp).AC(op, []float64{f})
	if err != nil {
		return err
	}
	acm := cmplx.Abs(resC[0].Volt(cktC, b.Out))
	if acm == 0 {
		p.CMRRDB = 200 // perfectly matched ideal — report a ceiling
		return nil
	}
	p.CMRRDB = sizing.DB(adm / acm)
	return nil
}

// rout injects an AC test current at the output with inputs AC-grounded.
func (b *Bench) rout(voff float64, p *sizing.Performance) error {
	ckt := b.openLoop(voff, false, false)
	ckt.Add(&circuit.ISource{Name: "tbrout", Pos: b.Out, Neg: circuit.Ground, ACMag: 1})
	eng := sim.NewEngine(ckt, b.Temp)
	op, err := eng.OP(sim.OPOptions{NodeSet: b.nodeSet()})
	if err != nil {
		return err
	}
	res, err := eng.AC(op, []float64{1.0})
	if err != nil {
		return err
	}
	p.Rout = cmplx.Abs(res[0].Volt(ckt, b.Out))
	return nil
}

// noise computes output noise via the adjoint method, refers it to the
// input with the differential gain, and extracts the three Table-1 noise
// figures.
func (b *Bench) noise(eng *sim.Engine, ckt *circuit.Circuit, op *sim.OPResult, p *sizing.Performance) error {
	if p.GBW <= 0 {
		return fmt.Errorf("noise needs GBW first")
	}
	freqs := sim.LogSpace(1, p.GBW, 200)
	pts, err := eng.Noise(op, b.Out, freqs)
	if err != nil {
		return err
	}
	acs, err := eng.AC(op, freqs)
	if err != nil {
		return err
	}
	// Input-referred PSD.
	svin := make([]float64, len(freqs))
	for i := range freqs {
		g := cmplx.Abs(acs[i].Volt(ckt, b.Out))
		if g < 1e-12 {
			g = 1e-12
		}
		svin[i] = pts[i].OutPSD / (g * g)
	}
	p.NoiseRMS = sim.IntegratePSD(freqs, svin)
	p.NoiseFl1 = math.Sqrt(svin[0])
	// White plateau: sample two decades below the unity frequency, where
	// 1/f has died out but the gain is still flat.
	plateau := p.GBW / 100
	for i, f := range freqs {
		if f >= plateau {
			p.NoiseTh = math.Sqrt(svin[i])
			break
		}
	}
	return nil
}

// The slew transient ends once the output has settled: past the input
// edge, the per-step output slope must stay below settleRatio times the
// running maximum for settleSteps consecutive steps (5/GBW at the
// 0.02/GBW step). Every step run is the full run's, so the maximum over
// the stopped run equals the full 60/GBW run's unless a later step is
// steeper. On the designs the test suites measure, the maximum comes at
// most 30 steps after the edge and the stop 310 or more;
// core's TestCornerSweep checks the equality against full transients.
const (
	settleRatio = 1e-3
	settleSteps = 250
)

// slewRate steps a unity-gain buffer and measures the max output slope.
func (b *Bench) slewRate(p *sizing.Performance) error {
	if p.GBW <= 0 {
		return fmt.Errorf("slew rate needs GBW first")
	}
	ckt, opts := b.SlewBench(p.GBW)
	out, _ := ckt.NodeIndex(b.Out)
	edge := 4 / p.GBW
	var maxSlope float64
	quiet := 0
	settled := func(r *sim.TranResult) bool {
		k := len(r.T) - 1
		s := math.Abs(r.V[k][out]-r.V[k-1][out]) / (r.T[k] - r.T[k-1])
		if s > maxSlope {
			maxSlope = s
		}
		if r.T[k] <= edge {
			return false
		}
		if s < settleRatio*maxSlope {
			quiet++
		} else {
			quiet = 0
		}
		return quiet >= settleSteps
	}
	res, err := sim.NewEngine(ckt, b.Temp).TranUntil(60/p.GBW, 0.02/p.GBW, opts, settled)
	if err != nil {
		return err
	}
	slope, _ := res.MaxSlope(ckt, b.Out)
	p.SlewRate = slope
	return nil
}

// SlewBench builds the slew-rate testbench for an amplifier of unity-gain
// frequency gbw: the amplifier as a unity-gain buffer with its load,
// driven by a 0.8 V input step 4/gbw after t = 0, and the DC options that
// seed its initial condition. The slew rate is the maximum output slope
// of a transient at a 0.02/gbw step, which may run up to 60/gbw.
func (b *Bench) SlewBench(gbw float64) (*circuit.Circuit, sim.OPOptions) {
	ckt := b.Build()
	// Unity feedback: inn follows out. A large resistor avoids merging
	// the nodes so the builder's netlist stays untouched.
	step := 0.8
	ckt.Add(
		&circuit.Resistor{Name: "tbfb", A: b.Out, B: b.InN, R: 1.0},
		&circuit.VSource{Name: "tbstep", Pos: b.InP, Neg: circuit.Ground,
			DC: b.VicmDC - step/2,
			Pulse: &circuit.Pulse{
				V1: b.VicmDC - step/2, V2: b.VicmDC + step/2,
				Delay: 4 / gbw, Rise: 1e-10,
			}},
		&circuit.Capacitor{Name: "tbload", A: b.Out, B: circuit.Ground, C: b.CL},
	)
	ns := b.nodeSet()
	ns[b.InP] = b.VicmDC - step/2
	ns[b.InN] = b.VicmDC - step/2
	ns[b.Out] = b.VicmDC - step/2
	return ckt, sim.OPOptions{NodeSet: ns}
}
