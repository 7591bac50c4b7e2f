package sizing

import (
	"fmt"
	"math"
	"math/cmplx"

	"loas/internal/circuit"
	"loas/internal/device"
	"loas/internal/sim"
	"loas/internal/techno"
)

// SignalNets lists the internal nets whose wiring capacitance matters to
// the small-signal behaviour.
func SignalNets() []string {
	return []string{NetOut, NetFN1, NetFN2, NetMO1, NetN3, NetN4, NetTail, NetInP, NetInN}
}

// AssumedNetlist builds the amplifier netlist under the sizing-time
// parasitic assumptions: junction geometries as the ParasiticState
// resolved them (already baked into the device table) plus, when routing
// awareness is on, the last layout report's wiring/coupling/well
// capacitance lumped onto each signal net. This is the netlist whose
// simulation gives the paper's unbracketed "synthesized" column.
func (d *FoldedCascode) AssumedNetlist(name string) *circuit.Circuit {
	ckt := d.Netlist(name)
	if d.Par.Routing && d.Par.Report != nil {
		for _, net := range SignalNets() {
			if c := d.Par.wiringCap(net); c > 0 {
				ckt.Add(&circuit.Capacitor{Name: "asm_" + net, A: net, B: circuit.Ground, C: c})
			}
		}
	}
	return ckt
}

// simulateGBWPM runs a small-signal evaluation of the current sizing
// point: DC operating point, then an AC sweep to locate the unity-gain
// frequency and phase margin. This replaces closed-form pole counting —
// the design plan evaluates performance on the exact same engine and
// models the verification uses, which is the paper's stated accuracy
// recipe taken to its conclusion.
func (p *plan) simulateGBWPM() (gbw, pm float64, err error) {
	ckt, ns := p.d.gbwBench(p.spec)
	return EvalGBWPM(p.tech, ckt, NetOut, ns)
}

// gbwBench is the sizing evaluation's testbench: the assumed netlist
// with differential AC drive at the spec's input common mode (no lower
// than 0.3 V) and the spec's load, and its DC node set.
func (d *FoldedCascode) gbwBench(spec OTASpec) (*circuit.Circuit, map[string]float64) {
	ckt := d.AssumedNetlist("sizing-eval")
	vicm := 0.5 * (spec.ICMLow + spec.ICMHigh)
	if vicm < 0.3 {
		vicm = 0.3
	}
	ckt.Add(
		&circuit.VSource{Name: "szp", Pos: NetInP, Neg: circuit.Ground, DC: vicm, ACMag: 0.5},
		&circuit.VSource{Name: "szn", Pos: NetInN, Neg: circuit.Ground, DC: vicm, ACMag: 0.5, ACPhase: 180},
		&circuit.Capacitor{Name: "szload", A: NetOut, B: circuit.Ground, C: spec.CL},
	)
	ns := d.NodeSet()
	ns[NetInP], ns[NetInN] = vicm, vicm
	return ckt, ns
}

// EvalGBWPM measures the unity-gain frequency and phase margin of a
// prepared differential testbench circuit (AC drive and load already
// attached). Shared by every design plan's evaluation step.
func EvalGBWPM(tech *techno.Tech, ckt *circuit.Circuit, out string, nodeset map[string]float64) (gbw, pm float64, err error) {
	c, err := evalCrossing(tech, ckt, out, nodeset)
	if err != nil {
		return 0, 0, err
	}
	return c.Freq, PhaseMargin(c.H), nil
}

// evalCrossing is EvalGBWPM's unity crossing, with its AC solve count.
func evalCrossing(tech *techno.Tech, ckt *circuit.Circuit, out string, nodeset map[string]float64) (sim.Crossing, error) {
	eng := sim.NewEngine(ckt, tech.Temp)
	op, err := eng.OP(sim.OPOptions{NodeSet: nodeset})
	if err != nil {
		return sim.Crossing{}, fmt.Errorf("sizing: evaluation OP: %w", err)
	}
	// The crossing is refined to the 40-point grid's step in ln f halved
	// 25 times, about 6e-9.
	tol := math.Log(3e9/1e6) / 39 / (1 << 25)
	c, err := eng.PrepareAC(op).UnityCrossing(out, 1e6, 3e9, 40, tol)
	if err != nil {
		return c, fmt.Errorf("sizing: %w", err)
	}
	return c, nil
}

// PhaseMargin is 180° plus the phase of the loop response h at the unity
// crossing, in (−180°, 180°]. Differential drive is +0.5/−0.5, so the
// phase at DC is 0° on the non-inverting path.
func PhaseMargin(h complex128) float64 {
	pm := 180 + cmplx.Phase(h)*180/math.Pi
	for pm > 180 {
		pm -= 360
	}
	return pm
}

// BiasFor recomputes the four bias voltages on an alternate technology
// (e.g. a process corner) for the same device sizes and node targets —
// the role of an on-chip bias generator that tracks the process. Used by
// the corner verification.
func (d *FoldedCascode) BiasFor(tech *techno.Tech) (map[string]float64, error) {
	out := map[string]float64{}
	vdd := d.Spec.VDD

	n5 := d.Devices[MN5]
	mn5 := device.MOS{Card: &tech.N, W: n5.W, L: n5.L}
	vgs, err := mn5.VGSForCurrent(n5.ID, d.NodeEst[NetFN1], 0, tech.Temp)
	if err != nil {
		return nil, fmt.Errorf("sizing: corner vbn: %w", err)
	}
	out[NetVBN] = vgs

	c := d.Devices[MN1C]
	mn1c := device.MOS{Card: &tech.N, W: c.W, L: c.L}
	vgsC, err := mn1c.VGSForCurrent(c.ID, d.NodeEst[NetMO1]-d.NodeEst[NetFN1], c.VSB, tech.Temp)
	if err != nil {
		return nil, fmt.Errorf("sizing: corner vc1: %w", err)
	}
	out[NetVC1] = d.NodeEst[NetFN1] + vgsC

	t := d.Devices[MP5]
	mp5 := device.MOS{Card: &tech.P, W: t.W, L: t.L}
	vgsT, err := mp5.VGSForCurrent(t.ID, vdd-d.NodeEst[NetTail], 0, tech.Temp)
	if err != nil {
		return nil, fmt.Errorf("sizing: corner vbp: %w", err)
	}
	out[NetVBP] = vdd - vgsT

	pc := d.Devices[MP3C]
	mp3c := device.MOS{Card: &tech.P, W: pc.W, L: pc.L}
	vgsPC, err := mp3c.VGSForCurrent(pc.ID, d.NodeEst[NetN3]-d.NodeEst[NetMO1], pc.VSB, tech.Temp)
	if err != nil {
		return nil, fmt.Errorf("sizing: corner vc3: %w", err)
	}
	out[NetVC3] = d.NodeEst[NetN3] - vgsPC
	return out, nil
}
