package meas

import (
	"errors"
	"math"
	"sync"
	"testing"

	"loas/internal/circuit"
	"loas/internal/sim"
	"loas/internal/sizing"
	"loas/internal/techno"
)

// The measurement harness is validated on the case-1 folded-cascode OTA
// (cheap: no layout loop) against the sizing tool's own evaluation — the
// two share models, so they must agree where they model the same things.

var (
	once    sync.Once
	design  *sizing.FoldedCascode
	report  *Report
	measErr error
)

func measured(t *testing.T) (*sizing.FoldedCascode, *Report) {
	t.Helper()
	once.Do(func() {
		tech := techno.Default060()
		ps, _ := sizing.Case(1)
		d, err := sizing.SizeFoldedCascode(tech, sizing.Default65MHz(), ps)
		if err != nil {
			measErr = err
			return
		}
		design = d
		b := Bench{
			Build:      func() *circuit.Circuit { return d.AssumedNetlist("meas") },
			InP:        sizing.NetInP,
			InN:        sizing.NetInN,
			Out:        sizing.NetOut,
			SupplyName: "dd",
			CL:         d.Spec.CL,
			VicmDC:     0.645,
			VoutMid:    1.41,
			Temp:       tech.Temp,
			NodeSet:    d.NodeSet(),
		}
		report, measErr = Measure(b)
	})
	if measErr != nil {
		t.Fatal(measErr)
	}
	return design, report
}

func TestMeasureAgreesWithSizingEvaluation(t *testing.T) {
	d, rep := measured(t)
	// GBW and PM were *simulated* by the sizing plan on the same
	// netlist; the harness must agree closely.
	if rel := math.Abs(rep.Perf.GBW-d.Predicted.GBW) / d.Predicted.GBW; rel > 0.02 {
		t.Fatalf("GBW: harness %.2f MHz vs plan %.2f MHz",
			rep.Perf.GBW/1e6, d.Predicted.GBW/1e6)
	}
	if math.Abs(rep.Perf.PhaseDeg-d.Predicted.PhaseDeg) > 1.0 {
		t.Fatalf("PM: harness %.2f° vs plan %.2f°",
			rep.Perf.PhaseDeg, d.Predicted.PhaseDeg)
	}
}

func TestMeasureGainAndRout(t *testing.T) {
	_, rep := measured(t)
	if rep.Perf.DCGainDB < 60 || rep.Perf.DCGainDB > 90 {
		t.Fatalf("gain %.1f dB outside the folded-cascode ballpark", rep.Perf.DCGainDB)
	}
	if rep.Perf.Rout < 0.5e6 || rep.Perf.Rout > 20e6 {
		t.Fatalf("Rout %.2f MΩ implausible", rep.Perf.Rout/1e6)
	}
	// Self-consistency: Av ≈ gm1·Rout within a factor ~2 (gm1 from the
	// unity frequency: gm1 = 2π·GBW·CL plus internal caps).
	gmEst := 2 * math.Pi * rep.Perf.GBW * 3e-12
	avEst := sizing.DB(gmEst * rep.Perf.Rout)
	if math.Abs(avEst-rep.Perf.DCGainDB) > 6 {
		t.Fatalf("gain %.1f dB inconsistent with gm·Rout %.1f dB",
			rep.Perf.DCGainDB, avEst)
	}
}

func TestMeasureOffsetTiny(t *testing.T) {
	_, rep := measured(t)
	// The schematic is symmetric: only second-order systematic offset
	// remains.
	if math.Abs(rep.Perf.Offset) > 2e-3 {
		t.Fatalf("offset %.3f mV too large for a symmetric OTA", rep.Perf.Offset*1e3)
	}

	// The offset search reports its DC solves: two bracket ends plus the
	// bisection steps. Pinned on the case-4 sizing of the same spec (its
	// first pass, before any layout feedback).
	tech := techno.Default060()
	ps, _ := sizing.Case(4)
	d4, err := sizing.SizeFoldedCascode(tech, sizing.Default65MHz(), ps)
	if err != nil {
		t.Fatal(err)
	}
	rep4, err := Measure(benchFor(d4))
	if err != nil {
		t.Fatal(err)
	}
	if rep4.OffsetIterations != 21 {
		t.Fatalf("case-4 offset search took %d DC solves, want 21", rep4.OffsetIterations)
	}
	// The differential AC solves: the 1 Hz gain probe, the 130-point
	// grid up to the first point below unity, and the refinement. A
	// full-grid sweep or a fixed bisection would be about 180.
	if rep4.ACSolves != 108 {
		t.Fatalf("case-4 gain/GBW/PM took %d AC solves, want 108", rep4.ACSolves)
	}
	if math.Abs(rep4.Perf.Offset) > 2e-3 {
		t.Fatalf("case-4 offset %.3f mV too large for a symmetric OTA", rep4.Perf.Offset*1e3)
	}
}

// TestLowGBWCrossing loads the case-4 design until its unity crossing
// falls below 1 MHz, where the sizing evaluation's grid starts: the
// sizing evaluation must still find the crossing the harness measures,
// on the same testbench at the same bias.
func TestLowGBWCrossing(t *testing.T) {
	tech := techno.Default060()
	ps, _ := sizing.Case(4)
	d4, err := sizing.SizeFoldedCascode(tech, sizing.Default65MHz(), ps)
	if err != nil {
		t.Fatal(err)
	}
	b := benchFor(d4)
	b.CL = 300e-12
	rep, err := Measure(b)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Perf.GBW >= 1e6 {
		t.Fatalf("GBW %.4g Hz: the load does not push the crossing below 1 MHz", rep.Perf.GBW)
	}
	gbw, _, err := sizing.EvalGBWPM(tech, b.openLoop(rep.Perf.Offset, true, false), b.Out, b.nodeSet())
	if err != nil {
		t.Fatal(err)
	}
	if rel := math.Abs(gbw-rep.Perf.GBW) / rep.Perf.GBW; rel > 1e-6 {
		t.Fatalf("sizing evaluation %.9g Hz vs harness %.9g Hz (rel %.3g)", gbw, rep.Perf.GBW, rel)
	}
}

func TestMeasureNoiseOrdering(t *testing.T) {
	_, rep := measured(t)
	p := rep.Perf
	if p.NoiseTh <= 0 || p.NoiseFl1 <= 0 || p.NoiseRMS <= 0 {
		t.Fatal("noise figures missing")
	}
	// 1/f dominates at 1 Hz: flicker density far above the plateau.
	if p.NoiseFl1 < 10*p.NoiseTh {
		t.Fatalf("flicker at 1 Hz (%.3g) should dwarf the plateau (%.3g)",
			p.NoiseFl1, p.NoiseTh)
	}
	// Total integrated noise roughly thermal × √(π/2·GBW).
	est := p.NoiseTh * math.Sqrt(math.Pi/2*p.GBW)
	if p.NoiseRMS < 0.5*est || p.NoiseRMS > 2*est {
		t.Fatalf("integrated noise %.3g vs thermal estimate %.3g", p.NoiseRMS, est)
	}
}

func TestMeasureSlewRate(t *testing.T) {
	d, rep := measured(t)
	if rep.Perf.SlewRate <= 0 {
		t.Fatal("slew rate not measured")
	}
	// Bounded by the theoretical tail-current limit.
	limit := d.Itail / d.Spec.CL
	if rep.Perf.SlewRate > 1.2*limit {
		t.Fatalf("SR %.1f V/µs above the Itail/CL bound %.1f",
			rep.Perf.SlewRate/1e6, limit/1e6)
	}
	if rep.Perf.SlewRate < 0.3*limit {
		t.Fatalf("SR %.1f V/µs suspiciously far below Itail/CL %.1f",
			rep.Perf.SlewRate/1e6, limit/1e6)
	}
}

func TestMeasureCMRRAndPower(t *testing.T) {
	d, rep := measured(t)
	if rep.Perf.CMRRDB < 60 {
		t.Fatalf("CMRR %.1f dB too low", rep.Perf.CMRRDB)
	}
	wantP := d.Spec.VDD * (d.Itail + 2*d.Icasc)
	if math.Abs(rep.Perf.Power-wantP)/wantP > 0.05 {
		t.Fatalf("power %.3f mW vs budget %.3f mW",
			rep.Perf.Power*1e3, wantP*1e3)
	}
}

func TestMeasureRejectsBrokenBench(t *testing.T) {
	tech := techno.Default060()
	b := Bench{
		Build: func() *circuit.Circuit {
			// An amplifier with no gain path: input floating.
			c := circuit.New("broken")
			c.Add(
				&circuit.VSource{Name: "dd", Pos: "vdd", Neg: "0", DC: 3.3},
				&circuit.Resistor{Name: "r", A: "out", B: "0", R: 1e3},
				&circuit.Resistor{Name: "ri", A: "inp", B: "0", R: 1e6},
				&circuit.Resistor{Name: "rn", A: "inn", B: "0", R: 1e6},
			)
			return c
		},
		InP: "inp", InN: "inn", Out: "out",
		SupplyName: "dd", CL: 1e-12, VicmDC: 1, VoutMid: 1,
		Temp: tech.Temp,
	}
	if _, err := Measure(b); !errors.Is(err, sim.ErrNoCrossing) {
		t.Fatalf("gainless circuit: err %v, want the unity-crossing search's ErrNoCrossing", err)
	}
}
