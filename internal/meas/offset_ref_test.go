package meas

import (
	"fmt"
	"math"
	"math/cmplx"
	"testing"

	"loas/internal/circuit"
	"loas/internal/sim"
	"loas/internal/sizing"
	"loas/internal/techno"
)

// coldFindOffset is the reference offset search: the same bisection as
// findOffset with every probe a fresh bench solved cold, the last probe's
// bench being the one returned.
func (b *Bench) coldFindOffset() (vid float64, op *sim.OPResult, solves int, err error) {
	solve := func(v float64) (float64, error) {
		solves++
		ckt := b.openLoop(v, true, false)
		var err error
		if op, err = sim.NewEngine(ckt, b.Temp).OP(sim.OPOptions{NodeSet: b.nodeSet()}); err != nil {
			return 0, err
		}
		return op.Volt(ckt, b.Out) - b.VoutMid, nil
	}
	lo, hi := -20e-3, 20e-3
	fLo, err := solve(lo)
	if err != nil {
		return 0, nil, solves, err
	}
	fHi, err := solve(hi)
	if err != nil {
		return 0, nil, solves, err
	}
	if math.Signbit(fLo) == math.Signbit(fHi) {
		_, err = solve(0)
		return 0, op, solves, err
	}
	for i := 0; i < 40; i++ {
		vid = 0.5 * (lo + hi)
		fm, err := solve(vid)
		if err != nil {
			return 0, nil, solves, err
		}
		if math.Abs(fm) < 1e-4 || hi-lo < 1e-9 {
			break
		}
		if math.Signbit(fm) == math.Signbit(fLo) {
			lo = vid
		} else {
			hi = vid
		}
	}
	return vid, op, solves, nil
}

// coldCMRR is the reference CMRR: each of the two benches solved cold at
// the offset.
func (b *Bench) coldCMRR(voff float64) (float64, error) {
	gain := func(acDiff, acCM bool) (float64, error) {
		ckt := b.openLoop(voff, acDiff, acCM)
		eng := sim.NewEngine(ckt, b.Temp)
		op, err := eng.OP(sim.OPOptions{NodeSet: b.nodeSet()})
		if err != nil {
			return 0, err
		}
		res, err := eng.AC(op, []float64{1e3})
		if err != nil {
			return 0, err
		}
		return cmplx.Abs(res[0].Volt(ckt, b.Out)), nil
	}
	adm, err := gain(true, false)
	if err != nil {
		return 0, err
	}
	acm, err := gain(false, true)
	if err != nil {
		return 0, err
	}
	if acm == 0 {
		return 200, nil
	}
	return sizing.DB(adm / acm), nil
}

// topoBench builds the synthesized-column bench of a topology's design
// at its default spec under parasitic case caseN, as core.OTABench does.
func topoBench(t *testing.T, topo string, caseN int) Bench {
	t.Helper()
	tech := techno.Default060()
	plan, err := sizing.Lookup(topo)
	if err != nil {
		t.Fatal(err)
	}
	ps, err := sizing.Case(caseN)
	if err != nil {
		t.Fatal(err)
	}
	spec := plan.DefaultSpec()
	d, err := plan.Size(tech, spec, ps)
	if err != nil {
		t.Fatal(err)
	}
	return Bench{
		Build:      func() *circuit.Circuit { return d.AssumedNetlist("meas") },
		InP:        sizing.NetInP,
		InN:        sizing.NetInN,
		Out:        sizing.NetOut,
		SupplyName: "dd",
		CL:         spec.CL,
		VicmDC:     math.Max(0.5*(spec.ICMLow+spec.ICMHigh), 0.3),
		VoutMid:    0.5 * (spec.OutLow + spec.OutHigh),
		Temp:       tech.Temp,
		NodeSet:    d.NodeSet(),
	}
}

// TestWarmFindOffsetMatchesCold: the warm-started systematic-offset
// search returns the cold-per-probe reference's offset bits, probe count
// and operating point bits, and CMRR at the reused operating point equals
// the two-cold-solve reference, on every topology under cases 1–4.
func TestWarmFindOffsetMatchesCold(t *testing.T) {
	for _, topo := range sizing.Topologies() {
		for caseN := 1; caseN <= 4; caseN++ {
			t.Run(fmt.Sprintf("%s/case%d", topo, caseN), func(t *testing.T) {
				b := topoBench(t, topo, caseN)
				vid, op, eng, ckt, solves, err := b.findOffset()
				if err != nil {
					t.Fatal(err)
				}
				rVid, rOp, rSolves, err := b.coldFindOffset()
				if err != nil {
					t.Fatal(err)
				}
				if math.Float64bits(vid) != math.Float64bits(rVid) || solves != rSolves {
					t.Fatalf("offset %x in %d probes, cold reference %x in %d",
						math.Float64bits(vid), solves, math.Float64bits(rVid), rSolves)
				}
				for i := range rOp.V {
					if math.Float64bits(op.V[i]) != math.Float64bits(rOp.V[i]) {
						t.Fatalf("V[%d] = %x, cold reference %x", i, math.Float64bits(op.V[i]), math.Float64bits(rOp.V[i]))
					}
				}
				var p sizing.Performance
				if err := b.cmrr(eng, ckt, op, vid, &p); err != nil {
					t.Fatal(err)
				}
				want, err := b.coldCMRR(vid)
				if err != nil {
					t.Fatal(err)
				}
				if math.Float64bits(p.CMRRDB) != math.Float64bits(want) {
					t.Fatalf("CMRR %v dB at the offset point, cold reference %v dB", p.CMRRDB, want)
				}
			})
		}
	}
}
