package mc

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"loas/internal/circuit"
	"loas/internal/parallel"
	"loas/internal/sim"
	"loas/internal/sizing"
	"loas/internal/techno"
)

// coldSimulateOffset is the reference offset search: the same bisection
// as simulateOffset with every probe solved cold (a full sim.OP from the
// node set). It also returns the Newton iterations it spent.
func coldSimulateOffset(cfg OffsetConfig, s Sample) (float64, int, error) {
	search := cfg.SearchMV
	if search <= 0 {
		search = 25
	}
	ckt := cfg.Build()
	s.Apply(ckt)
	vp := &circuit.VSource{Name: "mcp", Pos: cfg.InP, Neg: circuit.Ground}
	vn := &circuit.VSource{Name: "mcn", Pos: cfg.InN, Neg: circuit.Ground}
	ckt.Add(vp, vn)
	eng := sim.NewEngine(ckt, cfg.Temp)
	ns := map[string]float64{cfg.InP: cfg.VicmDC, cfg.InN: cfg.VicmDC, cfg.Out: cfg.VoutMid}
	for k, v := range cfg.NodeSet {
		ns[k] = v
	}
	newton := 0
	solve := func(vid float64) (float64, error) {
		vp.DC = cfg.VicmDC + vid/2
		vn.DC = cfg.VicmDC - vid/2
		op, err := eng.OP(sim.OPOptions{NodeSet: ns})
		if err != nil {
			return 0, err
		}
		newton += op.Iterations
		return op.Volt(ckt, cfg.Out) - cfg.VoutMid, nil
	}
	lo, hi := -search*1e-3, search*1e-3
	fLo, err := solve(lo)
	if err != nil {
		return 0, newton, err
	}
	fHi, err := solve(hi)
	if err != nil {
		return 0, newton, err
	}
	if math.Signbit(fLo) == math.Signbit(fHi) {
		return 0, newton, fmt.Errorf("mc: offset outside ±%.0f mV search window", search)
	}
	var vid float64
	for i := 0; i < 18; i++ {
		vid = 0.5 * (lo + hi)
		f, err := solve(vid)
		if err != nil {
			return 0, newton, err
		}
		if math.Signbit(f) == math.Signbit(fLo) {
			lo = vid
		} else {
			hi = vid
		}
	}
	return vid, newton, nil
}

// topoConfig builds the Monte-Carlo offset bench on a topology's case-4
// design at its default spec, as `loas mc` does.
func topoConfig(t *testing.T, topo string) OffsetConfig {
	t.Helper()
	tech := techno.Default060()
	plan, err := sizing.Lookup(topo)
	if err != nil {
		t.Fatal(err)
	}
	ps, err := sizing.Case(4)
	if err != nil {
		t.Fatal(err)
	}
	spec := plan.DefaultSpec()
	d, err := plan.Size(tech, spec, ps)
	if err != nil {
		t.Fatal(err)
	}
	return OffsetConfig{
		Build:   func() *circuit.Circuit { return d.Netlist("mc") },
		InP:     sizing.NetInP,
		InN:     sizing.NetInN,
		Out:     sizing.NetOut,
		VicmDC:  0.5 * (spec.ICMLow + spec.ICMHigh),
		VoutMid: 0.5 * (spec.OutLow + spec.OutHigh),
		Temp:    tech.Temp,
		NodeSet: d.NodeSet(),
		Workers: 2,
	}
}

// TestWarmOffsetMatchesCold: the warm-started offset search returns,
// sample for sample, the bits and the OK flag of the cold-per-probe
// reference, on 200 samples of each topology's case-4 design. The
// samples run on two workers, so under -race the test also checks that
// no warm state is shared between them.
func TestWarmOffsetMatchesCold(t *testing.T) {
	const n, seed = 200, 1
	for _, topo := range sizing.Topologies() {
		t.Run(topo, func(t *testing.T) {
			cfg := topoConfig(t, topo)
			warm, err := OffsetSamples(cfg, 0, n, seed)
			if err != nil {
				t.Fatal(err)
			}
			cold, err := parallel.MapN(context.Background(), cfg.Workers, n,
				func(_ context.Context, i int) (OffsetSample, error) {
					s := Draw(rand.New(rand.NewSource(sampleSeed(seed, i))), cfg.Build())
					off, _, err := coldSimulateOffset(cfg, s)
					return OffsetSample{Index: i, OffsetV: off, OK: err == nil}, nil
				})
			if err != nil {
				t.Fatal(err)
			}
			ok := 0
			for i := range cold {
				w, c := warm[i], cold[i]
				if w.OK != c.OK || math.Float64bits(w.OffsetV) != math.Float64bits(c.OffsetV) {
					t.Fatalf("sample %d: warm %+v (%x), cold %+v (%x)",
						i, w, math.Float64bits(w.OffsetV), c, math.Float64bits(c.OffsetV))
				}
				if c.OK {
					ok++
				}
			}
			if ok < n/2 {
				t.Fatalf("only %d of %d samples converged: the comparison is mostly failures", ok, n)
			}
		})
	}
}

// TestWarmOffsetNewtonCount pins the Newton iterations of one case-4
// folded-cascode sample: probes after the first continue from the
// previous solution instead of re-running the gmin continuation. The
// count is deterministic; a return to cold probes fails here.
func TestWarmOffsetNewtonCount(t *testing.T) {
	cfg := topoConfig(t, sizing.DefaultTopology)
	s := Draw(rand.New(rand.NewSource(sampleSeed(1, 0))), cfg.Build())
	vid, warm, err := simulateOffset(cfg, s)
	if err != nil {
		t.Fatal(err)
	}
	ref, cold, err := coldSimulateOffset(cfg, s)
	if err != nil {
		t.Fatal(err)
	}
	if math.Float64bits(vid) != math.Float64bits(ref) {
		t.Fatalf("offset %x, cold reference %x", math.Float64bits(vid), math.Float64bits(ref))
	}
	const want = 176
	if warm != want {
		t.Fatalf("warm-started sample spent %d Newton iterations, want %d (cold reference %d)", warm, want, cold)
	}
}
