package core

import (
	"encoding/json"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"testing"

	"loas/internal/layout/route"
	"loas/internal/sizing"
	"loas/internal/techno"
)

// The differential harness: every cold-path cache layer (device-eval
// memo, incremental extraction, shape-function cache) must be
// bit-invisible. Each subtest runs the same synthesis
// twice — all caches disabled vs all enabled — and asserts hex-exact
// byte identity of the Summary, the iteration trace, the parasitic
// report and the full layout geometry. Timing fields are the only
// exclusion (they measure the caches' purpose).

// cachesOff disables all three synthesis cache layers; the zero value
// enables them.
var cachesOff = CacheOptions{
	DisableEvalMemo:           true,
	DisableIncrementalExtract: true,
	DisableShapeCache:         true,
}

func hx(v float64) string { return strconv.FormatFloat(v, 'x', -1, 64) }

func fpPerf(b *strings.Builder, tag string, p sizing.Performance) {
	fmt.Fprintf(b, "%s: gain=%s gbw=%s pm=%s sr=%s cmrr=%s off=%s rout=%s nrms=%s nth=%s nfl=%s pwr=%s\n",
		tag, hx(p.DCGainDB), hx(p.GBW), hx(p.PhaseDeg), hx(p.SlewRate), hx(p.CMRRDB),
		hx(p.Offset), hx(p.Rout), hx(p.NoiseRMS), hx(p.NoiseTh), hx(p.NoiseFl1), hx(p.Power))
}

// fingerprint renders everything a synthesis produced — summary, trace,
// parasitics, geometry — with every float in exact hex; two runs agree
// iff their results are bit-identical.
func fingerprint(t *testing.T, res *Result) string {
	t.Helper()
	var b strings.Builder
	s := res.Summary()
	fmt.Fprintf(&b, "topology=%s layout=%s layout_calls=%d sizing_passes=%d\n",
		s.Topology, s.Layout, s.LayoutCalls, s.SizingPasses)
	fpPerf(&b, "synthesized", s.Synthesized)
	fpPerf(&b, "extracted", s.Extracted)
	fmt.Fprintf(&b, "floorplan: w=%s h=%s area=%s\n", hx(s.WidthUM), hx(s.HeightUM), hx(s.AreaUM2))
	if s.Refine != nil {
		// The refine report carries no wall-clock; JSON floats use the
		// shortest round-trip rendering, which is injective on bit
		// patterns.
		j, err := json.Marshal(s.Refine)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&b, "refine: %s\n", j)
	}

	for _, it := range res.Trace {
		fmt.Fprintf(&b, "iter r%d c%d: delta=%s out=%s hot=%s total=%s folds=%d w1=%s lc=%s itail=%s\n",
			it.Round, it.Call, hx(it.DeltaF), hx(it.OutCapF), hx(it.FN1CapF), hx(it.TotalCapF),
			it.Folds, hx(it.W1), hx(it.Lc), hx(it.Itail))
	}

	par := res.Parasitics
	var names []string
	for n := range par.NetCap {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(&b, "netcap %s=%s\n", n, hx(par.NetCap[n]))
	}
	pairs := make([]route.NetPair, 0, len(par.Coupling))
	for p := range par.Coupling {
		pairs = append(pairs, p)
	}
	sort.Slice(pairs, func(i, j int) bool {
		if pairs[i].A != pairs[j].A {
			return pairs[i].A < pairs[j].A
		}
		return pairs[i].B < pairs[j].B
	})
	for _, p := range pairs {
		fmt.Fprintf(&b, "coupling %s~%s=%s\n", p.A, p.B, hx(par.Coupling[p]))
	}
	names = names[:0]
	for n := range par.WellCap {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(&b, "wellcap %s=%s\n", n, hx(par.WellCap[n]))
	}
	names = names[:0]
	for n := range par.DeviceGeom {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		g := par.DeviceGeom[n]
		f := par.Folds[n]
		fmt.Fprintf(&b, "dev %s: ad=%s pd=%s as=%s ps=%s folds=%d fw=%s style=%d strips=%d/%d/%d/%d\n",
			n, hx(g.AD), hx(g.PD), hx(g.AS), hx(g.PS),
			f.Folds, hx(f.FingerW), f.Style, f.DrainStrips, f.DrainExt, f.SourceStrips, f.SourceExt)
	}

	cell := res.Layout.Cell
	fmt.Fprintf(&b, "cell %s: %d shapes %d ports\n", cell.Name, len(cell.Shapes), len(cell.Ports))
	for _, sh := range cell.Shapes {
		fmt.Fprintf(&b, "shape %d %d,%d,%d,%d %s\n", sh.Layer, sh.R.L, sh.R.B, sh.R.R, sh.R.T, sh.Net)
	}
	for _, p := range cell.Ports {
		fmt.Fprintf(&b, "port %s %s %d %d,%d,%d,%d\n", p.Name, p.Net, p.Layer, p.R.L, p.R.B, p.R.R, p.R.T)
	}
	return b.String()
}

func diffFingerprints(t *testing.T, off, on string) {
	t.Helper()
	if off == on {
		return
	}
	lo, ln := strings.Split(off, "\n"), strings.Split(on, "\n")
	for i := 0; i < len(lo) && i < len(ln); i++ {
		if lo[i] != ln[i] {
			t.Fatalf("caches changed the result at line %d:\n  off: %s\n  on:  %s", i+1, lo[i], ln[i])
		}
	}
	t.Fatalf("caches changed the result length: %d vs %d lines", len(lo), len(ln))
}

// TestDifferentialCachesOneShot pins bit identity of the one-shot flow
// for every registered topology, caches off vs on.
func TestDifferentialCachesOneShot(t *testing.T) {
	tech := techno.Default060()
	for _, topo := range sizing.Topologies() {
		topo := topo
		t.Run(topo, func(t *testing.T) {
			t.Parallel()
			plan, err := sizing.Lookup(topo)
			if err != nil {
				t.Fatal(err)
			}
			spec := plan.DefaultSpec()
			run := func(c CacheOptions) string {
				res, err := Synthesize(tech, spec, Options{Topology: topo, Caches: c})
				if err != nil {
					t.Fatalf("synthesize %s: %v", topo, err)
				}
				return fingerprint(t, res)
			}
			diffFingerprints(t, run(cachesOff), run(CacheOptions{}))
		})
	}
}

// TestDifferentialCachesRefined pins bit identity of the closed-loop
// refined flow (the heaviest cache consumer: caches are shared across
// refinement rounds) for every registered topology.
func TestDifferentialCachesRefined(t *testing.T) {
	tech := techno.Default060()
	for _, topo := range sizing.Topologies() {
		topo := topo
		t.Run(topo, func(t *testing.T) {
			t.Parallel()
			plan, err := sizing.Lookup(topo)
			if err != nil {
				t.Fatal(err)
			}
			spec := plan.DefaultSpec()
			run := func(c CacheOptions) string {
				res, err := Synthesize(tech, spec, Options{
					Topology: topo,
					Caches:   c,
					Refine:   RefineOptions{Enabled: true, MaxRounds: 2},
				})
				if err != nil {
					t.Fatalf("refine %s: %v", topo, err)
				}
				return fingerprint(t, res)
			}
			diffFingerprints(t, run(cachesOff), run(CacheOptions{}))
		})
	}
}

// TestDifferentialCachesRowsBackend pins bit identity of the one-shot
// flow under the row-based layout backend for every registered topology
// — the cache layers must be bit-invisible for every backend, not just
// the default slicing generator.
func TestDifferentialCachesRowsBackend(t *testing.T) {
	tech := techno.Default060()
	for _, topo := range sizing.Topologies() {
		topo := topo
		t.Run(topo, func(t *testing.T) {
			t.Parallel()
			plan, err := sizing.Lookup(topo)
			if err != nil {
				t.Fatal(err)
			}
			spec := plan.DefaultSpec()
			run := func(c CacheOptions) string {
				res, err := Synthesize(tech, spec, Options{Topology: topo, Layout: "rows", Caches: c})
				if err != nil {
					t.Fatalf("synthesize %s under rows: %v", topo, err)
				}
				if res.LayoutBackend != "rows" {
					t.Fatalf("result backend %q, want rows", res.LayoutBackend)
				}
				return fingerprint(t, res)
			}
			diffFingerprints(t, run(cachesOff), run(CacheOptions{}))
		})
	}
}
