// Benchmark harness: one benchmark per table/figure of the paper's
// evaluation, plus ablations on the design choices called out in
// DESIGN.md. Key reproduced quantities are attached as custom benchmark
// metrics so `go test -bench` output doubles as the experiment record:
//
//	Fig. 2  → BenchmarkFig2CapReduction
//	Fig. 3  → BenchmarkFig3CurrentMirror
//	Table 1 → BenchmarkTable1AllCases (case4_xgbw_MHz)
//	Fig. 5  → BenchmarkFig5Layout (area_um2)
//	Fig. 1  → BenchmarkFlowProposed / BenchmarkFlowTraditional
//	§6      → BenchmarkSCIntegrator
//
// End-to-end timing is not measured here: the perfbench module (declared
// in BENCHMARK.json) times Table 1 case by case (workload table1), the
// Monte-Carlo offset with its serial/parallel speedup (mc-offset) and the
// daemon's cache and dedup paths (service), with multi-sample medians.
// What stays here is what perfbench does not cover: the SynthesizeAll
// serial/parallel pair (BenchmarkTable1AllCasesSerial vs
// BenchmarkTable1AllCases, identical results, sec/op ratio = speedup),
// the per-topology syntheses, and the per-cache cold/warm ablations.
package loas

import (
	"fmt"
	"math/cmplx"
	"testing"

	"loas/internal/core"
	"loas/internal/device"
	"loas/internal/layout"
	"loas/internal/layout/cairo"
	"loas/internal/layout/slicing"
	"loas/internal/repro"
	"loas/internal/scfilter"
	"loas/internal/sizing"
	"loas/internal/techno"
)

func BenchmarkFig2CapReduction(b *testing.B) {
	var last []repro.Fig2Point
	for i := 0; i < b.N; i++ {
		last = repro.Fig2(64)
	}
	b.ReportMetric(last[3].External, "F_ext_nf4")
	b.ReportMetric(last[3].Internal, "F_int_nf4")
}

func BenchmarkFig3CurrentMirror(b *testing.B) {
	tech := techno.Default060()
	var r *repro.Fig3Result
	var err error
	for i := 0; i < b.N; i++ {
		r, err = repro.Fig3(tech)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(r.CentroidErr["M3"], "centroid_M3_pitch")
	b.ReportMetric(float64(r.Pattern.InsertedDummies), "dummies")
	b.ReportMetric(float64(r.Stack.Width)*1e-3, "width_um")
}

// BenchmarkTable1AllCasesSerial / BenchmarkTable1AllCases are the
// serial/parallel pair for the whole four-case experiment: same work,
// same results (TestSynthesizeAllMatchesSerial), sec/op is the speedup.
func BenchmarkTable1AllCasesSerial(b *testing.B) {
	tech := techno.Default060()
	spec := sizing.Default65MHz()
	var res *core.Result
	for i := 0; i < b.N; i++ {
		for c := 1; c <= core.NumTable1Cases; c++ {
			r, err := core.Synthesize(tech, spec, core.Options{Case: c})
			if err != nil {
				b.Fatal(err)
			}
			if c == core.NumTable1Cases {
				res = r
			}
		}
	}
	b.ReportMetric(res.Extracted.GBW/1e6, "case4_xgbw_MHz")
}

func BenchmarkTable1AllCases(b *testing.B) {
	tech := techno.Default060()
	spec := sizing.Default65MHz()
	var all []*core.Result
	var err error
	for i := 0; i < b.N; i++ {
		all, err = core.SynthesizeAll(tech, spec, core.Options{})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(all[3].Extracted.GBW/1e6, "case4_xgbw_MHz")
}

func BenchmarkFig5Layout(b *testing.B) {
	tech := techno.Default060()
	spec := sizing.Default65MHz()
	var r *repro.Fig5Result
	var err error
	for i := 0; i < b.N; i++ {
		r, err = repro.Fig5(tech, spec)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(r.Plan.Parasitics.AreaUM2, "area_um2")
}

func BenchmarkFlowProposed(b *testing.B) {
	tech := techno.Default060()
	spec := sizing.Default65MHz()
	var res *core.Result
	var err error
	for i := 0; i < b.N; i++ {
		res, err = core.Synthesize(tech, spec, core.Options{Case: 4})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(res.LayoutCalls), "layout_calls")
	b.ReportMetric(float64(res.SizingPasses), "sizing_passes")
}

func BenchmarkFlowTraditional(b *testing.B) {
	tech := techno.Default060()
	spec := sizing.Default65MHz()
	var res *core.TraditionalResult
	var err error
	for i := 0; i < b.N; i++ {
		res, err = core.TraditionalFlow(tech, spec, 10, core.Options{}.Shape)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(res.Iterations), "full_iterations")
	b.ReportMetric(res.GBWOverdrive, "gbw_overdrive")
}

func BenchmarkSCIntegrator(b *testing.B) {
	g := scfilter.Integrator{
		OTA: scfilter.OTAModel{DCGain: 4800, GBW: 65e6, SR: 78e6},
		Cs:  1e-12, Cf: 4e-12, Fs: 10e6,
	}
	var mag float64
	for i := 0; i < b.N; i++ {
		mag = cmplx.Abs(g.H(10e3))
	}
	b.ReportMetric(sizing.DB(mag), "H10k_dB")
	b.ReportMetric(g.SettlingError()*1e6, "settle_ppm")
}

// --- Ablations (design choices called out in DESIGN.md) -----------------

// BenchmarkAblationFoldStyle quantifies the frequency benefit of the
// paper's drain-internal folding rule: the drain-bulk capacitance of a
// 48 µm transistor under the three styles of Fig. 2.
func BenchmarkAblationFoldStyle(b *testing.B) {
	tech := techno.Default060()
	var u, in, ex float64
	for i := 0; i < b.N; i++ {
		u, in, ex = repro.FoldStyleComparison(tech, 48e-6, 4)
	}
	b.ReportMetric(u*1e15, "cdb_unfolded_fF")
	b.ReportMetric(in*1e15, "cdb_internal_fF")
	b.ReportMetric(ex*1e15, "cdb_external_fF")
}

// BenchmarkAblationEvalMethod compares the closed-form pole-counting
// phase margin against the simulated evaluation the sizing plan actually
// uses and the extracted measurement — the shared-models accuracy
// argument of the paper, quantified.
func BenchmarkAblationEvalMethod(b *testing.B) {
	tech := techno.Default060()
	spec := sizing.Default65MHz()
	var abl *repro.EvalAblation
	var err error
	for i := 0; i < b.N; i++ {
		abl, err = repro.RunEvalAblation(tech, spec)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(abl.PMAnalytic, "pm_analytic_deg")
	b.ReportMetric(abl.PMSimulated, "pm_simulated_deg")
	b.ReportMetric(abl.PMExtracted, "pm_extracted_deg")
}

// BenchmarkConvergenceTrace measures the paper's parasitic fixpoint loop
// call by call.
func BenchmarkConvergenceTrace(b *testing.B) {
	tech := techno.Default060()
	spec := sizing.Default65MHz()
	var pts []repro.ConvergencePoint
	var err error
	for i := 0; i < b.N; i++ {
		pts, err = repro.ConvergenceTrace(tech, spec, 8)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(pts)), "layout_calls")
	b.ReportMetric(pts[len(pts)-1].DeltaF*1e15, "final_delta_fF")
}

// BenchmarkAblationShapeConstraint measures how the shape constraint
// steers the floorplan: minimal-area versus a binding width cap, which
// forces taller fold/split choices and costs area.
func BenchmarkAblationShapeConstraint(b *testing.B) {
	tech := techno.Default060()
	spec := sizing.Default65MHz()
	ps, _ := sizing.Case(1)
	d, err := sizing.SizeFoldedCascode(tech, spec, ps)
	if err != nil {
		b.Fatal(err)
	}
	var free, narrow float64
	for i := 0; i < b.N; i++ {
		pf, err := d.Layout().Plan(tech, core.Options{}.Shape)
		if err != nil {
			b.Fatal(err)
		}
		free = pf.Parasitics.AreaUM2
		pn, err := d.Layout().Plan(tech, cairo.Constraint{MaxW: 70000})
		if err != nil {
			b.Fatal(err)
		}
		narrow = pn.Parasitics.AreaUM2
	}
	b.ReportMetric(free, "area_free_um2")
	b.ReportMetric(narrow, "area_constrained_um2")
}

// BenchmarkTwoStageSizing exercises the second topology of the library
// (the paper's "hierarchy simplifies the addition of new topologies").
func BenchmarkTwoStageSizing(b *testing.B) {
	tech := techno.Default060()
	spec := sizing.OTASpec{VDD: 3.3, GBW: 20e6, PM: 65, CL: 5e-12,
		ICMLow: 0.4, ICMHigh: 1.8, OutLow: 0.4, OutHigh: 2.9}
	ps, _ := sizing.Case(1)
	var d *sizing.TwoStage
	var err error
	for i := 0; i < b.N; i++ {
		d, err = sizing.SizeTwoStage(tech, spec, ps)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(d.Predicted.GBW/1e6, "gbw_MHz")
	b.ReportMetric(d.Predicted.PhaseDeg, "pm_deg")
	b.ReportMetric(d.CC*1e12, "cc_pF")
}

// benchSynthesizeTopology runs the full case-4 layout-in-the-loop
// synthesis (verification included) for one registered topology — the
// per-topology cost record from the registry PR onward.
func benchSynthesizeTopology(b *testing.B, topology string) {
	b.Helper()
	tech := techno.Default060()
	plan, err := sizing.Lookup(topology)
	if err != nil {
		b.Fatal(err)
	}
	spec := plan.DefaultSpec()
	var res *core.Result
	for i := 0; i < b.N; i++ {
		res, err = core.Synthesize(tech, spec, core.Options{Topology: topology, Case: 4})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(res.Extracted.GBW/1e6, "xgbw_MHz")
	b.ReportMetric(res.Extracted.PhaseDeg, "xpm_deg")
	b.ReportMetric(float64(res.LayoutCalls), "layout_calls")
}

func BenchmarkSynthesizeFoldedCascode(b *testing.B) { benchSynthesizeTopology(b, "folded-cascode") }
func BenchmarkSynthesizeTwoStage(b *testing.B)      { benchSynthesizeTopology(b, "two-stage") }
func BenchmarkSynthesizeFiveT(b *testing.B)         { benchSynthesizeTopology(b, "five-t") }

// BenchmarkCornerSweep times the five-corner verification, which also
// runs on the worker pool.
func BenchmarkCornerSweep(b *testing.B) {
	tech := techno.Default060()
	spec := sizing.Default65MHz()
	res, err := core.Synthesize(tech, spec, core.Options{Case: 4})
	if err != nil {
		b.Fatal(err)
	}
	var corners map[techno.Corner]sizing.Performance
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		corners, err = core.CornerSweep(tech, res)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(corners[techno.CornerSS].GBW/1e6, "ss_gbw_MHz")
	b.ReportMetric(corners[techno.CornerFF].GBW/1e6, "ff_gbw_MHz")
}

// --- Cold-path caching stage benchmarks ---
//
// One benchmark per cache layer, in cold/warm pairs where a cache is
// involved; the pair ratio is the layer's contribution to the cold-path
// speedup. Results are bit-identical either way (see
// internal/core/differential_test.go).

// BenchmarkModelCardEval: one full device-model evaluation — the drain
// current and its analytic conductances in one pass, plus the region
// and threshold bookkeeping.
func BenchmarkModelCardEval(b *testing.B) {
	tech := techno.Default060()
	m := device.MOS{Card: &tech.N, W: 50e-6, L: 1e-6}
	var op device.OP
	for i := 0; i < b.N; i++ {
		op = m.Eval(1.2, 1.5, 0, 0, tech.Temp)
	}
	b.ReportMetric(op.ID*1e3, "id_mA")
}

// BenchmarkModelCardEvalID: the ID-only evaluation, without the
// partials the DC solver's Jacobian takes from EvalIDGrad.
func BenchmarkModelCardEvalID(b *testing.B) {
	tech := techno.Default060()
	m := device.MOS{Card: &tech.N, W: 50e-6, L: 1e-6}
	var id float64
	for i := 0; i < b.N; i++ {
		id = m.EvalID(1.2, 1.5, 0, 0, tech.Temp)
	}
	b.ReportMetric(id*1e3, "id_mA")
}

// BenchmarkSizeBisectionCold: one 80-iteration width bisection on the
// exact model — the unit of work the evaluation memo short-circuits.
func BenchmarkSizeBisectionCold(b *testing.B) {
	tech := techno.Default060()
	var w float64
	var err error
	for i := 0; i < b.N; i++ {
		w, err = device.SizeForCurrent(&tech.N, 1e-6, 0.2, 0, 1e-4, tech.Temp, 1e-6, 2e-2)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(w*1e6, "w_um")
}

// BenchmarkSizeBisectionMemoHit: the same bisection served from the
// evaluation memo (exact-key lookup, no model evaluation at all).
func BenchmarkSizeBisectionMemoHit(b *testing.B) {
	tech := techno.Default060()
	memo := device.NewMemo(0)
	if _, err := memo.SizeForCurrent(&tech.N, 1e-6, 0.2, 0, 1e-4, tech.Temp, 1e-6, 2e-2); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var w float64
	var err error
	for i := 0; i < b.N; i++ {
		w, err = memo.SizeForCurrent(&tech.N, 1e-6, 0.2, 0, 1e-4, tech.Temp, 1e-6, 2e-2)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(w*1e6, "w_um")
}

// benchFCDesign sizes the paper's folded-cascode once for the layout
// benchmarks.
func benchFCDesign(b *testing.B) *sizing.FoldedCascode {
	b.Helper()
	tech := techno.Default060()
	ps, _ := sizing.Case(3)
	d, err := sizing.SizeFoldedCascode(tech, sizing.Default65MHz(), ps)
	if err != nil {
		b.Fatal(err)
	}
	return d
}

// BenchmarkLayoutPlanCold: one full layout call — every module built,
// floorplan optimized, routed and extracted from scratch.
func BenchmarkLayoutPlanCold(b *testing.B) {
	tech := techno.Default060()
	d := benchFCDesign(b)
	b.ResetTimer()
	var p *cairo.Plan
	var err error
	for i := 0; i < b.N; i++ {
		p, err = d.Layout().Plan(tech, cairo.Constraint{})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(p.Parasitics.AreaUM2, "area_um2")
}

// BenchmarkLayoutPlanSessionWarm: the same layout call against a warm
// session — unchanged modules replay their builds, the floorplan reuses
// cached shape functions and the router replays its recorded shapes, so
// the call re-extracts only what changed (here: nothing). The ratio to
// BenchmarkLayoutPlanCold is the incremental-extraction win on the
// converged iterations of the synthesis loop.
func BenchmarkLayoutPlanSessionWarm(b *testing.B) {
	tech := techno.Default060()
	d := benchFCDesign(b)
	s := cairo.NewSession(true, true)
	if _, err := d.Layout().PlanSession(tech, cairo.Constraint{}, s); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var p *cairo.Plan
	var err error
	for i := 0; i < b.N; i++ {
		p, err = d.Layout().PlanSession(tech, cairo.Constraint{}, s)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(p.Parasitics.AreaUM2, "area_um2")
}

// benchLayoutBackend runs one registered layout backend over one sized
// topology — the registry-level rows-vs-slicing comparison. Cold plans
// with no session; warm plans against a session primed by one prior
// call, so the ratio is each backend's incremental-extraction win.
// area_um2 and cap_fF are deterministic and are the per-backend
// quality A/B.
func benchLayoutBackend(b *testing.B, topology, backendName string, warm bool) {
	b.Helper()
	tech := techno.Default060()
	sp, err := sizing.Lookup(topology)
	if err != nil {
		b.Fatal(err)
	}
	ps, _ := sizing.Case(3)
	sized, err := sp.Size(tech, sp.DefaultSpec(), ps)
	if err != nil {
		b.Fatal(err)
	}
	d := sized.Layout()
	be, err := layout.Lookup(backendName)
	if err != nil {
		b.Fatal(err)
	}
	var s *cairo.Session
	if warm {
		s = cairo.NewSession(true, true)
		if _, err := be.Plan(tech, d, cairo.Constraint{}, s); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	var p *cairo.Plan
	for i := 0; i < b.N; i++ {
		p, err = be.Plan(tech, d, cairo.Constraint{}, s)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(p.Parasitics.AreaUM2, "area_um2")
	b.ReportMetric(p.Parasitics.TotalCap()*1e15, "cap_fF")
}

func BenchmarkLayoutSlicingColdFiveT(b *testing.B) { benchLayoutBackend(b, "five-t", "slicing", false) }
func BenchmarkLayoutSlicingWarmFiveT(b *testing.B) { benchLayoutBackend(b, "five-t", "slicing", true) }
func BenchmarkLayoutRowsColdFiveT(b *testing.B)    { benchLayoutBackend(b, "five-t", "rows", false) }
func BenchmarkLayoutRowsWarmFiveT(b *testing.B)    { benchLayoutBackend(b, "five-t", "rows", true) }

func BenchmarkLayoutSlicingColdFoldedCascode(b *testing.B) {
	benchLayoutBackend(b, "folded-cascode", "slicing", false)
}
func BenchmarkLayoutSlicingWarmFoldedCascode(b *testing.B) {
	benchLayoutBackend(b, "folded-cascode", "slicing", true)
}
func BenchmarkLayoutRowsColdFoldedCascode(b *testing.B) {
	benchLayoutBackend(b, "folded-cascode", "rows", false)
}
func BenchmarkLayoutRowsWarmFoldedCascode(b *testing.B) {
	benchLayoutBackend(b, "folded-cascode", "rows", true)
}

func BenchmarkLayoutSlicingColdTwoStage(b *testing.B) {
	benchLayoutBackend(b, "two-stage", "slicing", false)
}
func BenchmarkLayoutSlicingWarmTwoStage(b *testing.B) {
	benchLayoutBackend(b, "two-stage", "slicing", true)
}
func BenchmarkLayoutRowsColdTwoStage(b *testing.B) { benchLayoutBackend(b, "two-stage", "rows", false) }
func BenchmarkLayoutRowsWarmTwoStage(b *testing.B) { benchLayoutBackend(b, "two-stage", "rows", true) }

// benchSlicingTree builds a synthetic 3-level slicing tree wide enough
// that Stockmeyer combination dominates (8 leaves x 8 options).
func benchSlicingTree() slicing.Node {
	var rows []slicing.Node
	for r := 0; r < 4; r++ {
		var leaves []slicing.Node
		for l := 0; l < 2; l++ {
			var opts []slicing.Option
			for c := 0; c < 8; c++ {
				w := int64(1000 * (c + 1 + r + l))
				opts = append(opts, slicing.Option{W: w, H: 64000000 / w, Choice: c})
			}
			leaves = append(leaves, slicing.NewLeaf(fmt.Sprintf("m%d_%d", r, l), opts))
		}
		rows = append(rows, slicing.NewCut(true, 8000, leaves...))
	}
	return slicing.NewCut(false, 8000, rows...)
}

// BenchmarkShapeFunctionCold: full Stockmeyer evaluation of the tree's
// shape function plus realization.
func BenchmarkShapeFunctionCold(b *testing.B) {
	root := benchSlicingTree()
	var fp *slicing.Floorplan
	var err error
	for i := 0; i < b.N; i++ {
		fp, err = slicing.Optimize(root, slicing.Constraint{})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(fp.Area(), "area_um2")
}

// BenchmarkShapeFunctionCached: the same optimization with every
// subtree's shape function served from a warm cache.
func BenchmarkShapeFunctionCached(b *testing.B) {
	root := benchSlicingTree()
	sc := slicing.NewShapeCache()
	if _, err := slicing.OptimizeCached(root, slicing.Constraint{}, sc); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var fp *slicing.Floorplan
	var err error
	for i := 0; i < b.N; i++ {
		fp, err = slicing.OptimizeCached(root, slicing.Constraint{}, sc)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(fp.Area(), "area_um2")
}
