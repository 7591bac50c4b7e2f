package device

import (
	"math"
	"testing"

	"loas/internal/techno"
)

// The analytic partials are checked against central differences of the
// model itself: the oracle the simulator's Jacobian and Eval's
// conductances were computed with before the model had a gradient form.

const fdStep = 1e-6

// fdPartials is the drain current's terminal partials by central
// differences of EvalID.
func fdPartials(m *MOS, vg, vd, vs, vb, temp float64) (dg, dd, ds, db float64) {
	const h = fdStep
	dg = (m.EvalID(vg+h, vd, vs, vb, temp) - m.EvalID(vg-h, vd, vs, vb, temp)) / (2 * h)
	dd = (m.EvalID(vg, vd+h, vs, vb, temp) - m.EvalID(vg, vd-h, vs, vb, temp)) / (2 * h)
	ds = (m.EvalID(vg, vd, vs+h, vb, temp) - m.EvalID(vg, vd, vs-h, vb, temp)) / (2 * h)
	db = (m.EvalID(vg, vd, vs, vb+h, temp) - m.EvalID(vg, vd, vs, vb-h, temp)) / (2 * h)
	return dg, dd, ds, db
}

// fdConductances is Eval's gm, gds and gmb by central differences of
// idsCore on the bulk-referred, swapped voltages, as Eval defines them.
func fdConductances(m *MOS, vg, vd, vs, vb, temp float64) (gm, gds, gmb float64) {
	const h = fdStep
	vt := techno.ThermalVoltage(temp)
	vgb, vdb, vsb, _ := m.bulkReferred(vg, vd, vs, vb)
	gm = (m.idsCore(vgb+h, vdb, vsb, vt) - m.idsCore(vgb-h, vdb, vsb, vt)) / (2 * h)
	gds = (m.idsCore(vgb, vdb+h, vsb, vt) - m.idsCore(vgb, vdb-h, vsb, vt)) / (2 * h)
	gmb = (m.idsCore(vgb-h, vdb-h, vsb-h, vt) - m.idsCore(vgb+h, vdb+h, vsb+h, vt)) / (2 * h)
	return math.Abs(gm), math.Abs(gds), math.Max(gmb, 0)
}

// gradBias is one point of the bias grid, in NMOS-convention terminal
// voltages; PMOS devices see every voltage mirrored.
type gradBias struct{ vg, vd, vs, vb float64 }

// gradGrid spans off, weak and strong inversion (vgs), reversed channels,
// triode and saturation (vds), and body bias with a nonzero bulk.
func gradGrid() []gradBias {
	var out []gradBias
	for _, vb := range []float64{0, -0.7} {
		for _, vsb := range []float64{0, 0.4, 1.5} {
			for _, vgs := range []float64{-0.5, 0.3, 0.6, 0.8, 1.0, 1.5, 3.0} {
				for _, vds := range []float64{-2, -0.3, -0.01, 0.002, 0.05, 0.3, 1, 3} {
					vs := vb + vsb
					out = append(out, gradBias{vg: vs + vgs, vd: vs + vds, vs: vs, vb: vb})
				}
			}
		}
	}
	return out
}

// gradDevices returns an NMOS and a PMOS of two geometries each.
func gradDevices() []*MOS {
	return []*MOS{nmos(10*um, 1*um), nmos(200*um, 0.6*um), pmos(30*um, 2*um), pmos(5*um, 0.8*um)}
}

// checkGrad compares EvalIDGrad with EvalID and the oracle at one bias.
func checkGrad(t *testing.T, m *MOS, vg, vd, vs, vb, temp float64) {
	t.Helper()
	id, dg, dd, ds, db := m.EvalIDGrad(vg, vd, vs, vb, temp)
	for _, v := range []float64{id, dg, dd, ds, db} {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatalf("%s at (%g, %g, %g, %g): non-finite output %v",
				m.Card.Type, vg, vd, vs, vb, []float64{id, dg, dd, ds, db})
		}
	}
	if want := m.EvalID(vg, vd, vs, vb, temp); math.Float64bits(id) != math.Float64bits(want) {
		t.Fatalf("%s at (%g, %g, %g, %g): ID %x, EvalID %x", m.Card.Type, vg, vd, vs, vb, id, want)
	}
	if math.Abs(vd-vs) <= 1e-4 {
		// The |vds| kink of channel-length modulation lies inside the
		// central difference's stencil.
		return
	}
	fg, fd, fs, fb := fdPartials(m, vg, vd, vs, vb, temp)
	norm := math.Abs(dg) + math.Abs(dd) + math.Abs(ds) + math.Abs(db)
	diff := math.Abs(dg-fg) + math.Abs(dd-fd) + math.Abs(ds-fs) + math.Abs(db-fb)
	if diff > 1e-6*norm {
		t.Fatalf("%s at (%g, %g, %g, %g): analytic %v, finite difference %v (rel %.3g)",
			m.Card.Type, vg, vd, vs, vb, []float64{dg, dd, ds, db}, []float64{fg, fd, fs, fb}, diff/norm)
	}

	op := m.Eval(vg, vd, vs, vb, temp)
	gm, gds, gmb := fdConductances(m, vg, vd, vs, vb, temp)
	cnorm := op.Gm + op.Gds + op.Gmb
	if d := math.Abs(op.Gm-gm) + math.Abs(op.Gds-gds) + math.Abs(op.Gmb-gmb); d > 1e-6*cnorm {
		t.Fatalf("%s at (%g, %g, %g, %g): Eval gm/gds/gmb %g/%g/%g, finite difference %g/%g/%g",
			m.Card.Type, vg, vd, vs, vb, op.Gm, op.Gds, op.Gmb, gm, gds, gmb)
	}
}

// mirror maps an NMOS-convention bias onto a PMOS referenced to vdd.
func mirror(m *MOS, p gradBias, vdd float64) gradBias {
	if m.Card.VTSign() > 0 {
		return p
	}
	return gradBias{vdd - p.vg, vdd - p.vd, vdd - p.vs, vdd - p.vb}
}

func TestGradientMatchesFiniteDifference(t *testing.T) {
	for _, m := range gradDevices() {
		for _, p := range gradGrid() {
			p = mirror(m, p, 3.3)
			checkGrad(t, m, p.vg, p.vd, p.vs, p.vb, techno.TempNominal)
		}
	}
}

func TestGmAtMatchesFiniteDifference(t *testing.T) {
	m := nmos(40*um, 1*um)
	for _, veff := range []float64{-0.05, 0.05, 0.2, 0.6} {
		for _, vsb := range []float64{0, 0.8} {
			const h = fdStep
			vt := techno.ThermalVoltage(techno.TempNominal)
			vgb := veff + threshold(m.Card, vsb) + vsb
			vdb := vsb + math.Max(veff, 0.1) + 8*vt
			fd := (m.idsCore(vgb+h, vdb, vsb, vt) - m.idsCore(vgb-h, vdb, vsb, vt)) / (2 * h)
			if got := m.GmAt(veff, vsb, techno.TempNominal); math.Abs(got-fd) > 1e-6*math.Abs(fd) {
				t.Fatalf("GmAt(%g, %g) = %g, finite difference %g", veff, vsb, got, fd)
			}
		}
	}
}

// FuzzDeviceGrad drives the gradient with arbitrary finite terminal
// voltages within ±2·VDD on both model cards.
func FuzzDeviceGrad(f *testing.F) {
	for i, p := range gradGrid() {
		f.Add(p.vg, p.vd, p.vs, p.vb, i%2 == 1)
	}
	tech := techno.Default060()
	const vdd = 3.3
	f.Fuzz(func(t *testing.T, vg, vd, vs, vb float64, pch bool) {
		v := []float64{vg, vd, vs, vb}
		for i, x := range v {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				t.Skip()
			}
			v[i] = math.Mod(x, 2*vdd)
		}
		m := &MOS{Card: &tech.N, W: 20 * um, L: 1 * um}
		if pch {
			m.Card = &tech.P
		}
		checkGrad(t, m, v[0], v[1], v[2], v[3], techno.TempNominal)
	})
}
