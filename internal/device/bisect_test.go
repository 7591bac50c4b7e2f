package device

import (
	"errors"
	"math"
	"testing"

	"loas/internal/techno"
)

// bisectFixed is the fixed-step bisection every width and VGS search ran
// before Bisect stopped at a collapsed bracket: the reference Bisect
// must match bit for bit.
func bisectFixed(lo, hi float64, steps int, below func(float64) bool) float64 {
	for i := 0; i < steps; i++ {
		mid := 0.5 * (lo + hi)
		if below(mid) {
			lo = mid
		} else {
			hi = mid
		}
	}
	return 0.5 * (lo + hi)
}

// bisectCase is one width or VGS search: a card, a length, an
// overdrive, a source-bulk bias, a target current and the width range.
type bisectCase struct {
	card           *techno.MOSCard
	l, veff, vsb   float64
	id, wmin, wmax float64
}

// bisectGrid spans both cards, three lengths, weak to strong overdrive,
// three source-bulk biases and currents from 0.1 µA to 3 mA.
func bisectGrid() []bisectCase {
	tech := techno.Default060()
	var out []bisectCase
	for _, card := range []*techno.MOSCard{&tech.N, &tech.P} {
		for _, l := range []float64{0.6 * um, 1 * um, 3 * um} {
			for _, veff := range []float64{0.05, 0.15, 0.3, 0.6} {
				for _, vsb := range []float64{0, 0.4, 1.2} {
					for _, id := range []float64{1e-7, 5e-6, 2e-4, 3e-3} {
						out = append(out, bisectCase{card, l, veff, vsb, id, 0.8 * um, 20000 * um})
					}
				}
			}
		}
	}
	return out
}

// TestBisectMatchesFixedSteps: Bisect with its early exit returns the
// very bits of the full 80- and 60-step loops, for increasing and
// decreasing probes, on the model's own width and VGS searches over a
// grid of cards, lengths, overdrives, source-bulk biases and currents;
// and the exported searches built on it match the fixed-step versions.
func TestBisectMatchesFixedSteps(t *testing.T) {
	temp := techno.TempNominal
	var saved, total int
	check := func(name string, lo, hi float64, steps int, below func(float64) bool) {
		t.Helper()
		got, probes := Bisect(lo, hi, steps, below)
		want := bisectFixed(lo, hi, steps, below)
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("%s over [%g, %g] in %d steps: Bisect %x, fixed steps %x", name, lo, hi, steps,
				math.Float64bits(got), math.Float64bits(want))
		}
		saved += steps - probes
		total += steps
	}
	for _, c := range bisectGrid() {
		idAt := func(w float64) float64 { return (&MOS{Card: c.card, W: w, L: c.l}).IDSat(c.veff, c.vsb, temp) }
		gmAt := func(w float64) float64 { return (&MOS{Card: c.card, W: w, L: c.l}).GmAt(c.veff, c.vsb, temp) }
		m := &MOS{Card: c.card, W: 20 * um, L: c.l}
		vt := techno.ThermalVoltage(temp)
		vds := c.veff + 0.3
		vgsID := func(vgs float64) float64 { return m.idsCore(vgs+c.vsb, c.vsb+vds, c.vsb, vt) }
		for _, steps := range []int{80, 60} {
			check("width for ID", c.wmin, c.wmax, steps, func(w float64) bool { return idAt(w) < c.id })
			check("width for gm", c.wmin, c.wmax, steps, func(w float64) bool { return gmAt(w) < 10*c.id })
			check("VGS for ID", -0.5, 5, steps, func(v float64) bool { return vgsID(v) < c.id })
			// The opposite sign convention, as the bias generator's
			// width-for-VGS search uses: 1/ID falls as W grows.
			check("width for 1/ID", c.wmin, c.wmax, steps, func(w float64) bool { return 1/idAt(w) > 1/c.id })
		}

		refW, refErr := sizeForCurrentFixed(c.card, c.l, c.veff, c.vsb, c.id, temp, c.wmin, c.wmax)
		w, err := SizeForCurrent(c.card, c.l, c.veff, c.vsb, c.id, temp, c.wmin, c.wmax)
		if (err == nil) != (refErr == nil) || math.Float64bits(w) != math.Float64bits(refW) {
			t.Fatalf("SizeForCurrent%+v = %x, %v; fixed steps %x, %v", c, math.Float64bits(w), err, math.Float64bits(refW), refErr)
		}
		refV, refErr := vgsForCurrentFixed(m, c.id, vds, c.vsb, temp)
		v, err := m.VGSForCurrent(c.id, vds, c.vsb, temp)
		if (err == nil) != (refErr == nil) || math.Float64bits(v) != math.Float64bits(refV) {
			t.Fatalf("VGSForCurrent%+v = %x, %v; fixed steps %x, %v", c, math.Float64bits(v), err, math.Float64bits(refV), refErr)
		}
		gm := 10 * c.id
		refG, refErr := sizeForGmFixed(c.card, c.l, c.veff, c.vsb, gm, temp, c.wmin, c.wmax)
		g, err := SizeForGm(c.card, c.l, c.veff, c.vsb, gm, temp, c.wmin, c.wmax)
		if (err == nil) != (refErr == nil) || math.Float64bits(g) != math.Float64bits(refG) {
			t.Fatalf("SizeForGm%+v = %x, %v; fixed steps %x, %v", c, math.Float64bits(g), err, math.Float64bits(refG), refErr)
		}
	}
	if saved == 0 {
		t.Fatal("no search stopped early")
	}
	t.Logf("probes saved: %d of %d", saved, total)
}

// sizeForCurrentFixed, sizeForGmFixed and vgsForCurrentFixed are the
// searches as they were before Bisect: bracket checks, then 80 steps.
func sizeForCurrentFixed(card *techno.MOSCard, l, veff, vsb, id, temp, wmin, wmax float64) (float64, error) {
	probe := func(w float64) float64 { return (&MOS{Card: card, W: w, L: l}).IDSat(veff, vsb, temp) - id }
	if probe(wmin) > 0 {
		return wmin, nil
	}
	if probe(wmax) < 0 {
		return 0, errUnreachable
	}
	return bisectFixed(wmin, wmax, 80, func(w float64) bool { return probe(w) < 0 }), nil
}

func sizeForGmFixed(card *techno.MOSCard, l, veff, vsb, gm, temp, wmin, wmax float64) (float64, error) {
	probe := func(w float64) float64 { return (&MOS{Card: card, W: w, L: l}).GmAt(veff, vsb, temp) - gm }
	if probe(wmin) > 0 {
		return wmin, nil
	}
	if probe(wmax) < 0 {
		return 0, errUnreachable
	}
	return bisectFixed(wmin, wmax, 80, func(w float64) bool { return probe(w) < 0 }), nil
}

func vgsForCurrentFixed(m *MOS, id, vds, vsb, temp float64) (float64, error) {
	vt := techno.ThermalVoltage(temp)
	probe := func(vgs float64) float64 { return m.idsCore(vgs+vsb, vsb+vds, vsb, vt) - id }
	if probe(5) < 0 {
		return 0, errUnreachable
	}
	return bisectFixed(-0.5, 5, 80, func(v float64) bool { return probe(v) < 0 }), nil
}

var errUnreachable = errors.New("unreachable")

// TestBisectCollapsedBracket: a bracket that is already two adjacent
// floats, or a single point, returns its midpoint without a probe.
func TestBisectCollapsedBracket(t *testing.T) {
	never := func(float64) bool { t.Fatal("probed a collapsed bracket"); return false }
	lo := 1e-5
	for _, hi := range []float64{lo, math.Nextafter(lo, 1)} {
		x, probes := Bisect(lo, hi, 80, never)
		if probes != 0 || math.Float64bits(x) != math.Float64bits(bisectFixed(lo, hi, 80, func(float64) bool { return false })) {
			t.Fatalf("Bisect(%x, %x) = %x after %d probes", math.Float64bits(lo), math.Float64bits(hi), math.Float64bits(x), probes)
		}
	}
}
