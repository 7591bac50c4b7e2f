// Package device implements the MOS transistor model shared by the sizing
// tool and the circuit simulator.
//
// The DC core is an EKV-flavoured single-equation model: continuous from
// weak through strong inversion and from triode through saturation, with
// body effect, channel-length modulation (constant Early voltage per unit
// length) and first-order mobility degradation. Sharing one continuous
// model between synthesis and verification is exactly the accuracy argument
// the paper makes for COMDIAC ("Accuracy with respect to simulation is
// greatly improved by using the same transistor models").
//
// Capacitances follow the classical Meyer partition for the intrinsic gate
// capacitance plus constant overlaps, and bias-dependent junction
// capacitances evaluated on the *actual* source/drain diffusion geometry
// (area and perimeter), which is where transistor folding enters the
// electrical picture.
//
// Conventions: all equations are written for NMOS with voltages referenced
// to bulk; PMOS is handled by mirroring every terminal voltage and the
// resulting current. Drain/source are interchangeable (the model is
// symmetric); Eval reports currents with the usual sign convention
// (positive current flows into the drain terminal of an NMOS).
package device

import (
	"fmt"
	"math"

	"loas/internal/techno"
)

// Region labels the operating region for reporting purposes; the underlying
// equations are continuous and do not branch on it.
type Region int

// Operating regions.
const (
	RegionOff Region = iota
	RegionWeak
	RegionTriode
	RegionSaturation
)

// String implements fmt.Stringer.
func (r Region) String() string {
	switch r {
	case RegionOff:
		return "off"
	case RegionWeak:
		return "weak"
	case RegionTriode:
		return "triode"
	case RegionSaturation:
		return "saturation"
	}
	return fmt.Sprintf("region(%d)", int(r))
}

// DiffGeom is the source/drain diffusion geometry of a (possibly folded)
// transistor: junction areas (m²) and perimeters (m). The perimeter
// convention matches SPICE: gate-side edges are excluded.
type DiffGeom struct {
	AD, PD float64 // drain area, perimeter
	AS, PS float64 // source area, perimeter
}

// MOS is a sized transistor instance bound to a model card.
type MOS struct {
	Card *techno.MOSCard
	W    float64 // total drawn gate width (m)
	L    float64 // drawn gate length (m)
	Geom DiffGeom
	// Mult is the device multiplier (parallel copies); 0 is treated as 1.
	Mult int
}

// M returns the effective multiplier.
func (m *MOS) M() float64 {
	if m.Mult <= 0 {
		return 1
	}
	return float64(m.Mult)
}

// Leff returns the effective channel length.
func (m *MOS) Leff() float64 {
	l := m.L - 2*m.Card.LD
	if l < 1e-9 {
		l = 1e-9
	}
	return l
}

// OP is a bias-point evaluation of a transistor.
type OP struct {
	ID  float64 // drain current (A); NMOS: into drain, PMOS: out of drain
	VGS float64 // with device-type sign (PMOS values are negative)
	VDS float64
	VBS float64

	Gm  float64 // ∂ID/∂VGS (S), always ≥ 0
	Gds float64 // ∂ID/∂VDS (S), always ≥ 0
	Gmb float64 // ∂ID/∂VBS (S), always ≥ 0

	VTH    float64 // threshold incl. body effect (magnitude, V)
	Veff   float64 // effective gate overdrive |VGS|−VTH (V, may be < 0)
	VdsSat float64 // saturation voltage estimate (V, magnitude)
	Region Region

	Swapped bool // true if drain and source were exchanged internally
}

// softPlus is a smooth max(x,0): 0.5*(x+sqrt(x²+eps)).
func softPlus(x, eps float64) float64 {
	return 0.5 * (x + math.Sqrt(x*x+eps))
}

// softPlusGrad is softPlus and its derivative.
func softPlusGrad(x, eps float64) (v, dv float64) {
	r := math.Sqrt(x*x + eps)
	return 0.5 * (x + r), 0.5 * (1 + x/r)
}

// lnOnePlusExp computes ln(1+e^x) without overflow.
func lnOnePlusExp(x float64) float64 {
	if x > 40 {
		return x
	}
	if x < -40 {
		return math.Exp(x)
	}
	return math.Log1p(math.Exp(x))
}

// lnOnePlusExpGrad is lnOnePlusExp and the derivative of each branch as
// coded: 1 above 40, e^x below −40, and the sigmoid e^x/(1+e^x) between,
// which reuses the branch's exponential.
func lnOnePlusExpGrad(x float64) (v, dv float64) {
	if x > 40 {
		return x, 1
	}
	if x < -40 {
		e := math.Exp(x)
		return e, e
	}
	e := math.Exp(x)
	return math.Log1p(e), e / (1 + e)
}

// pinchOff returns the EKV pinch-off voltage VP and slope factor n for a
// gate-bulk voltage vgb (NMOS convention).
func pinchOff(c *techno.MOSCard, vgb float64) (vp, n float64) {
	// vgp is the "effective" gate voltage; clamped smoothly at 0 so the
	// model stays defined (and smooth) deep in accumulation.
	vgp := vgb - c.VT0 + c.Phi + c.Gamma*math.Sqrt(c.Phi)
	vgp = softPlus(vgp, 1e-6)
	half := c.Gamma / 2
	vp = vgp - c.Phi - c.Gamma*(math.Sqrt(vgp+half*half)-half)
	n = 1 + c.Gamma/(2*math.Sqrt(vp+c.Phi+1e-3))
	return vp, n
}

// pinchOffGrad is pinchOff and the derivatives dvp/dvgb and dn/dvgb.
func pinchOffGrad(c *techno.MOSCard, vgb float64) (vp, n, dvp, dn float64) {
	vgp, dvgp := softPlusGrad(vgb-c.VT0+c.Phi+c.Gamma*math.Sqrt(c.Phi), 1e-6)
	half := c.Gamma / 2
	sq := math.Sqrt(vgp + half*half)
	vp = vgp - c.Phi - c.Gamma*(sq-half)
	sn := math.Sqrt(vp + c.Phi + 1e-3)
	n = 1 + c.Gamma/(2*sn)
	dvp = dvgp * (1 - c.Gamma/(2*sq))
	dn = -c.Gamma / (4 * sn * sn * sn) * dvp
	return vp, n, dvp, dn
}

// idsCore evaluates the raw drain current for NMOS-convention bulk-referred
// terminal voltages. vt is the thermal voltage.
func (m *MOS) idsCore(vgb, vdb, vsb, vt float64) float64 {
	return m.ids(m.biasTerms(vgb, vdb, vsb, vt))
}

// idsTerms are the factors of the drain current that do not depend on
// the gate width, so a width search evaluates them once per bias.
type idsTerms struct {
	n, vt float64
	inv   float64 // forward minus reverse inversion, lf² − lr²
	den   float64 // mobility degradation, 1 + θ·veff
	clm   float64 // channel-length modulation, 1 + |vds|/VA
}

// biasTerms is the width-independent part of idsCore at one bias.
func (m *MOS) biasTerms(vgb, vdb, vsb, vt float64) idsTerms {
	c := m.Card
	vp, n := pinchOff(c, vgb)
	uf := (vp - vsb) / (2 * vt)
	ur := (vp - vdb) / (2 * vt)
	lf := lnOnePlusExp(uf)
	lr := lnOnePlusExp(ur)
	iff := lf * lf
	irr := lr * lr

	// Mobility degradation keyed on the forward inversion voltage, the
	// continuous analogue of Veff = VGS − VTH.
	veff := 2 * vt * lf

	// Channel-length modulation as a constant Early voltage per unit
	// length, applied to the magnitude so the model stays symmetric.
	va := c.VAL * m.Leff()
	return idsTerms{n: n, vt: vt, inv: iff - irr, den: 1 + c.Theta*veff, clm: 1 + math.Abs(vdb-vsb)/va}
}

// ids is the drain current from its width-independent terms, by the
// same operations in the same order as idsGrad.
func (m *MOS) ids(t idsTerms) float64 {
	beta := m.Card.KP * m.W * m.M() / m.Leff()
	beta /= t.den
	id := 2 * t.n * beta * t.vt * t.vt * t.inv
	id *= t.clm
	return id
}

// idsGrad is idsCore together with ∂I_D/∂(vgb, vdb, vsb), from one pass.
// I_D comes from the same operations in the same order as idsCore, so
// the two are bit-equal; the partials differentiate the function as
// coded, branch by branch, so they are exact where idsCore is smooth.
func (m *MOS) idsGrad(vgb, vdb, vsb, vt float64) (id, dg, dd, ds float64) {
	c := m.Card
	vp, n, dvp, dn := pinchOffGrad(c, vgb)
	uf := (vp - vsb) / (2 * vt)
	ur := (vp - vdb) / (2 * vt)
	lf, sf := lnOnePlusExpGrad(uf)
	lr, sr := lnOnePlusExpGrad(ur)
	iff := lf * lf
	irr := lr * lr

	beta := c.KP * m.W * m.M() / m.Leff()
	veff := 2 * vt * lf
	den := 1 + c.Theta*veff
	beta /= den

	a := 2 * n * beta * vt * vt
	id0 := a * (iff - irr)

	va := c.VAL * m.Leff()
	clm := 1 + math.Abs(vdb-vsb)/va
	id = id0 * clm

	// With id0 = a·(lf² − lr²), a ∝ n/den and den = 1 + θ·2vt·lf:
	// ∂id0 = id0·(∂n/n − θ·2vt·∂lf/den) + 2a·(lf·∂lf − lr·∂lr),
	// where ∂lf = sf·∂uf and ∂lr = sr·∂ur. Only the gate moves n, only
	// the source moves uf, only the drain moves ur, and vp moves both.
	k := 1 / (2 * vt)
	mob := c.Theta * 2 * vt / den
	dlf, dlr := sf*k, sr*k // ∂lf/∂vp and ∂lr/∂vp
	g0 := id0*(dn/n-mob*dlf*dvp) + 2*a*(lf*dlf-lr*dlr)*dvp
	d0 := 2 * a * lr * dlr
	s0 := -dlf * (2*a*lf - id0*mob)

	// Channel-length modulation: ∂|vdb − vsb| is ±1 (0 on the kink,
	// where id0 vanishes anyway).
	var dclm float64
	switch {
	case vdb > vsb:
		dclm = 1 / va
	case vdb < vsb:
		dclm = -1 / va
	}
	return id, g0 * clm, d0*clm + id0*dclm, s0*clm - id0*dclm
}

// Eval computes the operating point for terminal voltages given against an
// arbitrary common reference (usually ground). Works for both NMOS and
// PMOS; PMOS voltages are internally mirrored.
func (m *MOS) Eval(vg, vd, vs, vb, temp float64) OP {
	c := m.Card
	vt := techno.ThermalVoltage(temp)
	sign := c.VTSign()
	vgb, vdb, vsb, swapped := m.bulkReferred(vg, vd, vs, vb)

	id, gm, gds, gs := m.idsGrad(vgb, vdb, vsb, vt)
	// gmb = ∂ID/∂VB with gate, drain, source fixed: raising the bulk
	// lowers vgb, vdb and vsb together (NMOS convention), which reduces
	// the reverse body bias and raises the current.
	gmb := -(gm + gds + gs)
	if gmb < 0 {
		gmb = 0
	}

	vp, n := pinchOff(c, vgb)
	vthEff := threshold(c, vsb)
	veff := vgb - vsb - vthEff
	vdsat := 2*vt*lnOnePlusExp((vp-vsb)/(2*vt)) + 4*vt

	region := RegionSaturation
	vds := vdb - vsb
	switch {
	case veff < -6*n*vt:
		region = RegionOff
	case veff < 2*n*vt:
		region = RegionWeak
	case vds < vdsat:
		region = RegionTriode
	}

	op := OP{
		ID:      sign * id,
		VGS:     vg - vs,
		VDS:     vd - vs,
		VBS:     vb - vs,
		Gm:      math.Abs(gm),
		Gds:     math.Abs(gds),
		Gmb:     gmb,
		VTH:     vthEff,
		Veff:    veff,
		VdsSat:  vdsat,
		Region:  region,
		Swapped: swapped,
	}
	if swapped {
		// Current direction flips when the channel conducts backwards.
		op.ID = -op.ID
	}
	return op
}

// EvalID computes only the drain current of Eval — the identical
// arithmetic path (sign mirroring, drain/source swap, idsCore) without
// the conductances.
func (m *MOS) EvalID(vg, vd, vs, vb, temp float64) float64 {
	c := m.Card
	vt := techno.ThermalVoltage(temp)
	vgb, vdb, vsb, swapped := m.bulkReferred(vg, vd, vs, vb)

	id := c.VTSign() * m.idsCore(vgb, vdb, vsb, vt)
	if swapped {
		id = -id
	}
	return id
}

// EvalIDGrad is EvalID together with the drain current's partial
// derivatives with respect to the gate, drain, source and bulk voltages
// — the DC Newton Jacobian and the AC linearization of the device. The
// current is bit-equal to EvalID's. PMOS mirroring multiplies both the
// voltages and the current by −1, so it cancels in the partials; a
// drain/source swap negates the current and exchanges the drain and
// source partials. The model depends only on voltage differences, so
// the bulk partial is minus the sum of the other three.
func (m *MOS) EvalIDGrad(vg, vd, vs, vb, temp float64) (id, dg, dd, ds, db float64) {
	c := m.Card
	vt := techno.ThermalVoltage(temp)
	vgb, vdb, vsb, swapped := m.bulkReferred(vg, vd, vs, vb)

	id, dg, dd, ds = m.idsGrad(vgb, vdb, vsb, vt)
	id *= c.VTSign()
	if swapped {
		id, dg, dd, ds = -id, -dg, -ds, -dd
	}
	return id, dg, dd, ds, -(dg + dd + ds)
}

// CapsAt is Caps at the operating point Eval would return for these
// terminal voltages, without the drain current and conductances Eval
// also computes: Caps reads only Veff, VDS, VBS and Swapped, and those
// come from the same expressions Eval uses, so the result is
// bit-identical to Caps(Eval(...)).
func (m *MOS) CapsAt(vg, vd, vs, vb, temp float64) CapSet {
	vgb, _, vsb, swapped := m.bulkReferred(vg, vd, vs, vb)
	return m.Caps(OP{
		VDS:     vd - vs,
		VBS:     vb - vs,
		Veff:    vgb - vsb - threshold(m.Card, vsb),
		Swapped: swapped,
	}, temp)
}

// bulkReferred mirrors PMOS terminal voltages into the NMOS convention,
// references them to the bulk, and exchanges drain and source when the
// channel conducts backwards (swapped reports the exchange).
func (m *MOS) bulkReferred(vg, vd, vs, vb float64) (vgb, vdb, vsb float64, swapped bool) {
	sign := m.Card.VTSign()
	vgb = sign * (vg - vb)
	vdb = sign * (vd - vb)
	vsb = sign * (vs - vb)
	if vdb < vsb {
		vdb, vsb = vsb, vdb
		swapped = true
	}
	return vgb, vdb, vsb, swapped
}

// threshold is the threshold voltage including body effect at the
// bulk-referred source voltage vsb (NMOS convention).
func threshold(c *techno.MOSCard, vsb float64) float64 {
	return c.VT0 + c.Gamma*(math.Sqrt(softPlus(c.Phi+vsb, 1e-9))-math.Sqrt(c.Phi))
}

// IDSat returns the drain current in saturation for a given overdrive,
// solving nothing: it evaluates the model at VDS = max(Veff, 0.1 V) +
// 8·vt, VBS as given. Used by the sizing tool to stay on the exact
// simulator model.
func (m *MOS) IDSat(veff, vsb, temp float64) float64 {
	return m.ids(m.biasTerms(satBias(m.Card, veff, vsb, temp)))
}

// GmAt returns gm at the same synthetic saturation bias used by IDSat.
func (m *MOS) GmAt(veff, vsb, temp float64) float64 {
	_, gm, _, _ := m.idsGrad(satBias(m.Card, veff, vsb, temp))
	return gm
}

// satBias is the bulk-referred bias IDSat and GmAt evaluate at, with
// the thermal voltage.
func satBias(c *techno.MOSCard, veff, vsb, temp float64) (vgb, vdb, vsbOut, vt float64) {
	vt = techno.ThermalVoltage(temp)
	vthEff := threshold(c, vsb)
	vgb = veff + vthEff + vsb
	vdb = vsb + veff + 8*vt // comfortably saturated
	if veff < 0.1 {
		vdb = vsb + 0.1 + 8*vt
	}
	return vgb, vdb, vsb, vt
}

// SizeForCurrent returns the gate width that carries current id in
// saturation at overdrive veff and source-bulk bias vsb, by monotonic
// bisection on the exact model. Returns an error when the target is
// unreachable within [wmin, wmax].
func SizeForCurrent(card *techno.MOSCard, l, veff, vsb, id, temp, wmin, wmax float64) (float64, error) {
	if id <= 0 {
		return 0, fmt.Errorf("device: target current must be positive, got %g", id)
	}
	// Only beta depends on the width: the rest of the model is
	// evaluated once, and each probe is IDSat's arithmetic bit for bit.
	m := MOS{Card: card, L: l}
	terms := m.biasTerms(satBias(card, veff, vsb, temp))
	probe := func(w float64) float64 {
		m.W = w
		return m.ids(terms) - id
	}
	lo, hi := wmin, wmax
	flo, fhi := probe(lo), probe(hi)
	if flo > 0 {
		return lo, nil // already above target at minimum width: clamp
	}
	if fhi < 0 {
		return 0, fmt.Errorf("device: W=%g m insufficient for ID=%g A at Veff=%g V (max %g A)",
			hi, id, veff, fhi+id)
	}
	w, _ := Bisect(lo, hi, 80, func(w float64) bool { return probe(w) < 0 })
	return w, nil
}

// SizeForGm returns the gate width giving transconductance gm in
// saturation at overdrive veff and source-bulk bias vsb, by bisection on
// the exact model (gm is monotone in W at fixed bias).
func SizeForGm(card *techno.MOSCard, l, veff, vsb, gm, temp, wmin, wmax float64) (float64, error) {
	if gm <= 0 {
		return 0, fmt.Errorf("device: target gm must be positive, got %g", gm)
	}
	probe := func(w float64) float64 {
		m := MOS{Card: card, W: w, L: l}
		return m.GmAt(veff, vsb, temp) - gm
	}
	lo, hi := wmin, wmax
	if probe(lo) > 0 {
		return lo, nil
	}
	if probe(hi) < 0 {
		return 0, fmt.Errorf("device: W=%g m insufficient for gm=%g S at Veff=%g V", hi, gm, veff)
	}
	w, _ := Bisect(lo, hi, 80, func(w float64) bool { return probe(w) < 0 })
	return w, nil
}

// VGSForCurrent returns the gate-source voltage (NMOS convention; PMOS
// callers mirror) that makes the device carry id at the given
// drain-source voltage, by bisection on the exact model. vsb is the
// source-bulk reverse bias.
func (m *MOS) VGSForCurrent(id, vds, vsb, temp float64) (float64, error) {
	if id <= 0 {
		return 0, fmt.Errorf("device: target current must be positive, got %g", id)
	}
	vt := techno.ThermalVoltage(temp)
	probe := func(vgs float64) float64 {
		vgb := vgs + vsb
		vdb := vsb + vds
		return m.idsCore(vgb, vdb, vsb, vt) - id
	}
	lo, hi := -0.5, 5.0
	if probe(hi) < 0 {
		return 0, fmt.Errorf("device: cannot reach ID=%g A with VGS ≤ %g V (W=%g L=%g)", id, hi, m.W, m.L)
	}
	vgs, _ := Bisect(lo, hi, 80, func(vgs float64) bool { return probe(vgs) < 0 })
	return vgs, nil
}

// Bisect narrows [lo, hi] onto the point where below switches from true
// (the target lies above x) to false, in at most steps halvings: each
// probes the midpoint and moves lo there when below holds, hi otherwise.
// It returns the final midpoint and the number of probes made.
//
// It stops early, returning mid, once mid == lo or mid == hi: the bracket
// has collapsed onto adjacent floats. Every later step of the full loop
// is then a fixed point: probing mid again either keeps the bracket or
// sets the other end to mid, after which lo == hi == mid, and either way
// the final 0.5·(lo+hi) is exactly mid. The result is bit-identical to
// running all steps.
func Bisect(lo, hi float64, steps int, below func(x float64) bool) (x float64, probes int) {
	for ; probes < steps; probes++ {
		mid := 0.5 * (lo + hi)
		if mid == lo || mid == hi {
			return mid, probes
		}
		if below(mid) {
			lo = mid
		} else {
			hi = mid
		}
	}
	return 0.5 * (lo + hi), probes
}
