// Package sizing is the knowledge-based circuit sizing tool — the COMDIAC
// role in the paper. Design plans for fixed topologies size every
// transistor from a performance specification by direct, monotonic
// numerical iteration on the exact device model shared with the simulator:
// transistor operating points (effective gate voltages) are fixed first,
// currents are estimated from the gain-bandwidth target, widths follow
// from the model, and non-input channel lengths are iterated until the
// phase-margin requirement is met.
//
// Layout parasitics enter through a ParasiticState, which carries the
// junction model (none / one-fold worst case / exact from the layout
// tool) and the wiring report of the last layout call — exactly the four
// awareness levels of the paper's Table 1.
package sizing

import (
	"fmt"
	"math"

	"loas/internal/device"
	"loas/internal/layout/extract"
)

// OTASpec is the performance specification of an operational
// transconductance amplifier (the paper's §5 inputs).
type OTASpec struct {
	VDD float64 `json:"vdd"` // supply (V)
	GBW float64 `json:"gbw"` // gain-bandwidth product (Hz)
	PM  float64 `json:"pm"`  // phase margin (degrees)
	CL  float64 `json:"cl"`  // load capacitance (F)
	// Input common-mode range (V).
	ICMLow  float64 `json:"icm_low"`
	ICMHigh float64 `json:"icm_high"`
	// Output voltage range (V).
	OutLow  float64 `json:"out_low"`
	OutHigh float64 `json:"out_high"`
}

// SpecError is the typed error OTASpec.Validate returns; Field is the
// JSON name of the offending field.
type SpecError struct {
	Field  string
	Value  float64
	Reason string
}

func (e *SpecError) Error() string {
	return fmt.Sprintf("invalid spec: %s = %g %s", e.Field, e.Value, e.Reason)
}

// Validate rejects a spec no plan can size meaningfully: every field
// must be finite, VDD, GBW, PM and CL must be positive, both the input
// common-mode and the output range must be non-empty (low below high),
// and both must fit the supply envelope. The output swings between the
// rails, [0, VDD]. The input common mode may not rise above VDD, but may
// sit below ground (the paper's ICM range starts at −0.55 V), down to
// −VDD.
func (s OTASpec) Validate() error {
	fields := []struct {
		name     string
		v        float64
		positive bool
	}{
		{"vdd", s.VDD, true}, {"gbw", s.GBW, true}, {"pm", s.PM, true}, {"cl", s.CL, true},
		{"icm_low", s.ICMLow, false}, {"icm_high", s.ICMHigh, false},
		{"out_low", s.OutLow, false}, {"out_high", s.OutHigh, false},
	}
	for _, f := range fields {
		switch {
		case math.IsNaN(f.v) || math.IsInf(f.v, 0):
			return &SpecError{Field: f.name, Value: f.v, Reason: "is not finite"}
		case f.positive && f.v <= 0:
			return &SpecError{Field: f.name, Value: f.v, Reason: "must be positive"}
		}
	}
	if s.ICMLow >= s.ICMHigh {
		return &SpecError{Field: "icm_low", Value: s.ICMLow,
			Reason: fmt.Sprintf("must be below icm_high = %g", s.ICMHigh)}
	}
	if s.OutLow >= s.OutHigh {
		return &SpecError{Field: "out_low", Value: s.OutLow,
			Reason: fmt.Sprintf("must be below out_high = %g", s.OutHigh)}
	}
	above := fmt.Sprintf("is above vdd = %g", s.VDD)
	switch {
	case s.OutLow < 0:
		return &SpecError{Field: "out_low", Value: s.OutLow, Reason: "is below ground"}
	case s.OutHigh > s.VDD:
		return &SpecError{Field: "out_high", Value: s.OutHigh, Reason: above}
	case s.ICMHigh > s.VDD:
		return &SpecError{Field: "icm_high", Value: s.ICMHigh, Reason: above}
	case s.ICMLow < -s.VDD:
		return &SpecError{Field: "icm_low", Value: s.ICMLow, Reason: fmt.Sprintf("is below −vdd = %g", -s.VDD)}
	}
	return nil
}

// Default65MHz reproduces the paper's example specification: VDD = 3.3 V,
// GBW = 65 MHz, PM = 65°, CL = 3 pF, ICM = [−0.55, 1.84] V,
// out = [0.51, 2.31] V.
func Default65MHz() OTASpec {
	return OTASpec{
		VDD: 3.3, GBW: 65e6, PM: 65, CL: 3e-12,
		ICMLow: -0.55, ICMHigh: 1.84,
		OutLow: 0.51, OutHigh: 2.31,
	}
}

// Performance carries the eleven rows of the paper's Table 1, in SI units.
type Performance struct {
	DCGainDB float64 `json:"dc_gain_db"`
	GBW      float64 `json:"gbw_hz"`
	PhaseDeg float64 `json:"phase_margin_deg"`
	SlewRate float64 `json:"slew_rate_v_per_s"`
	CMRRDB   float64 `json:"cmrr_db"`
	Offset   float64 `json:"offset_v"`                 // V (input referred)
	Rout     float64 `json:"rout_ohm"`                 // Ω
	NoiseRMS float64 `json:"noise_rms_v"`              // V, input referred, integrated 1 Hz … GBW
	NoiseTh  float64 `json:"noise_thermal_v_rthz"`     // V/√Hz, white plateau
	NoiseFl1 float64 `json:"noise_flicker_1hz_v_rthz"` // V/√Hz at 1 Hz
	Power    float64 `json:"power_w"`
}

// Row formats one spec-vs-measured pair the way Table 1 prints them.
func (p Performance) Row(name string, q Performance) string {
	f := func(v float64) string { return fmt.Sprintf("%.4g", v) }
	switch name {
	case "gain":
		return fmt.Sprintf("DC gain (dB)            %s(%s)", f(p.DCGainDB), f(q.DCGainDB))
	case "gbw":
		return fmt.Sprintf("GBW (MHz)               %s(%s)", f(p.GBW/1e6), f(q.GBW/1e6))
	case "pm":
		return fmt.Sprintf("Phase margin (deg)      %s(%s)", f(p.PhaseDeg), f(q.PhaseDeg))
	case "sr":
		return fmt.Sprintf("Slew rate (V/us)        %s(%s)", f(p.SlewRate/1e6), f(q.SlewRate/1e6))
	case "cmrr":
		return fmt.Sprintf("CMRR (dB)               %s(%s)", f(p.CMRRDB), f(q.CMRRDB))
	case "offset":
		return fmt.Sprintf("Offset (mV)             %s(%s)", f(p.Offset*1e3), f(q.Offset*1e3))
	case "rout":
		return fmt.Sprintf("Output res (Mohm)       %s(%s)", f(p.Rout/1e6), f(q.Rout/1e6))
	case "noise":
		return fmt.Sprintf("Input noise (uV)        %s(%s)", f(p.NoiseRMS*1e6), f(q.NoiseRMS*1e6))
	case "thermal":
		return fmt.Sprintf("Thermal noise (nV/rtHz) %s(%s)", f(p.NoiseTh*1e9), f(q.NoiseTh*1e9))
	case "flicker":
		return fmt.Sprintf("Flicker @1Hz (uV/rtHz)  %s(%s)", f(p.NoiseFl1*1e6), f(q.NoiseFl1*1e6))
	case "power":
		return fmt.Sprintf("Power (mW)              %s(%s)", f(p.Power*1e3), f(q.Power*1e3))
	}
	return ""
}

// RowNames lists the Table-1 rows in print order.
func RowNames() []string {
	return []string{"gain", "gbw", "pm", "sr", "cmrr", "offset", "rout",
		"noise", "thermal", "flicker", "power"}
}

// ParasiticState tells the sizing plan which layout parasitics to account
// for; the four Table-1 cases are fixed combinations of its fields.
type ParasiticState struct {
	// Junction: how source/drain junction capacitance is modelled during
	// sizing.
	Junction extract.JunctionModel
	// Routing: include wiring, coupling and well capacitances from the
	// last layout report.
	Routing bool
	// Report is the last layout parasitic report (nil before the first
	// layout call).
	Report *extract.Parasitics
	// Memo, when non-nil, memoizes exact-repeat device-model evaluations
	// (width/bias bisections, design-point operating points) across the
	// sizing iterations of one synthesis run. Keys are exact float bit
	// patterns, so results are byte-identical with the memo on or off;
	// nil disables caching (the differential harness's reference path).
	Memo *device.Memo
}

// Case returns the ParasiticState of the paper's Table-1 case n (1–4).
func Case(n int) (ParasiticState, error) {
	switch n {
	case 1:
		return ParasiticState{Junction: extract.JunctionNone}, nil
	case 2:
		return ParasiticState{Junction: extract.JunctionOneFold}, nil
	case 3:
		return ParasiticState{Junction: extract.JunctionExact}, nil
	case 4:
		return ParasiticState{Junction: extract.JunctionExact, Routing: true}, nil
	}
	return ParasiticState{}, fmt.Errorf("sizing: table-1 case must be 1–4, got %d", n)
}

// deviceGeom resolves the junction geometry the sizing plan should assume
// for a device of the given name and current width.
func (ps *ParasiticState) deviceGeom(oneFold func(w float64) device.DiffGeom, name string, w float64) device.DiffGeom {
	switch ps.Junction {
	case extract.JunctionNone:
		return device.DiffGeom{}
	case extract.JunctionOneFold:
		return oneFold(w)
	case extract.JunctionExact:
		if ps.Report != nil {
			if g, ok := ps.Report.DeviceGeom[name]; ok {
				return g
			}
		}
		// Before the first layout call, exact mode falls back to the
		// one-fold worst case (the paper's first sizing pass does the
		// same: "the first circuit sizing is done assuming one fold per
		// transistor").
		return oneFold(w)
	}
	return device.DiffGeom{}
}

// wiringCap returns the wiring (+coupling, +well) capacitance the sizing
// plan should attach to a net.
func (ps *ParasiticState) wiringCap(net string) float64 {
	if !ps.Routing || ps.Report == nil {
		return 0
	}
	return ps.Report.TotalNetCap(net) + ps.Report.CouplingTo(net)
}

// DB converts a ratio to decibels.
func DB(x float64) float64 { return 20 * math.Log10(math.Abs(x)) }
