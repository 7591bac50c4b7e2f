package sim

import (
	"errors"
	"math"
	"math/cmplx"
	"testing"

	"loas/internal/circuit"
	"loas/internal/techno"
)

// twoPoleAmp is an ideal gain stage followed by two buffered RC poles:
// H(f) = gain / ((1 + jf/p1)(1 + jf/p2)) at node "out".
func twoPoleAmp(gain, p1, p2 float64) *circuit.Circuit {
	c := circuit.New("twopole")
	c.Add(
		&circuit.VSource{Name: "in", Pos: "a", Neg: "0", ACMag: 1},
		&circuit.VCVS{Name: "e1", Pos: "b", Neg: "0", CPos: "a", CNeg: "0", Gain: gain},
		&circuit.Resistor{Name: "r1", A: "b", B: "c", R: 1e3},
		&circuit.Capacitor{Name: "c1", A: "c", B: "0", C: 1 / (2 * math.Pi * 1e3 * p1)},
		&circuit.VCVS{Name: "e2", Pos: "d", Neg: "0", CPos: "c", CNeg: "0", Gain: 1},
		&circuit.Resistor{Name: "r2", A: "d", B: "out", R: 1e3},
		&circuit.Capacitor{Name: "c2", A: "out", B: "0", C: 1 / (2 * math.Pi * 1e3 * p2)},
	)
	return c
}

func prepared(t *testing.T, c *circuit.Circuit, ns map[string]float64) *ACSolver {
	t.Helper()
	e := NewEngine(c, techno.TempNominal)
	op, err := e.OP(OPOptions{NodeSet: ns})
	if err != nil {
		t.Fatal(err)
	}
	return e.PrepareAC(op)
}

// bisectCrossing is the reference: 60 geometric bisections of the first
// grid interval whose right end is below unity, or, when the grid starts
// below unity, of the first decade below it that brackets the crossing.
func bisectCrossing(t *testing.T, s *ACSolver, out string, f1, f2 float64, n int) float64 {
	t.Helper()
	gain := func(f float64) float64 {
		r, err := s.Solve([]float64{f})
		if err != nil {
			t.Fatal(err)
		}
		return cmplx.Abs(r[0].Volt(s.e.Ckt, out))
	}
	freqs := LogSpace(f1, f2, n)
	lo, hi := freqs[0], freqs[0]
	if gain(lo) < 1 {
		for gain(lo) < 1 {
			hi, lo = lo, lo/10
		}
	} else {
		for _, f := range freqs[1:] {
			if gain(f) < 1 {
				hi = f
				break
			}
			lo = f
		}
	}
	for i := 0; i < 60; i++ {
		mid := math.Sqrt(lo * hi)
		if gain(mid) >= 1 {
			lo = mid
		} else {
			hi = mid
		}
	}
	return math.Sqrt(lo * hi)
}

func TestUnityCrossingMatchesBisection(t *testing.T) {
	tech := techno.Default060()
	ota, seeds := fiveTransistorOTA(tech)
	cases := []struct {
		name   string
		ckt    *circuit.Circuit
		ns     map[string]float64
		f1, f2 float64
		n      int
		tol    float64
	}{
		{"two-pole, sizing grid", twoPoleAmp(1e3, 1e3, 1e8), nil, 1e6, 3e9, 40, 6e-9},
		{"two-pole, ulp tolerance", twoPoleAmp(1e3, 1e3, 1e8), nil, 1e3, 3e9, 130, 0},
		{"two-pole, crossing below the grid", twoPoleAmp(1e3, 1e3, 1e8), nil, 3e6, 3e9, 40, 6e-9},
		{"five-transistor OTA", ota, seeds, 1e3, 3e9, 130, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := prepared(t, tc.ckt, tc.ns)
			c, err := s.UnityCrossing("out", tc.f1, tc.f2, tc.n, tc.tol)
			if err != nil {
				t.Fatal(err)
			}
			ref := bisectCrossing(t, s, "out", tc.f1, tc.f2, tc.n)
			lnRef := math.Log(ref)
			tol := math.Max(tc.tol, 4*(math.Nextafter(lnRef, math.Inf(1))-lnRef))
			if d := math.Abs(math.Log(c.Freq) - lnRef); d > tol {
				t.Fatalf("crossing %.17g Hz, bisection %.17g Hz: |Δ ln f| = %.3g > %.3g", c.Freq, ref, d, tol)
			}
			if g := cmplx.Abs(c.H); math.Abs(math.Log(g)) > 10*tol {
				t.Fatalf("|H| = %.17g at the crossing", g)
			}
			if c.Solves > tc.n {
				t.Fatalf("%d solves, more than the %d-point grid", c.Solves, tc.n)
			}
		})
	}
}

func TestUnityCrossingReportsNoCrossing(t *testing.T) {
	for _, tc := range []struct {
		name   string
		gain   float64
		f1, f2 float64
		solves int
	}{
		// Below unity everywhere: the grid's first point and the decades
		// down to 1 kHz (1 MHz → 100 kHz → 10 kHz → 1 kHz).
		{"below unity", 0.5, 1e6, 3e9, 4},
		// Above unity across the whole 10-point grid.
		{"above unity", 1e3, 1e3, 1e5, 10},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := prepared(t, twoPoleAmp(tc.gain, 1e3, 1e8), nil)
			c, err := s.UnityCrossing("out", tc.f1, tc.f2, 10, 1e-6)
			if !errors.Is(err, ErrNoCrossing) {
				t.Fatalf("err = %v, want ErrNoCrossing", err)
			}
			if c.Solves != tc.solves {
				t.Fatalf("%d solves, want %d", c.Solves, tc.solves)
			}
		})
	}
}
