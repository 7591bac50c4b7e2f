package sim

import (
	"errors"
	"fmt"
	"math"
	"math/cmplx"
)

// ErrNoCrossing reports that a response has no unity-gain crossing in
// the band UnityCrossing searches.
var ErrNoCrossing = errors.New("sim: no unity-gain crossing")

// crossingFloor is the lowest frequency (Hz) UnityCrossing steps down
// to when the response is already below unity at the start of its grid.
const crossingFloor = 1e3

// Crossing is a located unity-gain frequency.
type Crossing struct {
	Freq   float64    // Hz
	H      complex128 // phasor at the output node at Freq
	Solves int        // AC solves spent locating it
}

// UnityCrossing finds the first frequency at which the magnitude of the
// phasor at node out falls through 1. It walks LogSpace(f1, f2, n) one
// point at a time and stops at the first point below unity; if the grid's
// first point is already below unity it steps down by decades, no lower
// than 1 kHz, to a point at or above unity. It then refines the bracket
// by safeguarded false position (Illinois) on ln|H| against ln f until
// the bracket is at most tol wide in ln f, or a few ulps of ln f if tol
// is smaller. The returned Freq is the bracket end whose |H| is closer
// to 1, so it lies within tol of the crossing in ln f. A response with
// no crossing in [1 kHz, f2] returns an error wrapping ErrNoCrossing.
// Crossing.Solves is set on every return.
func (s *ACSolver) UnityCrossing(out string, f1, f2 float64, n int, tol float64) (Crossing, error) {
	u := s.e.unknownOf(out)
	var c Crossing
	at := func(f float64) (complex128, error) {
		c.Solves++
		if err := s.solveAt(f); err != nil {
			return 0, err
		}
		if u < 0 {
			return 0, nil
		}
		return s.x[u], nil
	}

	l1, l2 := math.Log10(f1), math.Log10(f2)
	fLo := logPoint(l1, l2, 0, n)
	hLo, err := at(fLo)
	if err != nil {
		return c, err
	}
	if cmplx.Abs(hLo) < 1 {
		fHi, hHi := fLo, hLo
		for fHi > crossingFloor {
			fLo = math.Max(fHi/10, crossingFloor)
			if hLo, err = at(fLo); err != nil {
				return c, err
			}
			if cmplx.Abs(hLo) >= 1 {
				c.Freq, c.H, err = refine(at, fLo, hLo, fHi, hHi, tol)
				return c, err
			}
			fHi, hHi = fLo, hLo
		}
		return c, fmt.Errorf("%w: gain below unity down to %g Hz (|H| = %g)", ErrNoCrossing, fHi, cmplx.Abs(hHi))
	}
	for i := 1; i < n; i++ {
		f := logPoint(l1, l2, i, n)
		h, err := at(f)
		if err != nil {
			return c, err
		}
		if cmplx.Abs(h) < 1 {
			c.Freq, c.H, err = refine(at, fLo, hLo, f, h, tol)
			return c, err
		}
		fLo, hLo = f, h
	}
	return c, fmt.Errorf("%w: gain above unity up to %g Hz (|H| = %g)", ErrNoCrossing, fLo, cmplx.Abs(hLo))
}

// refine narrows the bracket [fLo, fHi], |H(fLo)| ≥ 1 > |H(fHi)|, to
// tol in ln f (see UnityCrossing).
func refine(at func(float64) (complex128, error), fLo float64, hLo complex128, fHi float64, hHi complex128, tol float64) (float64, complex128, error) {
	a, b := math.Log(fLo), math.Log(fHi)
	ya, yb := math.Log(cmplx.Abs(hLo)), math.Log(cmplx.Abs(hHi))
	// Below a few ulps of ln f the bracket cannot shrink further.
	if ulps := 4 * (math.Nextafter(b, math.Inf(1)) - b); tol < ulps {
		tol = ulps
	}
	side := 0                          // which end moved last: +1 the low end, −1 the high end
	w1, w2 := math.Inf(1), math.Inf(1) // bracket widths one and two steps back
	for b-a > tol {
		x := b - yb*(b-a)/(yb-ya)
		switch {
		case b-a > w2/2 || math.IsNaN(x):
			// Two false-position steps did not halve the bracket:
			// bisect, which bounds the solves by twice bisection's.
			x = a + (b-a)/2
		case x < a+tol/2:
			// Land at least tol/2 inside, so a root that close to an
			// end closes the bracket on the next step.
			x = a + tol/2
		case x > b-tol/2:
			x = b - tol/2
		}
		w2, w1 = w1, b-a
		f := math.Exp(x)
		h, err := at(f)
		if err != nil {
			return 0, 0, err
		}
		if y := math.Log(cmplx.Abs(h)); y >= 0 {
			a, ya, fLo, hLo = x, y, f, h
			if side > 0 {
				yb /= 2 // Illinois: halve the stale end's value
			}
			side = 1
		} else {
			b, yb, fHi, hHi = x, y, f, h
			if side < 0 {
				ya /= 2
			}
			side = -1
		}
	}
	if math.Abs(math.Log(cmplx.Abs(hHi))) < math.Abs(math.Log(cmplx.Abs(hLo))) {
		return fHi, hHi, nil
	}
	return fLo, hLo, nil
}
