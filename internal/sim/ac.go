package sim

import (
	"fmt"
	"math"
	"math/cmplx"

	"loas/internal/circuit"
	"loas/internal/linalg"
)

// acStamps is the linearized circuit at a DC operating point, precompiled
// into flat stamp lists so a frequency sweep only re-assembles jωC terms.
type acStamps struct {
	e *Engine
	// conductance entries G[i][j] += g (i, j are unknown indices ≥ 0).
	gRow, gCol []int
	gVal       []float64
	// capacitance entries Y[i][j] += jω·c.
	cRow, cCol []int
	cVal       []float64
	// constant ±1 incidence entries (voltage source branches etc.).
	uRow, uCol []int
	uVal       []float64
	// AC excitation vector (frequency-independent phasors).
	rhs []complex128
}

// addG accumulates the two-terminal conductance stamp between unknowns a,b.
func (s *acStamps) addG(a, b int, g float64) {
	s.add4(&s.gRow, &s.gCol, &s.gVal, a, b, g)
}

// addC accumulates the two-terminal capacitance stamp between unknowns a,b.
func (s *acStamps) addC(a, b int, c float64) {
	s.add4(&s.cRow, &s.cCol, &s.cVal, a, b, c)
}

func (s *acStamps) add4(rows, cols *[]int, vals *[]float64, a, b int, v float64) {
	if v == 0 {
		return
	}
	if a >= 0 {
		*rows = append(*rows, a)
		*cols = append(*cols, a)
		*vals = append(*vals, v)
		if b >= 0 {
			*rows = append(*rows, a)
			*cols = append(*cols, b)
			*vals = append(*vals, -v)
		}
	}
	if b >= 0 {
		*rows = append(*rows, b)
		*cols = append(*cols, b)
		*vals = append(*vals, v)
		if a >= 0 {
			*rows = append(*rows, b)
			*cols = append(*cols, a)
			*vals = append(*vals, -v)
		}
	}
}

// addEntry records a single raw matrix entry.
func (s *acStamps) addEntry(i, j int, v float64) {
	if i < 0 || j < 0 || v == 0 {
		return
	}
	s.uRow = append(s.uRow, i)
	s.uCol = append(s.uCol, j)
	s.uVal = append(s.uVal, v)
}

// compileAC linearizes the circuit at op.
func (e *Engine) compileAC(op *OPResult) *acStamps {
	s := &acStamps{e: e, rhs: make([]complex128, e.size)}
	ckt := e.Ckt
	for i, el := range ckt.Elements {
		switch t := el.(type) {
		case *circuit.Resistor:
			a, b := e.terms2(i)
			s.addG(a, b, 1/t.R)

		case *circuit.Capacitor:
			a, b := e.terms2(i)
			s.addC(a, b, t.C)

		case *circuit.ISource:
			if t.ACMag != 0 {
				ph := cmplx.Rect(t.ACMag, t.ACPhase*math.Pi/180)
				a, b := e.terms2(i)
				if a >= 0 {
					s.rhs[a] -= ph // current leaves Pos through the source
				}
				if b >= 0 {
					s.rhs[b] += ph
				}
			}

		case *circuit.VSource:
			br := int(e.idx[i].br)
			a, b := e.terms2(i)
			s.addEntry(a, br, 1)
			s.addEntry(b, br, -1)
			s.addEntry(br, a, 1)
			s.addEntry(br, b, -1)
			if t.ACMag != 0 {
				s.rhs[br] += cmplx.Rect(t.ACMag, t.ACPhase*math.Pi/180)
			}

		case *circuit.VCVS:
			br := int(e.idx[i].br)
			a, b, ca, cb := e.terms4(i)
			s.addEntry(a, br, 1)
			s.addEntry(b, br, -1)
			s.addEntry(br, a, 1)
			s.addEntry(br, b, -1)
			s.addEntry(br, ca, -t.Gain)
			s.addEntry(br, cb, t.Gain)

		case *circuit.MOSFET:
			d, g, srcU, bk := e.terms4(i)
			vd, vg, vs, vb := nodeVolt(op.V, d), nodeVolt(op.V, g), nodeVolt(op.V, srcU), nodeVolt(op.V, bk)
			_, dg, dd, ds, db := t.Dev.EvalIDGrad(vg, vd, vs, vb, e.Temp)
			// Drain current linearization: i_d = dd·vd + dg·vg + ds·vs + db·vb,
			// entering the drain and leaving the source.
			for _, tm := range []struct {
				u int
				p float64
			}{{d, dd}, {g, dg}, {srcU, ds}, {bk, db}} {
				if tm.p == 0 {
					continue
				}
				s.addEntry(d, tm.u, tm.p)
				if srcU >= 0 {
					s.addEntry(srcU, tm.u, -tm.p)
				}
			}
			// Small-signal capacitances at the bias point.
			mop := op.MOSOPs[t.Name]
			cs := t.Dev.Caps(mop, e.Temp)
			s.addC(g, srcU, cs.CGS)
			s.addC(g, d, cs.CGD)
			s.addC(g, bk, cs.CGB)
			s.addC(d, bk, cs.CDB)
			s.addC(srcU, bk, cs.CSB)

		default:
			panic(fmt.Sprintf("sim: unsupported element %T", el))
		}
	}
	return s
}

// assemble builds the complex MNA matrix at angular frequency w into y.
func (s *acStamps) assemble(w float64, y *linalg.Complex) {
	y.Zero()
	for k, v := range s.gVal {
		y.Add(s.gRow[k], s.gCol[k], complex(v, 0))
	}
	for k, v := range s.uVal {
		y.Add(s.uRow[k], s.uCol[k], complex(v, 0))
	}
	for k, v := range s.cVal {
		y.Add(s.cRow[k], s.cCol[k], complex(0, w*v))
	}
}

// ACResult holds one frequency point.
type ACResult struct {
	Freq float64
	// V holds node phasors indexed by circuit node index (0 = ground).
	V []complex128
}

// Volt returns the phasor at a named node.
func (r *ACResult) Volt(ckt *circuit.Circuit, node string) complex128 {
	i, ok := ckt.NodeIndex(node)
	if !ok {
		return cmplx.NaN()
	}
	if i == 0 {
		return 0
	}
	return r.V[i]
}

// ACSolver is a compiled small-signal linearization at one operating
// point. Compiling once and solving many frequency points skips the
// per-call re-linearization (every MOSFET's partials and capacitances)
// that AC pays on each invocation; the per-frequency assembly and
// factorization are unchanged, so the phasors are bit-identical to a
// fresh AC call at the same operating point.
//
// The solver owns one matrix, LU and solution buffer that every Solve
// call reuses, so an ACSolver is not safe for concurrent use.
type ACSolver struct {
	e  *Engine
	st *acStamps
	y  *linalg.Complex
	lu linalg.LUComplex
	x  []complex128
}

// PrepareAC linearizes the circuit at op once, for repeated Solve calls.
func (e *Engine) PrepareAC(op *OPResult) *ACSolver {
	return &ACSolver{e: e, st: e.compileAC(op),
		y: linalg.NewComplex(e.size), x: make([]complex128, e.size)}
}

// Solve runs the compiled linearization over the given frequencies (Hz).
func (s *ACSolver) Solve(freqs []float64) ([]*ACResult, error) {
	e := s.e
	out := make([]*ACResult, 0, len(freqs))
	for _, f := range freqs {
		if err := s.solveAt(f); err != nil {
			return nil, err
		}
		r := &ACResult{Freq: f, V: make([]complex128, e.Ckt.NumNodes())}
		for i := 1; i < e.Ckt.NumNodes(); i++ {
			r.V[i] = s.x[e.nodeUnknown(i)]
		}
		out = append(out, r)
	}
	return out, nil
}

// solveAt leaves the solution at frequency f (Hz) in s.x.
func (s *ACSolver) solveAt(f float64) error {
	s.st.assemble(2*math.Pi*f, s.y)
	if err := s.lu.Factor(s.y); err != nil {
		return fmt.Errorf("sim: AC matrix singular at %g Hz: %w", f, err)
	}
	s.lu.SolveInto(s.x, s.st.rhs)
	return nil
}

// AC runs a small-signal analysis at the operating point over the given
// frequencies (Hz). The sources' ACMag/ACPhase fields define the
// excitation.
func (e *Engine) AC(op *OPResult, freqs []float64) ([]*ACResult, error) {
	return e.PrepareAC(op).Solve(freqs)
}

// LogSpace returns n logarithmically spaced frequencies from f1 to f2.
func LogSpace(f1, f2 float64, n int) []float64 {
	if n < 2 {
		return []float64{f1}
	}
	out := make([]float64, n)
	l1, l2 := math.Log10(f1), math.Log10(f2)
	for i := range out {
		out[i] = logPoint(l1, l2, i, n)
	}
	return out
}

// logPoint is point i of the n-point grid from 10^l1 to 10^l2.
func logPoint(l1, l2 float64, i, n int) float64 {
	return math.Pow(10, l1+(l2-l1)*float64(i)/float64(n-1))
}
