package sim

import (
	"fmt"
	"math"

	"loas/internal/circuit"
	"loas/internal/device"
	"loas/internal/linalg"
)

// DefaultVTol is the Newton voltage convergence tolerance when
// OPOptions.VTol is unset.
const DefaultVTol = 1e-6

// OPOptions tunes the DC solver.
type OPOptions struct {
	// NodeSet seeds initial node voltages by name (good seeds from the
	// sizing tool make convergence immediate).
	NodeSet map[string]float64
	// MaxIter per gmin step (default 200).
	MaxIter int
	// VTol is the voltage convergence tolerance (default DefaultVTol,
	// 1 µV).
	VTol float64
	// MaxStep clamps the Newton update per unknown (default 0.5 V).
	MaxStep float64
	// GminStart/GminEnd bound the gmin continuation (defaults 1e-2 → 1e-12).
	GminStart, GminEnd float64
}

func (o *OPOptions) defaults() {
	if o.MaxIter <= 0 {
		o.MaxIter = 200
	}
	if o.VTol <= 0 {
		o.VTol = DefaultVTol
	}
	if o.MaxStep <= 0 {
		o.MaxStep = 0.5
	}
	if o.GminStart <= 0 {
		o.GminStart = 1e-2
	}
	if o.GminEnd <= 0 {
		o.GminEnd = 1e-12
	}
}

// OPResult is a converged DC operating point.
type OPResult struct {
	// V holds node voltages indexed by circuit node index (0 = ground).
	V []float64
	// BranchI holds voltage-source branch currents by source name;
	// positive current flows from Pos through the source to Neg.
	BranchI map[string]float64
	// MOSOPs holds per-transistor bias data by instance name.
	MOSOPs map[string]device.OP
	// Iterations is the total Newton iteration count across gmin steps.
	Iterations int
}

// Volt returns the voltage of a named node.
func (r *OPResult) Volt(ckt *circuit.Circuit, node string) float64 {
	i, ok := ckt.NodeIndex(node)
	if !ok {
		return math.NaN()
	}
	return r.V[i]
}

// SupplyCurrent returns the magnitude of the current delivered by the
// named supply source.
func (r *OPResult) SupplyCurrent(name string) float64 {
	return math.Abs(r.BranchI[name])
}

// stampDC assembles the Jacobian J and residual f at candidate solution x
// for a given gmin and source scale (0..1). The residual convention is
// f(x) = 0 at solution; Newton solves J·Δ = −f.
// tNow < 0 means pure DC (sources at their DC values); tNow ≥ 0 evaluates
// time-dependent sources at that instant (used by transient analysis).
func (e *Engine) stampDC(x []float64, gmin, srcScale, tNow float64, j *linalg.Real, f []float64) {
	j.Zero()
	for i := range f {
		f[i] = 0
	}
	// gmin from every node to ground keeps the Jacobian non-singular
	// through continuation.
	for i := 0; i < e.nNodes; i++ {
		j.Add(i, i, gmin)
		f[i] += gmin * x[i]
	}

	for i, el := range e.Ckt.Elements {
		switch t := el.(type) {
		case *circuit.Resistor:
			a, b := e.terms2(i)
			g := 1 / t.R
			va, vb := voltsAt(x, a), voltsAt(x, b)
			i := g * (va - vb)
			if a >= 0 {
				j.Add(a, a, g)
				f[a] += i
				if b >= 0 {
					j.Add(a, b, -g)
				}
			}
			if b >= 0 {
				j.Add(b, b, g)
				f[b] -= i
				if a >= 0 {
					j.Add(b, a, -g)
				}
			}

		case *circuit.Capacitor:
			// Open at DC.

		case *circuit.ISource:
			a, b := e.terms2(i)
			val := t.DC
			if tNow >= 0 {
				val = t.Value(tNow)
			}
			cur := srcScale * val
			if a >= 0 {
				f[a] += cur
			}
			if b >= 0 {
				f[b] -= cur
			}

		case *circuit.VSource:
			br := int(e.idx[i].br)
			a, b := e.terms2(i)
			// KCL: branch current leaves Pos, enters Neg.
			if a >= 0 {
				j.Add(a, br, 1)
				f[a] += x[br]
			}
			if b >= 0 {
				j.Add(b, br, -1)
				f[b] -= x[br]
			}
			// Branch equation: V(pos) − V(neg) − E = 0.
			if a >= 0 {
				j.Add(br, a, 1)
			}
			if b >= 0 {
				j.Add(br, b, -1)
			}
			val := t.DC
			if tNow >= 0 {
				val = t.Value(tNow)
			}
			f[br] += voltsAt(x, a) - voltsAt(x, b) - srcScale*val

		case *circuit.VCVS:
			br := int(e.idx[i].br)
			a, b, ca, cb := e.terms4(i)
			if a >= 0 {
				j.Add(a, br, 1)
				f[a] += x[br]
			}
			if b >= 0 {
				j.Add(b, br, -1)
				f[b] -= x[br]
			}
			if a >= 0 {
				j.Add(br, a, 1)
			}
			if b >= 0 {
				j.Add(br, b, -1)
			}
			if ca >= 0 {
				j.Add(br, ca, -t.Gain)
			}
			if cb >= 0 {
				j.Add(br, cb, t.Gain)
			}
			f[br] += voltsAt(x, a) - voltsAt(x, b) - t.Gain*(voltsAt(x, ca)-voltsAt(x, cb))

		case *circuit.MOSFET:
			d, g, s, bk := e.terms4(i)
			vd, vg, vs, vb := voltsAt(x, d), voltsAt(x, g), voltsAt(x, s), voltsAt(x, bk)
			id, dg, dd, ds, db := t.Dev.EvalIDGrad(vg, vd, vs, vb, e.Temp)
			// Current id enters the drain node and leaves the source node.
			terms := [4]struct {
				u int
				p float64
			}{{d, dd}, {g, dg}, {s, ds}, {bk, db}}
			if d >= 0 {
				f[d] += id
				for _, tm := range terms {
					if tm.u >= 0 {
						j.Add(d, tm.u, tm.p)
					}
				}
			}
			if s >= 0 {
				f[s] -= id
				for _, tm := range terms {
					if tm.u >= 0 {
						j.Add(s, tm.u, -tm.p)
					}
				}
			}

		default:
			panic(fmt.Sprintf("sim: unsupported element %T", el))
		}
	}
}

// newton is the Newton workspace: the Jacobian, residual, update and LU
// storage of one analysis, shared by every gmin rung, source step and
// time step it runs, so the solver allocates nothing per iteration.
type newton struct {
	e     *Engine
	j     *linalg.Real
	f, dx []float64
	lu    linalg.LUReal
	// backup holds polish's fallback point, allocated at first use.
	backup []float64
}

func (e *Engine) newNewton() *newton {
	return &newton{e: e, j: linalg.NewReal(e.size), f: make([]float64, e.size), dx: make([]float64, e.size)}
}

// solve runs damped Newton at a fixed gmin/source scale.
func (nw *newton) solve(x []float64, gmin, srcScale float64, opts *OPOptions) (int, error) {
	return nw.solveAt(x, gmin, srcScale, -1, nil, opts)
}

// solveAt optionally adds extra linear stamps (transient companions)
// through the extra callback.
func (nw *newton) solveAt(x []float64, gmin, srcScale, tNow float64, extra func(x []float64, j *linalg.Real, f []float64), opts *OPOptions) (int, error) {
	j, f, dx := nw.j, nw.f, nw.dx
	for iter := 1; iter <= opts.MaxIter; iter++ {
		nw.e.stampDC(x, gmin, srcScale, tNow, j, f)
		if extra != nil {
			extra(x, j, f)
		}
		if err := nw.lu.Factor(j); err != nil {
			return iter, fmt.Errorf("sim: singular Jacobian at gmin=%.3g iter=%d: %w", gmin, iter, err)
		}
		for i := range f {
			f[i] = -f[i]
		}
		nw.lu.SolveInto(dx, f)
		var maxDx float64
		for i := range dx {
			d := dx[i]
			if d > opts.MaxStep {
				d = opts.MaxStep
			} else if d < -opts.MaxStep {
				d = -opts.MaxStep
			}
			x[i] += d
			if a := math.Abs(d); a > maxDx {
				maxDx = a
			}
		}
		if maxDx < opts.VTol {
			return iter, nil
		}
	}
	return opts.MaxIter, fmt.Errorf("sim: DC Newton did not converge (gmin=%.3g)", gmin)
}

// OP computes the DC operating point.
func (e *Engine) OP(opts OPOptions) (*OPResult, error) {
	opts.defaults()
	x := make([]float64, e.size)
	it, err := e.newNewton().cold(x, &opts)
	if err != nil {
		return nil, err
	}
	return e.finishOP(x, it), nil
}

// cold solves from the node set into x: gmin continuation, sweeping gmin
// down in decades and warm-starting each rung from the previous one, then
// the polish. A failed rung falls back to source stepping from scratch.
// It returns the Newton iterations of the path that produced x.
func (nw *newton) cold(x []float64, opts *OPOptions) (int, error) {
	clear(x)
	for name, v := range opts.NodeSet {
		if i, ok := nw.e.Ckt.NodeIndex(name); ok && i > 0 {
			x[nw.e.nodeUnknown(i)] = v
		}
	}
	totalIter := 0
	for gmin := opts.GminStart; ; gmin /= 10 {
		if gmin < opts.GminEnd {
			gmin = opts.GminEnd
		}
		it, err := nw.solve(x, gmin, 1.0, opts)
		totalIter += it
		if err != nil {
			return nw.sourceStepping(x, opts)
		}
		if gmin == opts.GminEnd {
			break
		}
	}
	nw.polish(x, opts, &totalIter)
	return totalIter, nil
}

// warm moves x, a converged solution at nearby source values, to the
// current ones: Newton at GminEnd from x, then the polish. On error x
// holds the failed iterate.
func (nw *newton) warm(x []float64, opts *OPOptions) (int, error) {
	it, err := nw.solve(x, opts.GminEnd, 1.0, opts)
	if err != nil {
		return it, err
	}
	nw.polish(x, opts, &it)
	return it, nil
}

// polish runs a final Newton pass with gmin removed entirely, so the
// reported solution carries no continuation bias. Failure (a circuit that
// genuinely needs gmin, e.g. a floating node) keeps the last good point.
func (nw *newton) polish(x []float64, opts *OPOptions, totalIter *int) {
	if nw.backup == nil {
		nw.backup = make([]float64, len(x))
	}
	copy(nw.backup, x)
	it, err := nw.solve(x, 0, 1.0, opts)
	*totalIter += it
	if err != nil {
		copy(x, nw.backup)
	}
}

// sourceStepping ramps all independent sources from 0 to full value,
// starting x from zero.
func (nw *newton) sourceStepping(x []float64, opts *OPOptions) (int, error) {
	clear(x)
	total := 0
	for _, scale := range []float64{0.05, 0.1, 0.2, 0.3, 0.45, 0.6, 0.75, 0.9, 1.0} {
		it, err := nw.solve(x, 1e-9, scale, opts)
		total += it
		if err != nil {
			return total, fmt.Errorf("sim: source stepping failed at scale %.2f: %w", scale, err)
		}
	}
	nw.polish(x, opts, &total)
	return total, nil
}

// finishOP packages the solution vector.
func (e *Engine) finishOP(x []float64, iters int) *OPResult {
	r := &OPResult{
		V:          make([]float64, e.Ckt.NumNodes()),
		BranchI:    map[string]float64{},
		MOSOPs:     map[string]device.OP{},
		Iterations: iters,
	}
	for i := 1; i < e.Ckt.NumNodes(); i++ {
		r.V[i] = x[e.nodeUnknown(i)]
	}
	e.branches(func(name string, br int) { r.BranchI[name] = x[br] })
	for i, el := range e.Ckt.Elements {
		if m, ok := el.(*circuit.MOSFET); ok {
			d, g, s, b := e.terms4(i)
			r.MOSOPs[m.Name] = m.Dev.Eval(nodeVolt(r.V, g), nodeVolt(r.V, d), nodeVolt(r.V, s), nodeVolt(r.V, b), e.Temp)
		}
	}
	return r
}

// KCLResidual recomputes the DC residual vector norm at a solution — used
// by tests to assert physical consistency of converged points.
func (e *Engine) KCLResidual(r *OPResult) float64 {
	x := make([]float64, e.size)
	for i := 1; i < e.Ckt.NumNodes(); i++ {
		x[e.nodeUnknown(i)] = r.V[i]
	}
	e.branches(func(name string, br int) { x[br] = r.BranchI[name] })
	j := linalg.NewReal(e.size)
	f := make([]float64, e.size)
	e.stampDC(x, 0, 1.0, -1, j, f)
	var norm float64
	for _, v := range f[:e.nNodes] { // node KCL rows only
		norm = math.Max(norm, math.Abs(v))
	}
	return norm
}
