package sim

import (
	"fmt"
	"math"

	"loas/internal/circuit"
)

// DCProbe re-solves the operating point of one engine while the caller
// changes source DC values between solves: the inner loop of a DC sweep
// or an offset bisection. It keeps one Newton workspace and the last
// converged unknown vector, and builds no OPResult unless asked.
type DCProbe struct {
	e    *Engine
	nw   *newton
	opts OPOptions
	x    []float64
	// have says x holds a converged solution; iters is the Newton count
	// of the solve that produced it.
	have  bool
	iters int
	// Newton counts the Newton iterations of every solve so far, as
	// OPResult.Iterations counts them, plus those of failed warm steps.
	Newton int
}

// NewDCProbe prepares a probe that solves with opts.
func (e *Engine) NewDCProbe(opts OPOptions) *DCProbe {
	opts.defaults()
	return &DCProbe{e: e, nw: e.newNewton(), opts: opts, x: make([]float64, e.size)}
}

// Cold solves the way OP does: from the node set through the gmin
// continuation (source stepping if that fails) and the polish. Its
// solution is bit-identical to OP's.
func (p *DCProbe) Cold() error {
	it, err := p.nw.cold(p.x, &p.opts)
	p.Newton += it
	p.have, p.iters = err == nil, it
	return err
}

// Warm continues from the last converged solution: Newton at GminEnd,
// then the gmin-free polish. It converges to the same operating point as
// Cold to well inside VTol, not bit for bit. Without a previous solution,
// or when that Newton fails, it solves Cold.
func (p *DCProbe) Warm() error {
	if !p.have {
		return p.Cold()
	}
	it, err := p.nw.warm(p.x, &p.opts)
	p.Newton += it
	if err != nil {
		return p.Cold()
	}
	p.iters = it
	return nil
}

// Volt returns the voltage of a named node in the last solution, NaN for
// a node the circuit lacks.
func (p *DCProbe) Volt(node string) float64 {
	i, ok := p.e.Ckt.NodeIndex(node)
	if !ok {
		return math.NaN()
	}
	return voltsAt(p.x, p.e.nodeUnknown(i))
}

// Result packages the last solution as OP does.
func (p *DCProbe) Result() *OPResult { return p.e.finishOP(p.x, p.iters) }

// DCSweep steps the DC value of a named voltage source through the given
// values, warm-starting each solve from the previous solution — the
// standard way to trace transfer characteristics through high-gain
// transitions. The first point, and any point the warm step cannot
// reach, is solved cold. The source's original value is restored
// afterwards.
func (e *Engine) DCSweep(srcName string, values []float64, opts OPOptions) ([]*OPResult, error) {
	var src *circuit.VSource
	for _, v := range e.Ckt.VSources() {
		if v.Name == srcName {
			src = v
		}
	}
	if src == nil {
		return nil, fmt.Errorf("sim: sweep source %q not found", srcName)
	}
	orig := src.DC
	defer func() { src.DC = orig }()

	out := make([]*OPResult, 0, len(values))
	p := e.NewDCProbe(opts)
	for i, val := range values {
		src.DC = val
		if err := p.Warm(); err != nil {
			return nil, fmt.Errorf("sim: sweep point %d (%.4g V): %w", i, val, err)
		}
		out = append(out, p.Result())
	}
	return out, nil
}
