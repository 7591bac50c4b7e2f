// Package sim is the circuit simulator: DC operating point
// (Newton–Raphson with gmin stepping), small-signal AC analysis (complex
// MNA), noise analysis (adjoint method) and transient analysis
// (trapezoidal integration).
//
// It substitutes for the commercial simulator/extractor combination used in
// the paper's evaluation. Crucially, it shares the exact transistor model
// (package device) with the sizing tool, which is the paper's own accuracy
// recipe.
package sim

import (
	"fmt"

	"loas/internal/circuit"
)

// Engine binds a circuit to an unknown ordering: node voltages first
// (ground excluded), then one branch current per voltage source and per
// VCVS, in insertion order.
//
// The engine holds structure only: the unknown indices of every element,
// resolved once. Element values (source levels, device geometry) are read
// at each solve, so a caller may change them between solves; the circuit
// must not gain elements or nodes after NewEngine.
type Engine struct {
	Ckt  *circuit.Circuit
	Temp float64 // K

	nNodes int // unknown node voltages = NumNodes-1
	size   int
	// idx[i] holds the unknowns of Ckt.Elements[i].
	idx []elemIdx
}

// elemIdx is one element's unknowns: its terminals in ElemNodes order
// (−1 for ground) and, for a voltage source or VCVS, its branch current
// (−1 otherwise). int32 keeps the table as small as the name-keyed branch
// map it replaced.
type elemIdx struct {
	u  [4]int32
	br int32
}

// NewEngine prepares an engine for the circuit at temperature temp (K).
func NewEngine(ckt *circuit.Circuit, temp float64) *Engine {
	e := &Engine{Ckt: ckt, Temp: temp, idx: make([]elemIdx, len(ckt.Elements))}
	e.nNodes = ckt.NumNodes() - 1
	e.size = e.nNodes
	for i, el := range ckt.Elements {
		ix := &e.idx[i]
		ix.br = -1
		terms := func(names ...string) {
			for k, name := range names {
				ix.u[k] = int32(e.unknownOf(name))
			}
		}
		switch t := el.(type) {
		case *circuit.Resistor:
			terms(t.A, t.B)
		case *circuit.Capacitor:
			terms(t.A, t.B)
		case *circuit.ISource:
			terms(t.Pos, t.Neg)
		case *circuit.VSource:
			terms(t.Pos, t.Neg)
			ix.br = int32(e.size)
			e.size++
		case *circuit.VCVS:
			terms(t.Pos, t.Neg, t.CPos, t.CNeg)
			ix.br = int32(e.size)
			e.size++
		case *circuit.MOSFET:
			terms(t.D, t.G, t.S, t.B)
		}
	}
	return e
}

// terms2 returns element i's first two terminal unknowns.
func (e *Engine) terms2(i int) (a, b int) {
	u := &e.idx[i].u
	return int(u[0]), int(u[1])
}

// terms4 returns element i's four terminal unknowns: drain, gate, source
// and bulk of a MOSFET; Pos, Neg, CPos and CNeg of a VCVS.
func (e *Engine) terms4(i int) (d, g, s, b int) {
	u := &e.idx[i].u
	return int(u[0]), int(u[1]), int(u[2]), int(u[3])
}

// branches calls fn with the name and branch unknown of every voltage
// source and VCVS, in element order.
func (e *Engine) branches(fn func(name string, br int)) {
	for i, ix := range e.idx {
		if ix.br >= 0 {
			fn(e.Ckt.Elements[i].ElemName(), int(ix.br))
		}
	}
}

// Size returns the MNA system dimension.
func (e *Engine) Size() int { return e.size }

// nodeUnknown maps a circuit node index to its position in the unknown
// vector; ground returns -1.
func (e *Engine) nodeUnknown(nodeIdx int) int { return nodeIdx - 1 }

// unknownOf interns the node name and returns its unknown index (-1 for
// ground). Panics on unknown nodes: elements intern their nodes at Add
// time, so a miss is a bug.
func (e *Engine) unknownOf(name string) int {
	i, ok := e.Ckt.NodeIndex(name)
	if !ok {
		panic(fmt.Sprintf("sim: node %q not in circuit %q", name, e.Ckt.Name))
	}
	return e.nodeUnknown(i)
}

// voltsAt reads a node voltage from an unknown vector (ground = 0).
func voltsAt(x []float64, u int) float64 {
	if u < 0 {
		return 0
	}
	return x[u]
}

// nodeVolt reads unknown u's voltage from a vector indexed by circuit
// node, such as OPResult.V: unknown u is node u+1, and ground (u = −1) is
// node 0.
func nodeVolt(v []float64, u int) float64 { return v[u+1] }

// BranchIndex returns the unknown index of a named source's branch current
// and whether the source exists.
func (e *Engine) BranchIndex(name string) (int, bool) {
	for i, ix := range e.idx {
		if ix.br >= 0 && e.Ckt.Elements[i].ElemName() == name {
			return int(ix.br), true
		}
	}
	return 0, false
}
