package linalg

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
)

// The dense elimination below is the LU the package computed before it
// skipped exact zeros, kept as the oracle Factor must match bit for bit
// (as grad_test.go in package device keeps the finite differences).

// denseStats counts what the oracle matrices exercise, so a generator
// change that stops producing a case fails the test instead of silently
// narrowing it.
type denseStats struct {
	negPivots      int // real pivots < 0
	reBigPivots    int // complex pivots with |re| ≥ |im|
	imBigPivots    int // complex pivots with |re| < |im|
	cancellations  int // updates that turned a nonzero entry into an exact 0
	zeroColumnRows int // rows below the pivot whose pivot-column entry is 0
}

// denseFactorReal is the reference dense LU with partial pivoting.
func denseFactorReal(m *Real, st *denseStats) (lu []float64, piv []int, sign int, err error) {
	n := m.N
	lu = append([]float64(nil), m.A...)
	piv = make([]int, n)
	for i := range piv {
		piv[i] = i
	}
	sign = 1
	for k := 0; k < n; k++ {
		p, maxAbs := k, math.Abs(lu[k*n+k])
		for i := k + 1; i < n; i++ {
			if a := math.Abs(lu[i*n+k]); a > maxAbs {
				p, maxAbs = i, a
			}
		}
		if maxAbs < pivotTiny {
			return nil, nil, 0, ErrSingular
		}
		if p != k {
			rowK := lu[k*n : k*n+n]
			rowP := lu[p*n : p*n+n]
			for j := range rowK {
				rowK[j], rowP[j] = rowP[j], rowK[j]
			}
			piv[k], piv[p] = piv[p], piv[k]
			sign = -sign
		}
		pivot := lu[k*n+k]
		if pivot < 0 {
			st.negPivots++
		}
		for i := k + 1; i < n; i++ {
			if lu[i*n+k] == 0 {
				st.zeroColumnRows++
			}
			l := lu[i*n+k] / pivot
			lu[i*n+k] = l
			if l == 0 {
				continue
			}
			rowI := lu[i*n : i*n+n]
			rowK := lu[k*n : k*n+n]
			for j := k + 1; j < n; j++ {
				before := rowI[j]
				rowI[j] -= l * rowK[j]
				if before != 0 && rowI[j] == 0 {
					st.cancellations++
				}
			}
		}
	}
	return lu, piv, sign, nil
}

// denseSolveReal is the reference forward and back substitution.
func denseSolveReal(lu []float64, piv []int, b []float64) []float64 {
	n := len(piv)
	x := make([]float64, n)
	for i := 0; i < n; i++ {
		x[i] = b[piv[i]]
	}
	for i := 1; i < n; i++ {
		s := x[i]
		row := lu[i*n : i*n+n]
		for j := 0; j < i; j++ {
			s -= row[j] * x[j]
		}
		x[i] = s
	}
	for i := n - 1; i >= 0; i-- {
		s := x[i]
		row := lu[i*n : i*n+n]
		for j := i + 1; j < n; j++ {
			s -= row[j] * x[j]
		}
		x[i] = s / row[i]
	}
	return x
}

// denseFactorComplex is the complex reference, dividing with Go's own
// complex division.
func denseFactorComplex(m *Complex, st *denseStats) (lu []complex128, piv []int, err error) {
	n := m.N
	lu = append([]complex128(nil), m.A...)
	piv = make([]int, n)
	for i := range piv {
		piv[i] = i
	}
	for k := 0; k < n; k++ {
		p, maxAbs := k, cmplx.Abs(lu[k*n+k])
		for i := k + 1; i < n; i++ {
			if a := cmplx.Abs(lu[i*n+k]); a > maxAbs {
				p, maxAbs = i, a
			}
		}
		if maxAbs < pivotTiny {
			return nil, nil, ErrSingular
		}
		if p != k {
			rowK := lu[k*n : k*n+n]
			rowP := lu[p*n : p*n+n]
			for j := range rowK {
				rowK[j], rowP[j] = rowP[j], rowK[j]
			}
			piv[k], piv[p] = piv[p], piv[k]
		}
		pivot := lu[k*n+k]
		if math.Abs(real(pivot)) >= math.Abs(imag(pivot)) {
			st.reBigPivots++
		} else {
			st.imBigPivots++
		}
		for i := k + 1; i < n; i++ {
			if lu[i*n+k] == 0 {
				st.zeroColumnRows++
			}
			l := lu[i*n+k] / pivot
			lu[i*n+k] = l
			if l == 0 {
				continue
			}
			rowI := lu[i*n : i*n+n]
			rowK := lu[k*n : k*n+n]
			for j := k + 1; j < n; j++ {
				before := rowI[j]
				rowI[j] -= l * rowK[j]
				if before != 0 && rowI[j] == 0 {
					st.cancellations++
				}
			}
		}
	}
	return lu, piv, nil
}

// denseSolveComplex is the complex reference substitution.
func denseSolveComplex(lu []complex128, piv []int, b []complex128) []complex128 {
	n := len(piv)
	x := make([]complex128, n)
	for i := 0; i < n; i++ {
		x[i] = b[piv[i]]
	}
	for i := 1; i < n; i++ {
		s := x[i]
		row := lu[i*n : i*n+n]
		for j := 0; j < i; j++ {
			s -= row[j] * x[j]
		}
		x[i] = s
	}
	for i := n - 1; i >= 0; i-- {
		s := x[i]
		row := lu[i*n : i*n+n]
		for j := i + 1; j < n; j++ {
			s -= row[j] * x[j]
		}
		x[i] = s / row[i]
	}
	return x
}

// sameBits reports bit equality, with every NaN equal to every other: a
// NaN's payload is not a result anything reads.
func sameBits(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || (a != a && b != b)
}

// checkRealMatchesDense factors m with LUReal f and with the reference
// and compares every LU entry, the permutation, the sign and a solve.
func checkRealMatchesDense(t *testing.T, f *LUReal, m *Real, b []float64, st *denseStats) {
	t.Helper()
	wantLU, wantPiv, wantSign, wantErr := denseFactorReal(m, st)
	if err := f.Factor(m); err != wantErr {
		t.Fatalf("real Factor error %v, reference %v", err, wantErr)
	}
	if wantErr != nil {
		return
	}
	for i, w := range wantLU {
		if !sameBits(f.lu[i], w) {
			t.Fatalf("real n=%d LU[%d][%d] = %x, reference %x", m.N, i/m.N, i%m.N,
				math.Float64bits(f.lu[i]), math.Float64bits(w))
		}
	}
	for i, w := range wantPiv {
		if int(f.piv[i]) != w {
			t.Fatalf("real n=%d pivot row %d = %d, reference %d", m.N, i, f.piv[i], w)
		}
	}
	if f.sign != wantSign {
		t.Fatalf("real n=%d sign %d, reference %d", m.N, f.sign, wantSign)
	}
	got, want := make([]float64, m.N), denseSolveReal(wantLU, wantPiv, b)
	f.SolveInto(got, b)
	for i := range want {
		if !sameBits(got[i], want[i]) {
			t.Fatalf("real n=%d x[%d] = %x, reference %x", m.N, i,
				math.Float64bits(got[i]), math.Float64bits(want[i]))
		}
	}
}

// checkComplexMatchesDense is checkRealMatchesDense for LUComplex.
func checkComplexMatchesDense(t *testing.T, f *LUComplex, m *Complex, b []complex128, st *denseStats) {
	t.Helper()
	same := func(a, b complex128) bool { return sameBits(real(a), real(b)) && sameBits(imag(a), imag(b)) }
	wantLU, wantPiv, wantErr := denseFactorComplex(m, st)
	if err := f.Factor(m); err != wantErr {
		t.Fatalf("complex Factor error %v, reference %v", err, wantErr)
	}
	if wantErr != nil {
		return
	}
	for i, w := range wantLU {
		if !same(f.lu[i], w) {
			t.Fatalf("complex n=%d LU[%d][%d] = %v, reference %v", m.N, i/m.N, i%m.N, f.lu[i], w)
		}
	}
	for i, w := range wantPiv {
		if int(f.piv[i]) != w {
			t.Fatalf("complex n=%d pivot row %d = %d, reference %d", m.N, i, f.piv[i], w)
		}
	}
	got, want := make([]complex128, m.N), denseSolveComplex(wantLU, wantPiv, b)
	f.SolveInto(got, b)
	for i := range want {
		if !same(got[i], want[i]) {
			t.Fatalf("complex n=%d x[%d] = %v, reference %v", m.N, i, got[i], want[i])
		}
	}
}

// mnaPair stamps one random MNA system twice: as a real Jacobian and as
// an AC matrix at angular frequency w. Like the simulator it uses only
// Zero and Add, so neither matrix holds a −0. Nodes are unknowns
// 0..nodes-1 (−1 is ground), then one branch row per voltage source.
// The stamps are the simulator's: gmin, conductances and capacitors
// between node pairs, voltage sources (±1 incidence, which leaves zero
// diagonals and negative pivots after pivoting), and MOS transistors
// (four partials, some negative, into the drain and source rows). Every
// other conductance is a power of two, and twin rows repeat a stamp at
// half scale, so some eliminations cancel to an exact 0.
func mnaPair(r *rand.Rand, nodes, sources int, w float64) (*Real, *Complex) {
	n := nodes + sources
	g, y := NewReal(n), NewComplex(n)
	node := func() int { return r.Intn(nodes+1) - 1 }
	addG := func(a, b int, v float64, c float64) {
		stamp := func(i, j int, s float64) {
			if i >= 0 && j >= 0 {
				g.Add(i, j, s*v)
				y.Add(i, j, complex(s*v, s*w*c))
			}
		}
		stamp(a, a, 1)
		stamp(b, b, 1)
		stamp(a, b, -1)
		stamp(b, a, -1)
	}
	for i := 0; i < nodes; i++ {
		g.Add(i, i, 1e-12)
		y.Add(i, i, 1e-12)
	}
	for e := 0; e < 2*nodes; e++ {
		v := math.Ldexp(1, -r.Intn(20))
		if e%2 == 1 {
			v = math.Exp(-10 * r.Float64())
		}
		addG(node(), node(), v, 1e-13*r.Float64())
	}
	for k := 0; k < sources; k++ {
		br := nodes + k
		a, b := node(), node()
		for _, t := range [][3]int{{a, br, 1}, {b, br, -1}, {br, a, 1}, {br, b, -1}} {
			if t[0] >= 0 && t[1] >= 0 {
				g.Add(t[0], t[1], float64(t[2]))
				y.Add(t[0], t[1], complex(float64(t[2]), 0))
			}
		}
	}
	for k := 0; k < nodes/2; k++ {
		d, gt, s, bk := node(), node(), node(), node()
		parts := [4]float64{r.Float64() * 1e-5, r.Float64() * 1e-3, -r.Float64() * 1e-3, -r.Float64() * 1e-4}
		for ti, u := range [4]int{d, gt, s, bk} {
			if u < 0 {
				continue
			}
			if d >= 0 {
				g.Add(d, u, parts[ti])
				y.Add(d, u, complex(parts[ti], 0))
			}
			if s >= 0 {
				g.Add(s, u, -parts[ti])
				y.Add(s, u, complex(-parts[ti], 0))
			}
		}
		addG(gt, s, 0, 1e-14*(1+r.Float64()))
	}
	// Twin rows: row b gets half of row a on the columns a stamps, so
	// eliminating column a from row b cancels exactly.
	if nodes >= 3 {
		a, b := r.Intn(nodes), r.Intn(nodes)
		if a != b {
			for j := 0; j < n; j++ {
				if v := g.At(a, j); v != 0 && r.Intn(2) == 0 {
					g.Add(b, j, v/2)
					y.Add(b, j, y.At(a, j)/2)
				}
			}
		}
	}
	return g, y
}

// mnaCases are the oracle's matrix shapes: node count, source count and
// the AC frequency (rad/s) spanning resistive to capacitive pivots.
var mnaCases = []struct {
	nodes, sources int
	w              float64
}{
	{1, 0, 1}, {2, 1, 1e3}, {4, 2, 1e6}, {8, 3, 1e9}, {12, 3, 1e10},
	{18, 3, 1e11}, {18, 4, 6e8}, {24, 5, 1e12},
}

// TestFactorMatchesDenseReference: on MNA-shaped sparse matrices, the
// zero-skipping Factor and the dense reference agree in every bit of
// every LU entry, pivot and solution, and the matrices reach every case
// the zero-skipping has to get right.
func TestFactorMatchesDenseReference(t *testing.T) {
	var st denseStats
	var fr LUReal
	var fc LUComplex
	for seed := int64(1); seed <= 40; seed++ {
		for _, c := range mnaCases {
			r := rand.New(rand.NewSource(seed))
			g, y := mnaPair(r, c.nodes, c.sources, c.w)
			n := g.N
			b, bc := make([]float64, n), make([]complex128, n)
			for i := range b {
				b[i] = r.NormFloat64()
				bc[i] = complex(r.NormFloat64(), r.NormFloat64())
			}
			checkRealMatchesDense(t, &fr, g, b, &st)
			checkComplexMatchesDense(t, &fc, y, bc, &st)
		}
	}
	// A NaN multiplier, and a NaN pivot that makes even a zero entry's
	// multiplier NaN: both update every column of the row, as dense
	// elimination does.
	for _, rows := range [][]float64{{2, 1, 0, 0, 2, 0, math.NaN(), 0, 5}, {math.NaN(), 1, 0, 0, 2, 0, 0, 0, 3}} {
		g, y := NewReal(3), NewComplex(3)
		for i, v := range rows {
			g.A[i], y.A[i] = v, complex(v, v/2)
		}
		b, bc := []float64{1, 2, 3}, []complex128{1, 2i, 3}
		checkRealMatchesDense(t, &fr, g, b, &st)
		checkComplexMatchesDense(t, &fc, y, bc, &st)
	}
	// An infinite pivot divides finite entries to zero only through the
	// runtime's NaN correction.
	y := NewComplex(3)
	copy(y.A, []complex128{complex(math.Inf(1), math.Inf(1)), 1, 0, 1, 2, 0, 0.5, 0, 3})
	checkComplexMatchesDense(t, &fc, y, []complex128{1, 2, 3}, &st)

	if st.negPivots == 0 || st.reBigPivots == 0 || st.imBigPivots == 0 ||
		st.cancellations == 0 || st.zeroColumnRows == 0 {
		t.Fatalf("oracle matrices miss a case: %+v", st)
	}
	t.Logf("%+v", st)
}

// FuzzFactorMatchesDense stamps matrices from arbitrary bytes, through
// Add only as the simulator does, and demands bit-identity with the
// dense reference. The matrices are 1 + size%32 square. Each 11-byte
// record stamps one value at one entry: row, column, a byte whose low
// bit selects the imaginary part of the complex matrix (else the value
// goes to the real matrix and the complex one's real part), then the
// value's little-endian IEEE-754 bits.
func FuzzFactorMatchesDense(f *testing.F) {
	for seed := int64(1); seed <= 3; seed++ {
		for _, c := range mnaCases {
			g, y := mnaPair(rand.New(rand.NewSource(seed)), c.nodes, c.sources, c.w)
			f.Add(uint8(g.N-1), fuzzRecords(g, y))
		}
	}
	f.Fuzz(func(t *testing.T, size uint8, recs []byte) {
		n := 1 + int(size)%32
		g, y := NewReal(n), NewComplex(n)
		for ; len(recs) >= 11; recs = recs[11:] {
			i, j := int(recs[0])%n, int(recs[1])%n
			v := math.Float64frombits(leUint64(recs[3:11]))
			if recs[2]&1 == 0 {
				g.Add(i, j, v)
				y.Add(i, j, complex(v, 0))
			} else {
				y.Add(i, j, complex(0, v))
			}
		}
		b, bc := make([]float64, n), make([]complex128, n)
		for i := range b {
			b[i] = float64(i + 1)
			bc[i] = complex(1, float64(i))
		}
		var st denseStats
		checkRealMatchesDense(t, new(LUReal), g, b, &st)
		checkComplexMatchesDense(t, new(LUComplex), y, bc, &st)
	})
}

// fuzzRecords encodes an oracle matrix pair as fuzz records that
// rebuild it exactly: g's entries (which are also y's real parts), then
// y's imaginary parts.
func fuzzRecords(g *Real, y *Complex) []byte {
	var out []byte
	put := func(i, j int, im byte, v float64) {
		out = append(out, byte(i), byte(j), im)
		bits := math.Float64bits(v)
		for k := 0; k < 8; k++ {
			out = append(out, byte(bits>>(8*k)))
		}
	}
	for i := 0; i < g.N; i++ {
		for j := 0; j < g.N; j++ {
			if v := g.At(i, j); v != 0 {
				put(i, j, 0, v)
			}
			if v := imag(y.At(i, j)); v != 0 {
				put(i, j, 1, v)
			}
		}
	}
	return out
}

func leUint64(b []byte) uint64 {
	var u uint64
	for k := 7; k >= 0; k-- {
		u = u<<8 | uint64(b[k])
	}
	return u
}
