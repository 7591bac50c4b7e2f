// Package linalg provides the dense LU factorizations (real and complex)
// that back the circuit simulator's modified-nodal-analysis solves. Only
// what the simulator needs is implemented: factor once, solve many
// right-hand sides, with partial pivoting for numerical robustness on the
// poorly scaled matrices MOS stamps produce (conductances spanning 1e-12
// to 1e-1 S).
package linalg

import (
	"errors"
	"math"
	"math/cmplx"
)

// ErrSingular reports a numerically singular matrix (a pivot below the
// absolute threshold after partial pivoting).
var ErrSingular = errors.New("linalg: matrix is singular to working precision")

const pivotTiny = 1e-30

// Real is a dense real matrix stored row-major.
type Real struct {
	N int
	A []float64
}

// NewReal allocates an n×n zero matrix.
func NewReal(n int) *Real { return &Real{N: n, A: make([]float64, n*n)} }

// At returns element (i,j).
func (m *Real) At(i, j int) float64 { return m.A[i*m.N+j] }

// Set assigns element (i,j).
func (m *Real) Set(i, j int, v float64) { m.A[i*m.N+j] = v }

// Add accumulates into element (i,j) — the natural MNA stamping primitive.
func (m *Real) Add(i, j int, v float64) { m.A[i*m.N+j] += v }

// Zero clears the matrix for restamping.
func (m *Real) Zero() {
	for i := range m.A {
		m.A[i] = 0
	}
}

// Clone returns a deep copy.
func (m *Real) Clone() *Real {
	c := NewReal(m.N)
	copy(c.A, m.A)
	return c
}

// LUReal is an in-place LU factorization with partial pivoting. The zero
// value is ready for Factor, which reuses its storage across matrices.
type LUReal struct {
	n    int
	lu   []float64
	piv  []int32 // row permutation
	nz   []int32 // scratch: the nonzero columns of the current pivot row
	sign int
}

// FactorReal computes the LU factorization of m (m is not modified).
func FactorReal(m *Real) (*LUReal, error) {
	f := &LUReal{}
	if err := f.Factor(m); err != nil {
		return nil, err
	}
	return f, nil
}

// Factor computes the LU factorization of m into f (m is not modified),
// reusing f's storage when it is large enough. After an error f holds no
// usable factorization until the next successful Factor.
//
// MNA matrices are mostly exact zeros, so the elimination skips them: a
// row whose pivot-column entry is 0 gets the multiplier 0/pivot and no
// update, and the other rows are updated only in the columns where the
// pivot row is nonzero. For every matrix without a −0 entry, which is
// every matrix built by Zero and Add, the result is bit-identical to
// dense elimination: a subtraction yields −0 only from a −0 operand, so
// the eliminated entries never hold −0 either, and for such an x and a
// finite multiplier l, x − l·0 = x exactly. A non-finite l (l·0 is NaN)
// updates every column, as dense elimination does.
func (f *LUReal) Factor(m *Real) error {
	n := m.N
	f.n, f.sign = n, 1
	f.lu = resize(f.lu, n*n)
	f.piv, f.nz = permScratch(f.piv, n)
	copy(f.lu, m.A)
	lu := f.lu
	for i := range f.piv {
		f.piv[i] = int32(i)
	}
	for k := 0; k < n; k++ {
		// Partial pivot: largest |a[i][k]| for i ≥ k.
		p, maxAbs := k, math.Abs(lu[k*n+k])
		for i := k + 1; i < n; i++ {
			if a := math.Abs(lu[i*n+k]); a > maxAbs {
				p, maxAbs = i, a
			}
		}
		if maxAbs < pivotTiny {
			return ErrSingular
		}
		if p != k {
			rowK := lu[k*n : k*n+n]
			rowP := lu[p*n : p*n+n]
			for j := range rowK {
				rowK[j], rowP[j] = rowP[j], rowK[j]
			}
			f.piv[k], f.piv[p] = f.piv[p], f.piv[k]
			f.sign = -f.sign
		}
		rowK := lu[k*n : k*n+n]
		nz := f.nz
		c := 0
		for j := k + 1; j < n; j++ {
			nz[c] = int32(j)
			if rowK[j] != 0 {
				c++
			}
		}
		nz = nz[:c]
		pivot := rowK[k]
		zero := 0 / pivot
		for i := k + 1; i < n; i++ {
			l := zero
			if a := lu[i*n+k]; a != 0 {
				l = a / pivot
			}
			lu[i*n+k] = l
			if l == 0 {
				continue
			}
			rowI := lu[i*n : i*n+n]
			if l-l != 0 {
				for j := k + 1; j < n; j++ {
					rowI[j] -= l * rowK[j]
				}
				continue
			}
			for _, j := range nz {
				rowI[j] -= l * rowK[j]
			}
		}
	}
	return nil
}

// Solve solves A·x = b, returning x as a new slice.
func (f *LUReal) Solve(b []float64) []float64 {
	x := make([]float64, f.n)
	f.SolveInto(x, b)
	return x
}

// SolveInto solves A·x = b into x, which must have length n and must not
// share storage with b.
func (f *LUReal) SolveInto(x, b []float64) {
	n := f.n
	for i := 0; i < n; i++ {
		x[i] = b[f.piv[i]]
	}
	// Forward substitution (unit lower triangular).
	for i := 1; i < n; i++ {
		s := x[i]
		row := f.lu[i*n : i*n+n]
		for j := 0; j < i; j++ {
			s -= row[j] * x[j]
		}
		x[i] = s
	}
	// Back substitution.
	for i := n - 1; i >= 0; i-- {
		s := x[i]
		row := f.lu[i*n : i*n+n]
		for j := i + 1; j < n; j++ {
			s -= row[j] * x[j]
		}
		x[i] = s / row[i]
	}
}

// permScratch returns the row permutation and the nonzero-column
// scratch of an n×n factorization as the two halves of one allocation,
// reusing piv's when it is large enough.
func permScratch(piv []int32, n int) (perm, nz []int32) {
	s := piv[:cap(piv)]
	if len(s) < 2*n {
		s = make([]int32, 2*n)
	}
	return s[:n], s[n : 2*n : 2*n]
}

// resize returns s with length n, reallocating only when its capacity is
// too small. The contents are left for the caller to overwrite.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// Complex is a dense complex matrix stored row-major.
type Complex struct {
	N int
	A []complex128
}

// NewComplex allocates an n×n zero matrix.
func NewComplex(n int) *Complex { return &Complex{N: n, A: make([]complex128, n*n)} }

// At returns element (i,j).
func (m *Complex) At(i, j int) complex128 { return m.A[i*m.N+j] }

// Set assigns element (i,j).
func (m *Complex) Set(i, j int, v complex128) { m.A[i*m.N+j] = v }

// Add accumulates into element (i,j).
func (m *Complex) Add(i, j int, v complex128) { m.A[i*m.N+j] += v }

// Zero clears the matrix for restamping.
func (m *Complex) Zero() {
	for i := range m.A {
		m.A[i] = 0
	}
}

// LUComplex is the complex analogue of LUReal.
type LUComplex struct {
	n   int
	lu  []complex128
	piv []int32 // row permutation
	nz  []int32 // scratch: the nonzero columns of the current pivot row
}

// FactorComplex computes the LU factorization of m (m is not modified).
func FactorComplex(m *Complex) (*LUComplex, error) {
	f := &LUComplex{}
	if err := f.Factor(m); err != nil {
		return nil, err
	}
	return f, nil
}

// Factor computes the LU factorization of m into f (m is not modified),
// reusing f's storage as LUReal.Factor does. It skips exact zeros as
// LUReal.Factor does, with the same bit-identity argument applied to the
// real and imaginary parts separately; a zero cannot win the pivot
// search either, so it is not measured. The multipliers are divided by
// Smith's algorithm exactly as the Go runtime divides complex numbers,
// with the terms that depend only on the pivot computed once per column.
func (f *LUComplex) Factor(m *Complex) error {
	n := m.N
	f.n = n
	f.lu = resize(f.lu, n*n)
	f.piv, f.nz = permScratch(f.piv, n)
	copy(f.lu, m.A)
	lu := f.lu
	for i := range f.piv {
		f.piv[i] = int32(i)
	}
	for k := 0; k < n; k++ {
		p, maxAbs := k, cmplx.Abs(lu[k*n+k])
		for i := k + 1; i < n; i++ {
			v := lu[i*n+k]
			if v == 0 {
				continue
			}
			if a := cmplx.Abs(v); a > maxAbs {
				p, maxAbs = i, a
			}
		}
		if maxAbs < pivotTiny {
			return ErrSingular
		}
		if p != k {
			rowK := lu[k*n : k*n+n]
			rowP := lu[p*n : p*n+n]
			for j := range rowK {
				rowK[j], rowP[j] = rowP[j], rowK[j]
			}
			f.piv[k], f.piv[p] = f.piv[p], f.piv[k]
		}
		rowK := lu[k*n : k*n+n]
		nz := f.nz
		c := 0
		for j := k + 1; j < n; j++ {
			nz[c] = int32(j)
			if rowK[j] != 0 {
				c++
			}
		}
		nz = nz[:c]
		pivot := rowK[k]
		div := newSmithDiv(pivot)
		zero := div.of(0)
		for i := k + 1; i < n; i++ {
			l := zero
			if a := lu[i*n+k]; a != 0 {
				l = div.of(a)
			}
			lu[i*n+k] = l
			if l == 0 {
				continue
			}
			rowI := lu[i*n : i*n+n]
			if real(l)-real(l) != 0 || imag(l)-imag(l) != 0 {
				for j := k + 1; j < n; j++ {
					rowI[j] -= l * rowK[j]
				}
				continue
			}
			for _, j := range nz {
				rowI[j] -= l * rowK[j]
			}
		}
	}
	return nil
}

// smithDiv divides by a fixed complex number m the way runtime.complex128div
// does (Smith's algorithm, Commun. ACM 5(8): 435, 1962), with the ratio and
// denominator that depend only on m computed once.
type smithDiv struct {
	m            complex128
	reBig        bool // |re m| ≥ |im m|: the branch the runtime takes
	ratio, denom float64
}

func newSmithDiv(m complex128) smithDiv {
	d := smithDiv{m: m, reBig: math.Abs(real(m)) >= math.Abs(imag(m))}
	if d.reBig {
		d.ratio = imag(m) / real(m)
		d.denom = real(m) + d.ratio*imag(m)
	} else {
		d.ratio = real(m) / imag(m)
		d.denom = imag(m) + d.ratio*real(m)
	}
	return d
}

// of returns n/m. When both parts come out NaN the runtime corrects the
// result for infinities and zeros, so that case falls back to its
// division.
func (d *smithDiv) of(n complex128) complex128 {
	var e, f float64
	if d.reBig {
		e = (real(n) + imag(n)*d.ratio) / d.denom
		f = (imag(n) - real(n)*d.ratio) / d.denom
	} else {
		e = (real(n)*d.ratio + imag(n)) / d.denom
		f = (imag(n)*d.ratio - real(n)) / d.denom
	}
	if math.IsNaN(e) && math.IsNaN(f) {
		return n / d.m
	}
	return complex(e, f)
}

// Solve solves A·x = b, returning x as a new slice.
func (f *LUComplex) Solve(b []complex128) []complex128 {
	x := make([]complex128, f.n)
	f.SolveInto(x, b)
	return x
}

// SolveInto solves A·x = b into x, which must have length n and must not
// share storage with b.
func (f *LUComplex) SolveInto(x, b []complex128) {
	n := f.n
	for i := 0; i < n; i++ {
		x[i] = b[f.piv[i]]
	}
	for i := 1; i < n; i++ {
		s := x[i]
		row := f.lu[i*n : i*n+n]
		for j := 0; j < i; j++ {
			s -= row[j] * x[j]
		}
		x[i] = s
	}
	for i := n - 1; i >= 0; i-- {
		s := x[i]
		row := f.lu[i*n : i*n+n]
		for j := i + 1; j < n; j++ {
			s -= row[j] * x[j]
		}
		x[i] = s / row[i]
	}
}

// MulVecReal computes y = A·x for a real matrix (used by residual checks
// in tests and the Newton convergence monitor).
func MulVecReal(m *Real, x []float64) []float64 {
	y := make([]float64, m.N)
	for i := 0; i < m.N; i++ {
		row := m.A[i*m.N : i*m.N+m.N]
		var s float64
		for j, a := range row {
			s += a * x[j]
		}
		y[i] = s
	}
	return y
}
