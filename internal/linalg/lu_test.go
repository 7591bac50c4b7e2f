package linalg

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestRealSolveIdentity(t *testing.T) {
	m := NewReal(3)
	for i := 0; i < 3; i++ {
		m.Set(i, i, 1)
	}
	lu, err := FactorReal(m)
	if err != nil {
		t.Fatal(err)
	}
	b := []float64{1, 2, 3}
	x := lu.Solve(b)
	for i := range b {
		if math.Abs(x[i]-b[i]) > 1e-14 {
			t.Fatalf("x[%d] = %g, want %g", i, x[i], b[i])
		}
	}
}

func TestRealSolveKnown(t *testing.T) {
	// [2 1; 1 3]·x = [3; 5] → x = [4/5, 7/5]
	m := NewReal(2)
	m.Set(0, 0, 2)
	m.Set(0, 1, 1)
	m.Set(1, 0, 1)
	m.Set(1, 1, 3)
	lu, err := FactorReal(m)
	if err != nil {
		t.Fatal(err)
	}
	x := lu.Solve([]float64{3, 5})
	if math.Abs(x[0]-0.8) > 1e-12 || math.Abs(x[1]-1.4) > 1e-12 {
		t.Fatalf("got %v, want [0.8 1.4]", x)
	}
}

func TestRealPivoting(t *testing.T) {
	// Zero on the diagonal forces a row swap.
	m := NewReal(2)
	m.Set(0, 0, 0)
	m.Set(0, 1, 1)
	m.Set(1, 0, 1)
	m.Set(1, 1, 0)
	lu, err := FactorReal(m)
	if err != nil {
		t.Fatal(err)
	}
	x := lu.Solve([]float64{7, 9})
	if math.Abs(x[0]-9) > 1e-12 || math.Abs(x[1]-7) > 1e-12 {
		t.Fatalf("got %v, want [9 7]", x)
	}
}

func TestRealSingular(t *testing.T) {
	m := NewReal(2)
	m.Set(0, 0, 1)
	m.Set(0, 1, 2)
	m.Set(1, 0, 2)
	m.Set(1, 1, 4)
	if _, err := FactorReal(m); err == nil {
		t.Fatal("expected singular matrix error")
	}
}

func TestRealResidualProperty(t *testing.T) {
	// Property: for random diagonally dominant systems, A·x ≈ b.
	rng := rand.New(rand.NewSource(42))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 2 + r.Intn(20)
		m := NewReal(n)
		for i := 0; i < n; i++ {
			var rowSum float64
			for j := 0; j < n; j++ {
				if i != j {
					v := r.NormFloat64()
					m.Set(i, j, v)
					rowSum += math.Abs(v)
				}
			}
			m.Set(i, i, rowSum+1+r.Float64())
		}
		b := make([]float64, n)
		for i := range b {
			b[i] = r.NormFloat64()
		}
		lu, err := FactorReal(m)
		if err != nil {
			return false
		}
		x := lu.Solve(b)
		ax := MulVecReal(m, x)
		for i := range b {
			if math.Abs(ax[i]-b[i]) > 1e-9 {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 50, Rand: rng}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestComplexSolveKnown(t *testing.T) {
	// (1+1i)·x = 2 → x = 1−1i
	m := NewComplex(1)
	m.Set(0, 0, complex(1, 1))
	lu, err := FactorComplex(m)
	if err != nil {
		t.Fatal(err)
	}
	x := lu.Solve([]complex128{2})
	if cmplx.Abs(x[0]-complex(1, -1)) > 1e-14 {
		t.Fatalf("got %v, want (1-1i)", x[0])
	}
}

func TestComplexPivotAndResidual(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 30; trial++ {
		n := 2 + rng.Intn(15)
		m := NewComplex(n)
		for i := 0; i < n; i++ {
			var rowSum float64
			for j := 0; j < n; j++ {
				if i != j {
					v := complex(rng.NormFloat64(), rng.NormFloat64())
					m.Set(i, j, v)
					rowSum += cmplx.Abs(v)
				}
			}
			m.Set(i, i, complex(rowSum+1, rng.NormFloat64()))
		}
		b := make([]complex128, n)
		for i := range b {
			b[i] = complex(rng.NormFloat64(), rng.NormFloat64())
		}
		lu, err := FactorComplex(m)
		if err != nil {
			t.Fatal(err)
		}
		x := lu.Solve(b)
		for i := 0; i < n; i++ {
			var s complex128
			for j := 0; j < n; j++ {
				s += m.At(i, j) * x[j]
			}
			if cmplx.Abs(s-b[i]) > 1e-9 {
				t.Fatalf("trial %d: residual row %d = %g", trial, i, cmplx.Abs(s-b[i]))
			}
		}
	}
}

func TestComplexSingular(t *testing.T) {
	m := NewComplex(2)
	m.Set(0, 0, 1+2i)
	m.Set(0, 1, 2+4i)
	m.Set(1, 0, 0.5+1i)
	m.Set(1, 1, 1+2i)
	if _, err := FactorComplex(m); err == nil {
		t.Fatal("expected singular matrix error")
	}
}

func TestCloneIndependent(t *testing.T) {
	m := NewReal(2)
	m.Set(0, 0, 5)
	c := m.Clone()
	c.Set(0, 0, 9)
	if m.At(0, 0) != 5 {
		t.Fatal("Clone aliases original storage")
	}
}

func TestZeroClears(t *testing.T) {
	m := NewReal(3)
	m.Set(1, 2, 4)
	m.Zero()
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			if m.At(i, j) != 0 {
				t.Fatalf("(%d,%d) not cleared", i, j)
			}
		}
	}
}

func TestAddAccumulates(t *testing.T) {
	m := NewReal(2)
	m.Add(0, 1, 2)
	m.Add(0, 1, 3)
	if m.At(0, 1) != 5 {
		t.Fatalf("Add: got %g want 5", m.At(0, 1))
	}
}

// randReal and randComplex draw dense matrices with no diagonal
// dominance, so partial pivoting swaps rows.
func randReal(r *rand.Rand, n int) *Real {
	m := NewReal(n)
	for i := range m.A {
		m.A[i] = r.NormFloat64()
	}
	return m
}

func randComplex(r *rand.Rand, n int) *Complex {
	m := NewComplex(n)
	for i := range m.A {
		m.A[i] = complex(r.NormFloat64(), r.NormFloat64())
	}
	return m
}

// TestReusedLUMatchesFresh pins the workspace contract: one LUReal and
// one LUComplex reused across growing and shrinking sizes, each time
// after a singular matrix, solve bit-for-bit as fresh factorizations do.
func TestReusedLUMatchesFresh(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	var lr LUReal
	var lc LUComplex
	for _, n := range []int{3, 20, 7} {
		mr, mc := randReal(r, n), randComplex(r, n)
		br, bc := make([]float64, n), make([]complex128, n)
		for i := range br {
			br[i] = r.NormFloat64()
			bc[i] = complex(r.NormFloat64(), r.NormFloat64())
		}

		fr, err := FactorReal(mr)
		if err != nil {
			t.Fatal(err)
		}
		if err := lr.Factor(mr); err != nil {
			t.Fatal(err)
		}
		want, got := fr.Solve(br), make([]float64, n)
		lr.SolveInto(got, br)
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("n=%d real x[%d]: reused %x, fresh %x", n, i,
					math.Float64bits(got[i]), math.Float64bits(want[i]))
			}
		}

		fc, err := FactorComplex(mc)
		if err != nil {
			t.Fatal(err)
		}
		if err := lc.Factor(mc); err != nil {
			t.Fatal(err)
		}
		wantC, gotC := fc.Solve(bc), make([]complex128, n)
		lc.SolveInto(gotC, bc)
		for i := range wantC {
			if math.Float64bits(real(gotC[i])) != math.Float64bits(real(wantC[i])) ||
				math.Float64bits(imag(gotC[i])) != math.Float64bits(imag(wantC[i])) {
				t.Fatalf("n=%d complex x[%d]: reused %v, fresh %v", n, i, gotC[i], wantC[i])
			}
		}

		// A repeated row is singular; the failed Factor must leave the
		// receiver reusable for the next size.
		sr, sc := randReal(r, 4), randComplex(r, 4)
		copy(sr.A[4:8], sr.A[0:4])
		copy(sc.A[4:8], sc.A[0:4])
		if err := lr.Factor(sr); err != ErrSingular {
			t.Fatalf("real Factor on a singular matrix: err %v", err)
		}
		if err := lc.Factor(sc); err != ErrSingular {
			t.Fatalf("complex Factor on a singular matrix: err %v", err)
		}
	}
}
