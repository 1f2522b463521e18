package fft

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
	"testing/quick"
)

func randSignal(rng *rand.Rand, n int) []complex128 {
	a := make([]complex128, n)
	for i := range a {
		a[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	return a
}

func maxErr(a, b []complex128) float64 {
	m := 0.0
	for i := range a {
		if e := cmplx.Abs(a[i] - b[i]); e > m {
			m = e
		}
	}
	return m
}

func TestForwardMatchesDirect(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, n := range []int{1, 2, 4, 8, 64, 256} {
		p, err := NewPlan(n)
		if err != nil {
			t.Fatal(err)
		}
		a := randSignal(rng, n)
		want := DFTDirect(a)
		p.Forward(a)
		if e := maxErr(a, want); e > 1e-9*float64(n) {
			t.Errorf("n=%d: err %g", n, e)
		}
	}
}

func TestInverseRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, n := range []int{2, 16, 1024} {
		p, _ := NewPlan(n)
		a := randSignal(rng, n)
		orig := append([]complex128(nil), a...)
		p.Forward(a)
		p.Inverse(a)
		if e := maxErr(a, orig); e > 1e-9*float64(n) {
			t.Errorf("n=%d: round trip err %g", n, e)
		}
	}
}

// TestParseval: energy preserved up to the DFT normalization — a property
// over random signals.
func TestParseval(t *testing.T) {
	p, _ := NewPlan(64)
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := randSignal(rng, 64)
		var et float64
		for _, v := range a {
			et += real(v)*real(v) + imag(v)*imag(v)
		}
		p.Forward(a)
		var ef float64
		for _, v := range a {
			ef += real(v)*real(v) + imag(v)*imag(v)
		}
		return math.Abs(ef-64*et) < 1e-6*ef
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestLinearity(t *testing.T) {
	p, _ := NewPlan(32)
	rng := rand.New(rand.NewSource(7))
	a := randSignal(rng, 32)
	b := randSignal(rng, 32)
	sum := make([]complex128, 32)
	for i := range sum {
		sum[i] = a[i] + 2*b[i]
	}
	p.Forward(a)
	p.Forward(b)
	p.Forward(sum)
	for i := range sum {
		if cmplx.Abs(sum[i]-(a[i]+2*b[i])) > 1e-9 {
			t.Fatalf("linearity violated at %d", i)
		}
	}
}

func TestImpulseIsFlat(t *testing.T) {
	p, _ := NewPlan(16)
	a := make([]complex128, 16)
	a[0] = 1
	p.Forward(a)
	for i, v := range a {
		if cmplx.Abs(v-1) > 1e-12 {
			t.Fatalf("impulse response at %d = %v", i, v)
		}
	}
}

func TestPlanValidation(t *testing.T) {
	for _, n := range []int{0, -4, 3, 12, 100} {
		if _, err := NewPlan(n); err == nil {
			t.Errorf("NewPlan(%d) accepted", n)
		}
	}
	p, _ := NewPlan(8)
	if p.N() != 8 {
		t.Error("N() wrong")
	}
	defer func() {
		if recover() == nil {
			t.Error("wrong-length transform accepted")
		}
	}()
	p.Forward(make([]complex128, 4))
}

func TestTwiddlePeriodicity(t *testing.T) {
	n := 64
	for jk := 0; jk < 3*n; jk++ {
		if cmplx.Abs(Twiddle(n, jk)-Twiddle(n, jk+n)) > 1e-12 {
			t.Fatalf("twiddle not periodic at %d", jk)
		}
	}
	if cmplx.Abs(Twiddle(4, 1)-complex(0, -1)) > 1e-12 {
		t.Errorf("Twiddle(4,1) = %v, want -i", Twiddle(4, 1))
	}
}

func TestFlops(t *testing.T) {
	if Flops(1024) != 5*1024*10 {
		t.Errorf("Flops(1024) = %v", Flops(1024))
	}
}

// TestConvolveMatchesDirect checks the convolution theorem against the
// O(n^2) definition over random signals.
func TestConvolveMatchesDirect(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for _, n := range []int{2, 8, 64} {
		a := randSignal(rng, n)
		b := randSignal(rng, n)
		got, err := Convolve(a, b)
		if err != nil {
			t.Fatal(err)
		}
		want := make([]complex128, n)
		for k := 0; k < n; k++ {
			var s complex128
			for j := 0; j < n; j++ {
				s += a[j] * b[(k-j+n)%n]
			}
			want[k] = s
		}
		if e := maxErr(got, want); e > 1e-9*float64(n) {
			t.Errorf("n=%d: convolution error %g", n, e)
		}
	}
	if _, err := Convolve(make([]complex128, 4), make([]complex128, 8)); err == nil {
		t.Error("length mismatch accepted")
	}
	if _, err := Convolve(make([]complex128, 3), make([]complex128, 3)); err == nil {
		t.Error("non-power-of-two accepted")
	}
}

func TestTwiddleTableMatchesTwiddle(t *testing.T) {
	for _, logN := range []int{0, 1, 2, 5, 10, 19, 20} {
		n := 1 << logN
		tab, err := NewTwiddleTable(n)
		if err != nil {
			t.Fatal(err)
		}
		// Exponents as the six-step twiddle step forms them: products j*p.
		for _, k := range []int{0, 1, n / 2, n - 1, n, 3*n + 7, 12345 * 6789, (n - 1) * (n - 1)} {
			if d := cmplx.Abs(tab.At(k) - Twiddle(n, k)); d > 1e-15 {
				t.Errorf("n=2^%d k=%d: table %v, Twiddle %v (diff %g)", logN, k, tab.At(k), Twiddle(n, k), d)
			}
		}
	}
	if _, err := NewTwiddleTable(12); err == nil {
		t.Error("non-power-of-two length accepted")
	}
}
