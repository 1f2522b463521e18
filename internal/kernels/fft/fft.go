// Package fft provides the complex-double FFT kernels behind the Global
// FFT benchmark of §5.1. The paper's X10 code called FFTE for the local
// 1-D transforms; this package is the from-scratch substitute: an
// iterative in-place radix-2 Cooley-Tukey transform with precomputed
// twiddle tables (a Plan), reusable across the many same-length row
// transforms the distributed six-step algorithm performs.
package fft

import (
	"fmt"
	"math"
	"math/bits"
)

// Plan holds precomputed state for transforms of one power-of-two length.
type Plan struct {
	n       int
	logN    int
	rev     []int        // bit-reversal permutation
	twiddle []complex128 // w_n^k for k in [0, n/2)
}

// NewPlan creates a plan for length n (a power of two >= 1).
func NewPlan(n int) (*Plan, error) {
	if n < 1 || n&(n-1) != 0 {
		return nil, fmt.Errorf("fft: length %d is not a power of two", n)
	}
	p := &Plan{n: n, logN: bits.TrailingZeros(uint(n))}
	p.rev = make([]int, n)
	for i := 0; i < n; i++ {
		p.rev[i] = int(bits.Reverse(uint(i)) >> (bits.UintSize - p.logN))
	}
	if n == 1 {
		p.rev[0] = 0
	}
	p.twiddle = make([]complex128, n/2)
	for k := range p.twiddle {
		s, c := math.Sincos(-2 * math.Pi * float64(k) / float64(n))
		p.twiddle[k] = complex(c, s)
	}
	return p, nil
}

// N returns the plan's transform length.
func (p *Plan) N() int { return p.n }

// Forward computes the in-place forward DFT of a (len(a) must equal the
// plan length): A[k] = sum_j a[j] exp(-2*pi*i*j*k/n).
func (p *Plan) Forward(a []complex128) {
	p.transform(a, false)
}

// Inverse computes the in-place inverse DFT, including the 1/n scaling.
func (p *Plan) Inverse(a []complex128) {
	p.transform(a, true)
	inv := complex(1/float64(p.n), 0)
	for i := range a {
		a[i] *= inv
	}
}

func (p *Plan) transform(a []complex128, invert bool) {
	if len(a) != p.n {
		panic(fmt.Sprintf("fft: transform of length %d with plan for %d", len(a), p.n))
	}
	// Bit-reversal permutation.
	for i, r := range p.rev {
		if i < r {
			a[i], a[r] = a[r], a[i]
		}
	}
	// Butterflies.
	for size := 2; size <= p.n; size <<= 1 {
		half := size >> 1
		step := p.n / size
		for start := 0; start < p.n; start += size {
			tw := 0
			for k := start; k < start+half; k++ {
				w := p.twiddle[tw]
				if invert {
					w = complex(real(w), -imag(w))
				}
				t := a[k+half] * w
				a[k+half] = a[k] - t
				a[k] += t
				tw += step
			}
		}
	}
}

// Twiddle returns exp(-2*pi*i*j*k/n) for the global six-step twiddle
// multiplication, computed on demand (j*k can exceed the table).
func Twiddle(n int, jk int) complex128 {
	s, c := math.Sincos(-2 * math.Pi * float64(jk%n) / float64(n))
	return complex(c, s)
}

// DFTDirect computes the DFT by definition in O(n^2); it is the oracle
// used by tests.
func DFTDirect(a []complex128) []complex128 {
	n := len(a)
	out := make([]complex128, n)
	for k := 0; k < n; k++ {
		var sum complex128
		for j := 0; j < n; j++ {
			s, c := math.Sincos(-2 * math.Pi * float64(j*k%n) / float64(n))
			sum += a[j] * complex(c, s)
		}
		out[k] = sum
	}
	return out
}

// Flops returns the nominal operation count of a length-n transform,
// 5 n log2 n, the figure the HPCC benchmark reports rates against.
func Flops(n int) float64 {
	return 5 * float64(n) * math.Log2(float64(n))
}

// Convolve returns the circular convolution of a and b (equal power-of-two
// lengths) computed via the transform: conv = IFFT(FFT(a) .* FFT(b)).
// It demonstrates — and tests — the transform pair beyond the benchmark's
// needs.
func Convolve(a, b []complex128) ([]complex128, error) {
	if len(a) != len(b) {
		return nil, fmt.Errorf("fft: convolve length mismatch %d vs %d", len(a), len(b))
	}
	p, err := NewPlan(len(a))
	if err != nil {
		return nil, err
	}
	fa := append([]complex128(nil), a...)
	fb := append([]complex128(nil), b...)
	p.Forward(fa)
	p.Forward(fb)
	for i := range fa {
		fa[i] *= fb[i]
	}
	p.Inverse(fa)
	return fa, nil
}

// TwiddleTable serves Twiddle(n, k) for a power-of-two n from two tables
// of about sqrt(n) entries each: with k mod n = a·2^h + b,
// w^k = w^(a·2^h) · w^b. One complex multiplication replaces the
// math.Sincos call per factor, at an error of one rounding.
type TwiddleTable struct {
	mask, shift int
	hi, lo      []complex128
}

// NewTwiddleTable builds the table for length n (a power of two >= 1).
func NewTwiddleTable(n int) (*TwiddleTable, error) {
	if n < 1 || n&(n-1) != 0 {
		return nil, fmt.Errorf("fft: length %d is not a power of two", n)
	}
	shift := (bits.TrailingZeros(uint(n)) + 1) / 2
	t := &TwiddleTable{
		mask:  n - 1,
		shift: shift,
		hi:    make([]complex128, n>>shift),
		lo:    make([]complex128, 1<<shift),
	}
	for a := range t.hi {
		t.hi[a] = Twiddle(n, a<<shift)
	}
	for b := range t.lo {
		t.lo[b] = Twiddle(n, b)
	}
	return t, nil
}

// At returns exp(-2*pi*i*k/n) for any k >= 0.
func (t *TwiddleTable) At(k int) complex128 {
	k &= t.mask
	return t.hi[k>>t.shift] * t.lo[k&(len(t.lo)-1)]
}
