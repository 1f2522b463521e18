// Package fftbench implements the Global FFT benchmark of §5.1: a 1-D
// discrete Fourier transform of double-precision complex values evenly
// distributed across the system, computed with the transpose-based
// six-step algorithm exactly as the paper describes — "global transpose,
// per-row FFTs, global transpose, multiplication with twiddle factors,
// per-row FFTs, and a global transpose", where each global transposition
// is "local data shuffling, followed by an All-To-All collective, then
// another round of local data shuffling".
package fftbench

import (
	"fmt"
	"time"

	"apgas/internal/collectives"
	"apgas/internal/core"
	"apgas/internal/kernels/fft"
)

// Config describes one Global FFT run.
type Config struct {
	// Log2N is the transform size exponent: N = 1 << Log2N points.
	Log2N int
	// Mode selects the collectives implementation.
	Mode collectives.Mode
	// Seed drives the reproducible input signal.
	Seed uint64
}

// Result is one run's outcome.
type Result struct {
	N       int
	Seconds float64
	Gflops  float64
	// MaxErr is the maximum |X - X_ref| against a sequential transform
	// of the same input (computed outside the timed section).
	MaxErr float64
}

// input generates point i of the reproducible input signal.
func input(seed uint64, i int) complex128 {
	z := seed ^ (uint64(i)+1)*0x9e3779b97f4a7c15
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	re := float64(z>>11)/float64(1<<53) - 0.5
	z *= 0x94d049bb133111eb
	z ^= z >> 31
	im := float64(z>>11)/float64(1<<53) - 0.5
	return complex(re, im)
}

// Run executes the distributed FFT and verifies against a sequential
// transform. The place count must be a power of two dividing sqrt(N)
// rounded down (P <= C and P <= R below).
func Run(rt *core.Runtime, cfg Config) (Result, error) {
	places := rt.NumPlaces()
	if places&(places-1) != 0 {
		return Result{}, fmt.Errorf("fftbench: places=%d must be a power of two", places)
	}
	n := 1 << cfg.Log2N
	// Factor N = R*C with R, C powers of two as square as possible.
	logR := cfg.Log2N / 2
	logC := cfg.Log2N - logR
	r, c := 1<<logR, 1<<logC
	if places > r || places > c {
		return Result{}, fmt.Errorf("fftbench: %d places exceed matrix dims %dx%d", places, r, c)
	}

	team := collectives.New(rt, core.WorldGroup(rt), cfg.Mode)
	defer team.Close()
	// Local storage: each place holds R/P rows of the R x C view, then
	// C/P rows of the transposed C x R view, alternating through phases.
	rowsR := r / places // rows per place in R x C view
	rowsC := c / places // rows per place in C x R view

	// One buffer of N points serves every place as the staging area of its
	// transposes and, once they are done, verify as the reference vector.
	scratch := make([]complex128, n)
	locals := core.NewPlaceLocal(rt, func(p core.Place) *local {
		// Initial distribution: rows [p*rowsR, (p+1)*rowsR) of the R x C
		// matrix A[i][j] = x[i*C + j].
		base := int(p) * rowsR * c
		me := &local{
			data: make([]complex128, rowsR*c),
			pack: scratch[base : base+rowsR*c],
			send: make([][]complex128, places),
		}
		for t := range me.data {
			me.data[t] = input(cfg.Seed, base+t)
		}
		return me
	})
	defer locals.Free()
	twiddle, err := fft.NewTwiddleTable(n)
	if err != nil {
		return Result{}, fmt.Errorf("fftbench: %w", err)
	}

	var seconds float64
	err = rt.Run(func(ctx *core.Ctx) {
		world := core.WorldGroup(rt)
		if err := world.Broadcast(ctx, func(cc *core.Ctx) { locals.Get(cc) }); err != nil {
			panic(err)
		}
		planR, err := fft.NewPlan(r)
		if err != nil {
			panic(err)
		}
		planC, err := fft.NewPlan(c)
		if err != nil {
			panic(err)
		}
		start := time.Now()
		ferr := ctx.FinishPragma(core.PatternSPMD, func(cs *core.Ctx) {
			for _, p := range cs.Places() {
				cs.AtAsync(p, func(cc *core.Ctx) {
					me := locals.Get(cc)
					// Step 1: transpose R x C -> C x R.
					me.transpose(cc, team, rowsR, c)
					// Step 2: length-R FFT on each local row.
					for row := 0; row < rowsC; row++ {
						planR.Forward(me.data[row*r : (row+1)*r])
					}
					// Step 3: twiddle B[j][p] *= w_N^(j*p).
					jBase := int(cc.Place()) * rowsC
					for row := 0; row < rowsC; row++ {
						j := jBase + row
						line := me.data[row*r : (row+1)*r]
						for pIdx := range line {
							line[pIdx] *= twiddle.At(j * pIdx)
						}
					}
					// Step 4: transpose C x R -> R x C.
					me.transpose(cc, team, rowsC, r)
					// Step 5: length-C FFT on each local row.
					for row := 0; row < rowsR; row++ {
						planC.Forward(me.data[row*c : (row+1)*c])
					}
					// Step 6: transpose R x C -> C x R; the result rows
					// are X[q*R + p] in natural order.
					me.transpose(cc, team, rowsR, c)
				})
			}
		})
		if ferr != nil {
			panic(ferr)
		}
		seconds = time.Since(start).Seconds()
	})
	if err != nil {
		return Result{}, fmt.Errorf("fftbench: %w", err)
	}

	maxErr := verify(cfg, scratch, places, rowsC, r, func(p int) []complex128 {
		return locals.At(core.Place(p)).data
	})
	return Result{
		N:       n,
		Seconds: seconds,
		Gflops:  fft.Flops(n) / seconds / 1e9,
		MaxErr:  maxErr,
	}, nil
}

// local is one place's share of the transform: the current rows and the
// staging buffer the transposes reuse, so the timed section allocates
// nothing.
type local struct {
	data []complex128   // current local rows, row-major
	pack []complex128   // backing of the chunks handed to the all-to-all
	send [][]complex128 // per-destination views of pack
}

// transpose redistributes the row-distributed M x K matrix in me.data (each
// of P places holds myRows = M/P rows of k columns, row-major) into its
// K x M transpose (each place ends with (K/P) x M): local shuffle into
// per-destination blocks, an all-to-all, and a second local shuffle.
func (me *local) transpose(ctx *core.Ctx, team *collectives.Team, myRows, k int) {
	places := len(me.send)
	kLocal := k / places // transposed rows per place
	// Shuffle 1: chunk for destination d = my rows x columns
	// [d*kLocal, (d+1)*kLocal), transposed so it lands row-major.
	for d := range me.send {
		chunk := me.pack[d*kLocal*myRows : (d+1)*kLocal*myRows]
		for col := 0; col < kLocal; col++ {
			gcol := d*kLocal + col
			for row := 0; row < myRows; row++ {
				chunk[col*myRows+row] = me.data[row*k+gcol]
			}
		}
		me.send[d] = chunk
	}
	recv := collectives.AllToAll(team, ctx, me.send)
	// Shuffle 2: received chunk from source s holds my kLocal rows'
	// segment of columns that s owned: rows local, cols [s*myRows, ...).
	// Shuffle 1 moved every value out of data, so the result goes there.
	m := myRows * places // original global rows = transposed row length
	for s, chunk := range recv {
		for col := 0; col < kLocal; col++ {
			copy(me.data[col*m+s*myRows:col*m+(s+1)*myRows], chunk[col*myRows:(col+1)*myRows])
		}
	}
}

// verify compares the distributed result against a sequential transform
// of the regenerated input, computed in ref (N points, overwritten).
func verify(cfg Config, ref []complex128, places, rowsC, r int, rows func(p int) []complex128) float64 {
	for i := range ref {
		ref[i] = input(cfg.Seed, i)
	}
	plan, err := fft.NewPlan(len(ref))
	if err != nil {
		return -1
	}
	plan.Forward(ref)
	maxErr := 0.0
	// The final layout: place p holds rows [p*rowsC, (p+1)*rowsC) of the
	// C x R result, row q of which is X[q*R : q*R+R].
	for p := 0; p < places; p++ {
		got := rows(p)
		for row := 0; row < rowsC; row++ {
			q := p*rowsC + row
			for pi := 0; pi < r; pi++ {
				diff := got[row*r+pi] - ref[q*r+pi]
				if e := abs(diff); e > maxErr {
					maxErr = e
				}
			}
		}
	}
	return maxErr
}

func abs(z complex128) float64 {
	re, im := real(z), imag(z)
	if re < 0 {
		re = -re
	}
	if im < 0 {
		im = -im
	}
	if re > im {
		return re + im/2 // cheap upper-bound norm; fine for tolerances
	}
	return im + re/2
}

// MaxPlaces returns the largest power-of-two place count usable for a
// transform of size 1<<log2n.
func MaxPlaces(log2n int) int {
	logR := log2n / 2
	return 1 << logR
}
