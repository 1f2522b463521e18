package harness

import (
	"fmt"
	"time"

	"apgas/internal/congruent"
	"apgas/internal/core"
)

// oneSidedPutBytes is the payload size of the one-sided bandwidth
// microbenchmark: 1 MiB, the bulk-transfer shape AsyncCopyPut's
// zero-copy []byte lane exists for.
const oneSidedPutBytes = 1 << 20

// oneSidedPipeline is how many puts ride each measured finish: like any
// RDMA bandwidth test the ops are pipelined, so the per-finish setup
// cost amortizes and the steady-state rate is the lane's, not the
// finish protocol's.
const oneSidedPipeline = 8

// runOneSidedPut drives reps rounds of 1 MiB AsyncCopyPut from place 0
// to every other place, oneSidedPipeline ops deep, each round under its
// own finish (so the measured rate includes the v5 lane's finish-credit
// accounting), and returns the aggregate put bandwidth in bytes per
// second.
func runOneSidedPut(places, reps int) (bytesPerSec float64, err error) {
	rt, err := newRuntime(places)
	if err != nil {
		return 0, err
	}
	defer rt.Close()
	if !rt.OneSidedEnabled() {
		return 0, fmt.Errorf("onesided places=%d: runtime has no one-sided lane", places)
	}
	alloc := congruent.NewAllocator(rt)
	arr, err := congruent.NewArray[byte](alloc, oneSidedPutBytes)
	if err != nil {
		return 0, err
	}
	src := make([]byte, oneSidedPutBytes)
	for i := range src {
		src[i] = byte(i * 131)
	}
	var seconds float64
	rerr := rt.Run(func(ctx *core.Ctx) {
		start := time.Now()
		for rep := 0; rep < reps; rep++ {
			if ferr := ctx.Finish(func(c *core.Ctx) {
				for i := 0; i < oneSidedPipeline; i++ {
					for p := 1; p < places; p++ {
						congruent.AsyncCopyPut(c, src, arr, core.Place(p), 0)
					}
				}
			}); ferr != nil {
				panic(ferr)
			}
		}
		seconds = time.Since(start).Seconds()
		// The landing is part of the contract: spot-check one fragment.
		for p := 1; p < places; p++ {
			frag := arr.Fragment(core.Place(p))
			for _, i := range []int{0, oneSidedPutBytes / 2, oneSidedPutBytes - 1} {
				if frag[i] != src[i] {
					panic(fmt.Sprintf("place %d: frag[%d] = %d, want %d", p, i, frag[i], src[i]))
				}
			}
		}
	})
	if rerr != nil {
		return 0, rerr
	}
	return float64(reps*oneSidedPipeline*(places-1)*oneSidedPutBytes) / seconds, nil
}

// memcpyBandwidth measures this machine's plain copy() bandwidth on the
// same 1 MiB shape, best of reps — the ceiling the one-sided lane is
// gated against.
func memcpyBandwidth(reps int) float64 {
	src := make([]byte, oneSidedPutBytes)
	dst := make([]byte, oneSidedPutBytes)
	for i := range src {
		src[i] = byte(i * 17)
	}
	best := 0.0
	for rep := 0; rep < reps; rep++ {
		const copies = 64
		start := time.Now()
		for c := 0; c < copies; c++ {
			copy(dst, src)
		}
		if r := float64(copies*oneSidedPutBytes) / time.Since(start).Seconds(); r > best {
			best = r
		}
	}
	if dst[0] != src[0] {
		panic("memcpy baseline: copy went nowhere")
	}
	return best
}

// OneSidedSeries sweeps the one-sided put bandwidth over the scale's
// place counts: 1 MiB AsyncCopyPut frames landing directly in the
// target fragment through the v5 lane, MB/s aggregate and per
// destination place. The note carries the machine's memcpy ceiling so
// the table shows how close the lane runs to memory bandwidth
// (TestOneSidedBandwidth gates the 2-place point at ≥50%).
func OneSidedSeries(s Scale) (Series, error) {
	reps := map[Scale]int{Tiny: 4, Small: 8, Medium: 12}[s]
	memcpy := memcpyBandwidth(3) / (1 << 20)
	out := Series{Name: "One-sided 1MiB put", AggregateUnit: "MB/s", PerUnitUnit: "MB/s/place"}
	for _, places := range s.PlaceSweep() {
		if places < 2 {
			continue
		}
		rate, err := runOneSidedPut(places, reps)
		if err != nil {
			return out, err
		}
		mbs := rate / (1 << 20)
		out.Points = append(out.Points, Point{
			Places:    places,
			Aggregate: mbs,
			PerUnit:   mbs / float64(places-1),
			Note:      fmt.Sprintf("%d reps, memcpy ceiling %.0f MB/s", reps, memcpy),
		})
	}
	return out, nil
}
