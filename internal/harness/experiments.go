package harness

import (
	"fmt"
	"math"
	"time"

	"apgas/internal/apps/bc"
	"apgas/internal/apps/fftbench"
	"apgas/internal/apps/hpl"
	"apgas/internal/apps/kmeans"
	"apgas/internal/apps/randomaccess"
	"apgas/internal/apps/stream"
	"apgas/internal/apps/sw"
	"apgas/internal/apps/uts"
	"apgas/internal/collectives"
	"apgas/internal/core"
	"apgas/internal/glb"
	"apgas/internal/kernels/rmat"
	"apgas/internal/kernels/sha1rng"
)

// newRuntime builds a runtime for an experiment run, with the telemetry
// plane attached when observability is on and the transport swapped for
// TransportFactory's (e.g. the batching wire path) when one is set.
func newRuntime(places int) (*core.Runtime, error) {
	cfg := core.Config{Places: places, PlacesPerHost: 8}
	if TransportFactory != nil {
		tr, err := TransportFactory(places)
		if err != nil {
			return nil, err
		}
		cfg.Transport = tr
		cfg.OwnTransport = true
	}
	rt, err := core.NewRuntime(cfg)
	if err != nil {
		return nil, err
	}
	attachTelemetry(rt)
	return rt, nil
}

// Fig1HPL regenerates the Global HPL panel: weak scaling with constant
// per-place memory (N grows with sqrt(places)); the grid alternates
// between n x n and 2n x n for even and odd powers of two, reproducing
// the paper's seesaw.
func Fig1HPL(s Scale) (Series, error) {
	baseN := map[Scale]int{Tiny: 128, Small: 192, Medium: 256}[s]
	nb := map[Scale]int{Tiny: 16, Small: 32, Medium: 32}[s]
	out := Series{Name: "Global HPL", AggregateUnit: "Gflop/s", PerUnitUnit: "Gflop/s/core"}
	for _, places := range s.PlaceSweep() {
		n := baseN * int(math.Round(math.Sqrt(float64(places))))
		n = n / nb * nb
		rt, err := newRuntime(places)
		if err != nil {
			return out, err
		}
		obsNote := metricsNote(rt)
		res, err := hpl.Run(rt, hpl.Config{N: n, NB: nb, Seed: 7})
		rt.Close()
		if err != nil {
			return out, err
		}
		if res.Residual > 16 {
			return out, fmt.Errorf("hpl places=%d: residual %g", places, res.Residual)
		}
		out.Points = append(out.Points, Point{
			Places:    places,
			Aggregate: res.Gflops,
			PerUnit:   res.Gflops / float64(places),
			Note:      fmt.Sprintf("N=%d grid=%dx%d resid=%.2g", n, res.P, res.Q, res.Residual) + obsNote(),
		})
	}
	return out, nil
}

// Fig1FFT regenerates the Global FFT panel: weak scaling with N
// proportional to places.
func Fig1FFT(s Scale) (Series, error) {
	baseLog := map[Scale]int{Tiny: 12, Small: 14, Medium: 16}[s]
	out := Series{Name: "Global FFT", AggregateUnit: "Gflop/s", PerUnitUnit: "Gflop/s/core"}
	for _, places := range s.PlaceSweep() {
		log2n := baseLog + log2(places)
		if places > fftbench.MaxPlaces(log2n) {
			continue
		}
		rt, err := newRuntime(places)
		if err != nil {
			return out, err
		}
		obsNote := metricsNote(rt)
		res, err := fftbench.Run(rt, fftbench.Config{Log2N: log2n, Seed: 5})
		rt.Close()
		if err != nil {
			return out, err
		}
		if res.MaxErr > 1e-6*float64(res.N) {
			return out, fmt.Errorf("fft places=%d: err %g", places, res.MaxErr)
		}
		out.Points = append(out.Points, Point{
			Places:    places,
			Aggregate: res.Gflops,
			PerUnit:   res.Gflops / float64(places),
			Note:      fmt.Sprintf("N=2^%d err=%.2g", log2n, res.MaxErr) + obsNote(),
		})
	}
	return out, nil
}

// Fig1RandomAccess regenerates the Global RandomAccess panel: constant
// per-place table (weak scaling), GUP/s aggregate and per place.
func Fig1RandomAccess(s Scale) (Series, error) {
	logPer := map[Scale]int{Tiny: 12, Small: 14, Medium: 16}[s]
	out := Series{Name: "Global RandomAccess", AggregateUnit: "GUP/s", PerUnitUnit: "GUP/s/place"}
	for _, places := range s.PlaceSweep() {
		if places&(places-1) != 0 {
			continue
		}
		rt, err := newRuntime(places)
		if err != nil {
			return out, err
		}
		obsNote := metricsNote(rt)
		res, err := randomaccess.Run(rt, randomaccess.Config{Log2TablePerPlace: logPer})
		rt.Close()
		if err != nil {
			return out, err
		}
		out.Points = append(out.Points, Point{
			Places:    places,
			Aggregate: res.GUPs,
			PerUnit:   res.GUPs / float64(places),
			Note:      fmt.Sprintf("table=%d words", res.TableWords) + obsNote(),
		})
	}
	return out, nil
}

// Fig1Stream regenerates the EP Stream (Triad) panel: constant per-place
// vectors; aggregate and per-place GB/s.
func Fig1Stream(s Scale) (Series, error) {
	words := map[Scale]int{Tiny: 1 << 16, Small: 1 << 19, Medium: 1 << 21}[s]
	iters := map[Scale]int{Tiny: 4, Small: 8, Medium: 10}[s]
	out := Series{Name: "EP Stream (Triad)", AggregateUnit: "GB/s", PerUnitUnit: "GB/s/place"}
	for _, places := range s.PlaceSweep() {
		rt, err := newRuntime(places)
		if err != nil {
			return out, err
		}
		obsNote := metricsNote(rt)
		res, err := stream.Run(rt, stream.Config{WordsPerPlace: words, Iterations: iters})
		rt.Close()
		if err != nil {
			return out, err
		}
		if res.VerifyErrors != 0 {
			return out, fmt.Errorf("stream places=%d: %d verify errors", places, res.VerifyErrors)
		}
		out.Points = append(out.Points, Point{
			Places:    places,
			Aggregate: res.GBs,
			PerUnit:   res.GBsPerPlace,
			Note:      fmt.Sprintf("%d words/place", words) + obsNote(),
		})
	}
	return out, nil
}

// Fig1UTS regenerates the UTS panel: geometric trees (b0=4, r=19) deepened
// with the place count (weak scaling), traversed by the lifeline balancer
// under a FINISH_DENSE root finish.
func Fig1UTS(s Scale) (Series, error) {
	baseDepth := map[Scale]int{Tiny: 11, Small: 13, Medium: 14}[s]
	out := Series{Name: "UTS", AggregateUnit: "Mnodes/s", PerUnitUnit: "Mnodes/s/place"}
	for _, places := range s.PlaceSweep() {
		depth := baseDepth + int(math.Round(math.Log(float64(places))/math.Log(3)))
		tree := sha1rng.Geometric{B0: 4, Depth: depth, Seed: 19}
		rt, err := newRuntime(places)
		if err != nil {
			return out, err
		}
		obsNote := metricsNote(rt)
		res, err := uts.Run(rt, uts.Config{
			Tree: tree,
			GLB:  glb.Config{DenseFinish: true},
		})
		rt.Close()
		if err != nil {
			return out, err
		}
		want, _ := tree.CountSequential()
		if res.Nodes != want {
			return out, fmt.Errorf("uts places=%d: %d nodes, want %d", places, res.Nodes, want)
		}
		rate := res.NodesPerSecond() / 1e6
		out.Points = append(out.Points, Point{
			Places:    places,
			Aggregate: rate,
			PerUnit:   rate / float64(places),
			Note:      fmt.Sprintf("depth=%d nodes=%d steals=%d", depth, res.Nodes, res.Stats.StealSuccesses) + obsNote(),
		})
	}
	return out, nil
}

// Fig1KMeans regenerates the K-Means panel: constant per-place points,
// time for the fixed iteration count, efficiency vs one place.
func Fig1KMeans(s Scale) (Series, error) {
	pts := map[Scale]int{Tiny: 2000, Small: 8000, Medium: 20000}[s]
	k := map[Scale]int{Tiny: 32, Small: 64, Medium: 128}[s]
	out := Series{Name: "K-Means", AggregateUnit: "seconds", PerUnitUnit: "work/s", TimeBased: true}
	for _, places := range s.PlaceSweep() {
		rt, err := newRuntime(places)
		if err != nil {
			return out, err
		}
		obsNote := metricsNote(rt)
		res, err := kmeans.Run(rt, kmeans.Config{
			PointsPerPlace: pts, Clusters: k, Dim: 12, Iterations: 5, Seed: 3,
		})
		rt.Close()
		if err != nil {
			return out, err
		}
		out.Points = append(out.Points, Point{
			Places:    places,
			Aggregate: res.Seconds,
			PerUnit:   float64(places) / res.Seconds,
			Note:      fmt.Sprintf("distortion=%.4f", res.Distortion) + obsNote(),
		})
	}
	return out, nil
}

// Fig1SW regenerates the Smith-Waterman panel: constant per-place target
// share, time and efficiency vs one place.
func Fig1SW(s Scale) (Series, error) {
	qlen := map[Scale]int{Tiny: 100, Small: 200, Medium: 400}[s]
	target := map[Scale]int{Tiny: 4000, Small: 10000, Medium: 20000}[s]
	out := Series{Name: "Smith-Waterman", AggregateUnit: "seconds", PerUnitUnit: "work/s", TimeBased: true}
	for _, places := range s.PlaceSweep() {
		rt, err := newRuntime(places)
		if err != nil {
			return out, err
		}
		obsNote := metricsNote(rt)
		res, err := sw.Run(rt, sw.Config{
			QueryLen: qlen, TargetPerPlace: target, Iterations: 2, Seed: 13,
		})
		rt.Close()
		if err != nil {
			return out, err
		}
		out.Points = append(out.Points, Point{
			Places:    places,
			Aggregate: res.Seconds,
			PerUnit:   float64(places) / res.Seconds,
			Note:      fmt.Sprintf("best=%d", res.BestScore) + obsNote(),
		})
	}
	return out, nil
}

// Fig1BC regenerates the Betweenness Centrality panel. Like the paper, the
// graph switches to a larger instance partway up the sweep, producing the
// mid-sweep performance drop; the efficiency is "corrected" by comparing
// like with like.
func Fig1BC(s Scale) (Series, error) {
	smallScale := map[Scale]int{Tiny: 8, Small: 10, Medium: 12}[s]
	sources := map[Scale]int{Tiny: 64, Small: 128, Medium: 256}[s]
	out := Series{Name: "Betweenness Centrality", AggregateUnit: "Medges/s", PerUnitUnit: "Medges/s/place"}
	sweep := s.PlaceSweep()
	for i, places := range sweep {
		scale := smallScale
		if i >= len(sweep)/2 {
			scale = smallScale + 2 // the paper's switch to the larger graph
		}
		rt, err := newRuntime(places)
		if err != nil {
			return out, err
		}
		obsNote := metricsNote(rt)
		res, err := bc.Run(rt, bc.Config{
			Graph:    rmat.Params{Scale: scale, EdgeFactor: 8, Seed: 17},
			Sources:  sources,
			PermSeed: 23,
		})
		rt.Close()
		if err != nil {
			return out, err
		}
		rate := res.EdgesPerSecond / 1e6
		out.Points = append(out.Points, Point{
			Places:    places,
			Aggregate: rate,
			PerUnit:   rate / float64(places),
			Note:      fmt.Sprintf("2^%d vertices, %d edges", scale, res.Edges) + obsNote(),
		})
	}
	return out, nil
}

// TeamModeSeries compares native vs emulated collectives on an all-reduce
// microbenchmark — the §3.3 hardware-vs-emulation ablation.
func TeamModeSeries(s Scale, mode collectives.Mode) (Series, error) {
	words := map[Scale]int{Tiny: 1 << 10, Small: 1 << 12, Medium: 1 << 14}[s]
	reps := map[Scale]int{Tiny: 20, Small: 50, Medium: 100}[s]
	out := Series{
		Name:          fmt.Sprintf("Team AllReduce (%s)", mode),
		AggregateUnit: "ops/s", PerUnitUnit: "MB/s/place",
	}
	for _, places := range s.PlaceSweep() {
		rt, err := newRuntime(places)
		if err != nil {
			return out, err
		}
		obsNote := metricsNote(rt)
		res, err := kmeansLikeAllReduce(rt, mode, words, reps)
		rt.Close()
		if err != nil {
			return out, err
		}
		out.Points = append(out.Points, Point{
			Places:    places,
			Aggregate: res.opsPerSec,
			PerUnit:   res.mbPerSecPerPlace,
			Note:      fmt.Sprintf("%d f64/op", words) + obsNote(),
		})
	}
	return out, nil
}

// SPMDBroadcastSeries sweeps the §3.2 spawning-tree broadcast (nested
// FINISH_SPMD scopes, empty bodies) over the place sweep, timing a batch
// of broadcasts per point. The workload is nearly pure finish control —
// spawning-tree fan-out plus SPMD termination detection — which is what
// the critical-path profiler's test (perfobs) uses to pin a nonzero
// finish-control bucket.
func SPMDBroadcastSeries(s Scale) (Series, error) {
	reps := map[Scale]int{Tiny: 30, Small: 60, Medium: 100}[s]
	out := Series{Name: "SPMD Broadcast", AggregateUnit: "bcast/s", PerUnitUnit: "us/bcast"}
	for _, places := range s.PlaceSweep() {
		rt, err := newRuntime(places)
		if err != nil {
			return out, err
		}
		obsNote := metricsNote(rt)
		g := core.WorldGroup(rt)
		start := time.Now()
		err = rt.Run(func(ctx *core.Ctx) {
			for rep := 0; rep < reps; rep++ {
				if berr := g.Broadcast(ctx, func(*core.Ctx) {}); berr != nil {
					panic(berr)
				}
			}
		})
		seconds := time.Since(start).Seconds()
		rt.Close()
		if err != nil {
			return out, err
		}
		out.Points = append(out.Points, Point{
			Places:    places,
			Aggregate: float64(reps) / seconds,
			PerUnit:   seconds / float64(reps) * 1e6,
			Note:      fmt.Sprintf("%d reps", reps) + obsNote(),
		})
	}
	return out, nil
}

func log2(n int) int {
	l := 0
	for 1<<l < n {
		l++
	}
	return l
}
