// Package kmeans implements the K-Means benchmark of §7: Lloyd's
// algorithm over points partitioned across places. Each iteration
// classifies the local points by nearest centroid and accumulates
// per-cluster position sums, then "two All-Reduce collectives compute the
// averages across all places" — one for the coordinate sums, one for the
// cluster counts — yielding the updated centroids for the next iteration.
//
// The paper's configuration: 40,000*p points for p places, 4,096 clusters,
// dimension 12, 5 iterations (scaled down by default here).
package kmeans

import (
	"fmt"
	"math"
	"time"

	"apgas/internal/collectives"
	"apgas/internal/core"
)

// Config describes one K-Means run.
type Config struct {
	// PointsPerPlace is the number of points each place owns (weak
	// scaling: total points grow with places).
	PointsPerPlace int
	// Clusters is k.
	Clusters int
	// Dim is the point dimensionality (the paper used 12).
	Dim int
	// Iterations is the number of Lloyd iterations (the paper timed 5).
	Iterations int
	// Seed drives reproducible point generation.
	Seed uint64
	// Mode selects the collectives implementation.
	Mode collectives.Mode
}

// Result is one run's outcome.
type Result struct {
	Seconds float64
	// Distortion is the final mean squared distance to assigned
	// centroids (for verification: non-increasing across iterations).
	Distortion float64
	// Centroids holds the final centroids, row-major k x dim.
	Centroids []float64
}

// pointCoord generates coordinate d of global point i reproducibly.
func pointCoord(seed uint64, i, d int) float64 {
	z := seed ^ (uint64(i)+1)*0x9e3779b97f4a7c15 ^ (uint64(d)+1)*0x94d049bb133111eb
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	return float64(z>>11) / float64(1<<53)
}

// Run executes the benchmark.
func Run(rt *core.Runtime, cfg Config) (Result, error) {
	if cfg.PointsPerPlace <= 0 || cfg.Clusters <= 0 || cfg.Dim <= 0 || cfg.Iterations <= 0 {
		return Result{}, fmt.Errorf("kmeans: bad config %+v", cfg)
	}
	places := rt.NumPlaces()
	k, dim := cfg.Clusters, cfg.Dim

	type local struct {
		points []float64 // PointsPerPlace x dim
	}
	locals := core.NewPlaceLocal(rt, func(p core.Place) *local {
		pts := make([]float64, cfg.PointsPerPlace*dim)
		base := int(p) * cfg.PointsPerPlace
		for i := 0; i < cfg.PointsPerPlace; i++ {
			for d := 0; d < dim; d++ {
				pts[i*dim+d] = pointCoord(cfg.Seed, base+i, d)
			}
		}
		return &local{points: pts}
	})
	defer locals.Free()
	team := collectives.New(rt, core.WorldGroup(rt), cfg.Mode)
	defer team.Close()

	// Initial centroids: the first k global points (the standard Lloyd
	// arbitrary initialization; deterministic here).
	centroids := make([]float64, k*dim)
	for c := 0; c < k; c++ {
		for d := 0; d < dim; d++ {
			centroids[c*dim+d] = pointCoord(cfg.Seed, c, d)
		}
	}

	var seconds float64
	finalDistortion := math.Inf(1)
	rerr := rt.Run(func(ctx *core.Ctx) {
		group := core.WorldGroup(rt)
		if err := group.Broadcast(ctx, func(cc *core.Ctx) { locals.Get(cc) }); err != nil {
			panic(err)
		}
		start := time.Now()
		var distortion float64
		err := ctx.FinishPragma(core.PatternSPMD, func(cs *core.Ctx) {
			for _, p := range cs.Places() {
				cs.AtAsync(p, func(cc *core.Ctx) {
					cent := append([]float64(nil), centroids...)
					me := locals.Get(cc)
					var localDist float64
					gs := make([]float64, k*dim)
					for it := 0; it < cfg.Iterations; it++ {
						sums := make([]float64, k*dim)
						counts := make([]int64, k)
						localDist = assign(me.points, cent, dim, sums, counts)
						// A collective's result is the team's scratch until
						// the next collective: keep the sums across it.
						copy(gs, collectives.AllReduce(team, cc, sums,
							func(a, b float64) float64 { return a + b }))
						gc := collectives.AllReduce(team, cc, counts,
							func(a, b int64) int64 { return a + b })
						for c := 0; c < k; c++ {
							if gc[c] == 0 {
								continue // empty cluster keeps its centroid
							}
							inv := 1 / float64(gc[c])
							for d := 0; d < dim; d++ {
								cent[c*dim+d] = gs[c*dim+d] * inv
							}
						}
					}
					gd := collectives.AllReduce(team, cc, []float64{localDist},
						func(a, b float64) float64 { return a + b })
					if cc.Place() == 0 {
						distortion = gd[0] / float64(cfg.PointsPerPlace*places)
						copy(centroids, cent)
					}
				})
			}
		})
		if err != nil {
			panic(err)
		}
		seconds = time.Since(start).Seconds()
		finalDistortion = distortion
	})
	if rerr != nil {
		return Result{}, fmt.Errorf("kmeans: %w", rerr)
	}
	return Result{Seconds: seconds, Distortion: finalDistortion, Centroids: centroids}, nil
}

// assign classifies points by nearest centroid, accumulating coordinate
// sums and counts; it returns the summed squared distances.
func assign(points, cent []float64, dim int, sums []float64, counts []int64) float64 {
	k := len(counts)
	n := len(points) / dim
	total := 0.0
	for i := 0; i < n; i++ {
		pt := points[i*dim : (i+1)*dim]
		best, bestD := 0, math.Inf(1)
		for c := 0; c < k; c++ {
			cd := cent[c*dim : (c+1)*dim]
			d := 0.0
			for t := 0; t < dim; t++ {
				diff := pt[t] - cd[t]
				d += diff * diff
				if d >= bestD {
					break
				}
			}
			if d < bestD {
				bestD = d
				best = c
			}
		}
		counts[best]++
		cs := sums[best*dim : (best+1)*dim]
		for t := 0; t < dim; t++ {
			cs[t] += pt[t]
		}
		total += bestD
	}
	return total
}

// Sequential runs the same algorithm on one goroutine over the full point
// set; tests compare it against the distributed run.
func Sequential(cfg Config, places int) ([]float64, float64) {
	k, dim := cfg.Clusters, cfg.Dim
	n := cfg.PointsPerPlace * places
	points := make([]float64, n*dim)
	for i := 0; i < n; i++ {
		for d := 0; d < dim; d++ {
			points[i*dim+d] = pointCoord(cfg.Seed, i, d)
		}
	}
	cent := make([]float64, k*dim)
	for c := 0; c < k; c++ {
		for d := 0; d < dim; d++ {
			cent[c*dim+d] = pointCoord(cfg.Seed, c, d)
		}
	}
	var dist float64
	for it := 0; it < cfg.Iterations; it++ {
		sums := make([]float64, k*dim)
		counts := make([]int64, k)
		dist = assign(points, cent, dim, sums, counts)
		for c := 0; c < k; c++ {
			if counts[c] == 0 {
				continue
			}
			inv := 1 / float64(counts[c])
			for d := 0; d < dim; d++ {
				cent[c*dim+d] = sums[c*dim+d] * inv
			}
		}
	}
	return cent, dist / float64(n)
}
