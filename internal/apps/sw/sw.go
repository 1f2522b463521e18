// Package sw implements the Smith-Waterman benchmark of §7: the best
// local alignment of a short DNA sequence against a long one, parallelized
// the way the paper describes — "splitting the long sequence into
// overlapping fragments and computing in parallel the best match of the
// short sequence against each fragment. The best overall match is the best
// of the best matches."
//
// The dynamic program uses linear space (two rows) with linear gap
// penalties; the fragment overlap is sized so that any local alignment —
// whose extent along the target is bounded by the scoring scheme — lies
// entirely within at least one fragment, making the distributed maximum
// exactly equal to the sequential one.
package sw

import (
	"fmt"
	"time"

	"apgas/internal/collectives"
	"apgas/internal/core"
)

// Scoring holds the (linear-gap) scoring scheme.
type Scoring struct {
	Match    int32 // > 0
	Mismatch int32 // < 0
	Gap      int32 // < 0
}

// DefaultScoring returns the scheme used in the benchmarks.
func DefaultScoring() Scoring { return Scoring{Match: 2, Mismatch: -1, Gap: -1} }

// Config describes one run.
type Config struct {
	// QueryLen is the short sequence length (the paper used 4,000).
	QueryLen int
	// TargetPerPlace is the per-place share of the long sequence (the
	// paper used 40,000 per place — weak scaling).
	TargetPerPlace int
	// Iterations repeats the computation (the paper timed 5).
	Iterations int
	// Seed drives the random sequences.
	Seed uint64
	// Scoring is the alignment scheme (zero value selects the default).
	Scoring Scoring
	// Mode selects the collectives implementation.
	Mode collectives.Mode
}

// Result is one run's outcome.
type Result struct {
	Seconds   float64
	BestScore int32
	// Cells is the number of DP cells evaluated per iteration (across
	// all places), the throughput unit (CUPS).
	Cells int64
}

// base returns the i-th base of the reproducible random sequence named by
// (seed, which).
func base(seed uint64, which uint64, i int) byte {
	z := seed ^ which*0xa0761d6478bd642f ^ (uint64(i)+1)*0x9e3779b97f4a7c15
	z ^= z >> 31
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 29
	return "ACGT"[z&3]
}

// maxAlignmentSpan bounds the target-side extent of any positive-scoring
// local alignment: with linear gaps the alignment can contain at most
// QueryLen matches, and every extra target base costs at least |Gap|, so
// spans beyond QueryLen * (1 + Match/|Gap|) are strictly negative.
func maxAlignmentSpan(qlen int, s Scoring) int {
	gap := int(-s.Gap)
	if gap <= 0 {
		gap = 1
	}
	return qlen * (1 + int(s.Match)/gap)
}

// Run executes the benchmark.
func Run(rt *core.Runtime, cfg Config) (Result, error) {
	if cfg.QueryLen <= 0 || cfg.TargetPerPlace <= 0 {
		return Result{}, fmt.Errorf("sw: bad config %+v", cfg)
	}
	if cfg.Iterations <= 0 {
		cfg.Iterations = 1
	}
	if cfg.Scoring == (Scoring{}) {
		cfg.Scoring = DefaultScoring()
	}
	places := rt.NumPlaces()
	targetLen := cfg.TargetPerPlace * places
	overlap := maxAlignmentSpan(cfg.QueryLen, cfg.Scoring)

	query := make([]byte, cfg.QueryLen)
	for i := range query {
		query[i] = base(cfg.Seed, 1, i)
	}

	type local struct {
		fragment []byte
	}
	locals := core.NewPlaceLocal(rt, func(p core.Place) *local {
		// Fragment: [start, end) of the target with overlap carried on
		// the left so boundary-crossing alignments are found.
		start := int(p)*cfg.TargetPerPlace - overlap
		if start < 0 {
			start = 0
		}
		end := (int(p) + 1) * cfg.TargetPerPlace
		if end > targetLen {
			end = targetLen
		}
		frag := make([]byte, end-start)
		for i := range frag {
			frag[i] = base(cfg.Seed, 2, start+i)
		}
		return &local{fragment: frag}
	})
	defer locals.Free()
	team := collectives.New(rt, core.WorldGroup(rt), cfg.Mode)
	defer team.Close()

	var seconds float64
	var best int32
	var cells int64
	rerr := rt.Run(func(ctx *core.Ctx) {
		group := core.WorldGroup(rt)
		if err := group.Broadcast(ctx, func(cc *core.Ctx) { locals.Get(cc) }); err != nil {
			panic(err)
		}
		start := time.Now()
		err := ctx.FinishPragma(core.PatternSPMD, func(cs *core.Ctx) {
			for _, p := range cs.Places() {
				cs.AtAsync(p, func(cc *core.Ctx) {
					me := locals.Get(cc)
					var localBest int32
					for it := 0; it < cfg.Iterations; it++ {
						localBest = Score(query, me.fragment, cfg.Scoring)
					}
					g := collectives.AllReduce(team, cc, []int32{localBest},
						func(a, b int32) int32 {
							if a > b {
								return a
							}
							return b
						})
					if cc.Place() == 0 {
						best = g[0]
					}
				})
			}
		})
		if err != nil {
			panic(err)
		}
		seconds = time.Since(start).Seconds()
	})
	if rerr != nil {
		return Result{}, fmt.Errorf("sw: %w", rerr)
	}
	for p := 0; p < places; p++ {
		cells += int64(len(locals.At(core.Place(p)).fragment)) * int64(cfg.QueryLen)
	}
	return Result{Seconds: seconds, BestScore: best, Cells: cells}, nil
}

// Score computes the best Smith-Waterman local alignment score of query
// against target with linear gap penalties, in O(len(query)) space.
func Score(query, target []byte, s Scoring) int32 {
	m := len(query)
	prev := make([]int32, m+1)
	cur := make([]int32, m+1)
	var best int32
	for j := 1; j <= len(target); j++ {
		tj := target[j-1]
		cur[0] = 0
		for i := 1; i <= m; i++ {
			sub := s.Mismatch
			if query[i-1] == tj {
				sub = s.Match
			}
			v := prev[i-1] + sub
			if up := prev[i] + s.Gap; up > v {
				v = up
			}
			if left := cur[i-1] + s.Gap; left > v {
				v = left
			}
			if v < 0 {
				v = 0
			}
			cur[i] = v
			if v > best {
				best = v
			}
		}
		prev, cur = cur, prev
	}
	return best
}

// SequentialBest scores the query against the full regenerated target on
// one goroutine — the oracle for tests.
func SequentialBest(cfg Config, places int) int32 {
	if cfg.Scoring == (Scoring{}) {
		cfg.Scoring = DefaultScoring()
	}
	query := make([]byte, cfg.QueryLen)
	for i := range query {
		query[i] = base(cfg.Seed, 1, i)
	}
	target := make([]byte, cfg.TargetPerPlace*places)
	for i := range target {
		target[i] = base(cfg.Seed, 2, i)
	}
	return Score(query, target, cfg.Scoring)
}
