package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"time"

	"apgas/internal/core"
)

// The finish workload: empty bodies under every finish pattern, so the
// whole solve is termination detection, scheduling and chan sends.
//
// One solve runs finishReps repetitions of each (shape, pattern) pair
// below plus finishReps WorldGroup broadcasts. The shapes are those of
// harness.FinishAblation — spmd, round, dense — plus a place-local one
// so FINISH_LOCAL is exercised too. Every FinishPragma call is timed on
// its own; the per-pattern quantiles are the core.finish.* layer
// metrics.

const (
	finishPlaces = 8
	finishReps   = 200
)

type finishShape uint8

const (
	shapeSPMD  finishShape = iota // one remote activity per place
	shapeRound                    // a request and, where the pattern allows, its response
	shapeDense                    // every place spawns at every place
	shapeLocal                    // eight activities that never leave the place
)

// finishCases lists each shape under each pattern that may govern it.
var finishCases = []struct {
	shape   finishShape
	pattern core.Pattern
}{
	{shapeSPMD, core.PatternDefault},
	{shapeSPMD, core.PatternSPMD},
	{shapeRound, core.PatternDefault},
	{shapeRound, core.PatternAsync},
	{shapeRound, core.PatternHere},
	{shapeDense, core.PatternDefault},
	{shapeDense, core.PatternDense},
	{shapeLocal, core.PatternDefault},
	{shapeLocal, core.PatternLocal},
}

// finishWorkPerSolve is the work of one solve: finishes plus broadcasts.
const finishWorkPerSolve = finishReps * (9 + 1)

// finishActivities is how many activities one repetition of a shape
// spawns under its finish, given whether the round trip responds.
func finishActivities(s finishShape, p core.Pattern) uint64 {
	switch s {
	case shapeSPMD, shapeLocal:
		return finishPlaces
	case shapeRound:
		if p == core.PatternAsync {
			return 1
		}
		return 2
	default:
		return finishPlaces + finishPlaces*finishPlaces
	}
}

// broadcastActivities is the number of FINISH_SPMD activities one
// 8-place broadcast spawns with the default arity of 8: the root runs
// the body itself and ships one activity to each other place.
const broadcastActivities = finishPlaces - 1

type finishInstance struct {
	rtInstance
	// order is the seeded order in which places are spawned to, and
	// targets the seeded remote place of each round trip.
	order   []core.Place
	targets []core.Place
	// want is the reference: activities spawned per pattern per solve.
	want [len(finishPatternKeys)]uint64
	// last is the per-pattern (spawned, completed) delta of the last solve.
	last [len(finishPatternKeys)][2]uint64
	// timers collects the duration of every FinishPragma call since the
	// last takeTimers, by pattern, in nanoseconds.
	timers [len(finishPatternKeys)][]float64
}

func setupFinish(seed uint64, traced bool) (instance, error) {
	rt, err := newAppRuntime(finishPlaces, traced)
	if err != nil {
		return nil, err
	}
	in := &finishInstance{rtInstance: rtInstance{rt}}
	rng := rand.New(rand.NewSource(int64(seed)))
	for _, p := range rng.Perm(finishPlaces) {
		in.order = append(in.order, core.Place(p))
	}
	for i := 0; i < finishReps; i++ {
		in.targets = append(in.targets, core.Place(1+rng.Intn(finishPlaces-1)))
	}
	for _, c := range finishCases {
		in.want[c.pattern] += finishReps * finishActivities(c.shape, c.pattern)
	}
	in.want[core.PatternSPMD] += finishReps * broadcastActivities
	return in, nil
}

func empty(*core.Ctx) {}

// body returns the finish body of one repetition of a shape.
func (in *finishInstance) body(s finishShape, p core.Pattern, rep int) func(*core.Ctx) {
	switch s {
	case shapeSPMD:
		return func(c *core.Ctx) {
			for _, q := range in.order {
				c.AtAsync(q, empty)
			}
		}
	case shapeRound:
		target := in.targets[rep]
		return func(c *core.Ctx) {
			home := c.Place()
			c.AtAsync(target, func(cr *core.Ctx) {
				if p != core.PatternAsync {
					cr.AtAsync(home, empty)
				}
			})
		}
	case shapeDense:
		return func(c *core.Ctx) {
			for _, q := range in.order {
				c.AtAsync(q, func(cq *core.Ctx) {
					for _, r := range in.order {
						cq.AtAsync(r, empty)
					}
				})
			}
		}
	default:
		return func(c *core.Ctx) {
			for i := 0; i < finishPlaces; i++ {
				c.Async(empty)
			}
		}
	}
}

func (in *finishInstance) run() (timed time.Duration, err error) {
	start := time.Now()
	before := in.rt.ActivityCounts()
	world := core.WorldGroup(in.rt)
	err = in.rt.Run(func(ctx *core.Ctx) {
		for _, c := range finishCases {
			for rep := 0; rep < finishReps; rep++ {
				body := in.body(c.shape, c.pattern, rep)
				t0 := time.Now()
				if err := ctx.FinishPragma(c.pattern, body); err != nil {
					panic(err)
				}
				in.timers[c.pattern] = append(in.timers[c.pattern], float64(time.Since(t0)))
			}
		}
		for rep := 0; rep < finishReps; rep++ {
			if err := world.Broadcast(ctx, empty); err != nil {
				panic(err)
			}
		}
	})
	timed = time.Since(start)
	// core books an activity as completed just after it reports its
	// termination to the finish, so Run can return one atomic add ahead
	// of the last activity's goroutine (seen about once in 6000 solves).
	// Give the counters a moment to settle before judging them.
	for settle := time.Now(); ; {
		balanced := true
		for i, a := range in.rt.ActivityCounts() {
			in.last[i] = [2]uint64{a.Spawned - before[i].Spawned, a.Completed - before[i].Completed}
			balanced = balanced && a.Balanced()
		}
		if balanced || time.Since(settle) > 100*time.Millisecond {
			return timed, err
		}
		runtime.Gosched()
	}
}

// verify checks activity-count conservation: under every pattern the
// solve spawned exactly the activities its shapes call for and every
// one of them completed.
func (in *finishInstance) verify() (float64, error) {
	for i, key := range finishPatternKeys {
		spawned, completed := in.last[i][0], in.last[i][1]
		if spawned != in.want[i] || completed != spawned {
			return 0, fmt.Errorf("finish: pattern %s spawned %d and completed %d activities, want %d of each",
				key, spawned, completed, in.want[i])
		}
	}
	return finishWorkPerSolve, nil
}

// takeTimers returns the per-pattern FinishPragma durations recorded
// since the last call and starts afresh.
func (in *finishInstance) takeTimers() [len(finishPatternKeys)][]float64 {
	t := in.timers
	in.timers = [len(finishPatternKeys)][]float64{}
	return t
}

// baseline runs the same spawn shapes on bare goroutines joined by a
// sync.WaitGroup: what the finishes and broadcasts of one solve cost
// with no places, no termination protocol and no transport.
func (in *finishInstance) baseline() float64 {
	start := time.Now()
	var wg sync.WaitGroup
	spawn := func(n int, then func()) {
		wg.Add(n)
		for i := 0; i < n; i++ {
			go func() {
				defer wg.Done()
				if then != nil {
					then()
				}
			}()
		}
	}
	for _, c := range finishCases {
		for rep := 0; rep < finishReps; rep++ {
			switch c.shape {
			case shapeSPMD, shapeLocal:
				spawn(finishPlaces, nil)
			case shapeRound:
				if c.pattern == core.PatternAsync {
					spawn(1, nil)
				} else {
					spawn(1, func() { spawn(1, nil) })
				}
			case shapeDense:
				spawn(finishPlaces, func() { spawn(finishPlaces, nil) })
			}
			wg.Wait()
		}
	}
	for rep := 0; rep < finishReps; rep++ {
		spawn(finishPlaces, nil)
		wg.Wait()
	}
	return finishWorkPerSolve / time.Since(start).Seconds()
}
