package main

import (
	"fmt"
	"os"
	"time"

	"apgas/internal/collectives"
	"apgas/internal/core"
	"apgas/internal/obs"
	"apgas/internal/perfobs"
	"apgas/internal/telemetry"
	"apgas/internal/x10rt"
)

// denseOptions configures the FINISH_DENSE workload (-exp dense).
type denseOptions struct {
	places      int
	tracePrefix string        // with -trace-dist: per-place + merged trace files
	o           *obs.Obs      // process observability (nil = plain metrics)
	burn        int           // spin iterations per phase (0 = off); gives short profiling runs real CPU time
	wire        bool          // attach the wire ledger and assert sum-equality at exit
	wireDump    string        // write the wire observatory dump here ("" = off)
	batch       bool          // run over the batching wire path
	batchDelay  time.Duration // with batch: flush-delay bound
	compressMin int           // with batch: compression threshold (0 = off)
}

// burnSink defeats dead-code elimination of the spin loops.
var burnSink int

// spin burns CPU deterministically for roughly n simple iterations.
func spin(n int) {
	x := 1
	for i := 0; i < n; i++ {
		x = x*31 + i
	}
	burnSink += x
}

// runDense drives a workload under FINISH_DENSE — the paper's general
// cumulative-vector termination detector with dense software routing
// through per-host masters — mixing every traced message kind: remote
// asyncs (all-to-all fan-out), AtDirect round trips, an emulated
// collective round, and the dense ctl snapshot/routing traffic itself.
//
// With a trace prefix (-trace-dist) the run writes one Chrome trace
// per place (<prefix>-pN.json), merges them with HLC skew alignment
// into <prefix>-merged.json — every cross-place message a flow arrow —
// and prints the cross-place critical-path attribution of the merged
// causal graph. `make dtrace` validates the merged file with
// tracecheck.
func runDense(opts denseOptions) error {
	o := opts.o
	if o == nil {
		o = obs.New()
	}
	places := opts.places
	cfg := core.Config{
		Places:        places,
		PlacesPerHost: 2, // two hosts at 4 places, so routing crosses masters
		Obs:           o,
		WireLedger:    opts.wire,
	}
	if opts.batch {
		// `make wire` runs the dense workload over the batching wire
		// path, so the ledger attributes real batch frames (queue wait,
		// per-link flush counts) rather than one frame per message.
		inner, err := x10rt.NewChanTransport(x10rt.ChanOptions{Places: places})
		if err != nil {
			return err
		}
		cfg.Transport = x10rt.NewBatchingTransport(inner, x10rt.BatchOptions{
			MaxDelay:    opts.batchDelay,
			CompressMin: opts.compressMin,
		})
		cfg.OwnTransport = true
	}
	rt, err := core.NewRuntime(cfg)
	if err != nil {
		return err
	}
	defer rt.Close()
	start := time.Now()

	// Serve the cluster view while the run lasts: /telemetry (and
	// apgas-top watching it) needs a collection plane on this runtime.
	plane, err := telemetry.Attach(rt)
	if err != nil {
		return err
	}
	telemetry.SetCurrent(plane)
	defer telemetry.SetCurrent(nil)

	team := collectives.New(rt, core.WorldGroup(rt), collectives.ModeEmulated)
	o.Profiler().SetApp("dense")
	err = rt.Run(func(c *core.Ctx) {
		// CPU-visible work in the root body itself: these samples carry
		// pattern=default kind=main, one of the distinct label tuples the
		// profile-smoke gate asserts on.
		if opts.burn > 0 {
			spin(opts.burn)
		}
		// All-to-all fan-out under one FINISH_DENSE: every place spawns
		// at every other place, and each remote activity spawns a local
		// child, so termination credits flow through the dense routing.
		if err := c.FinishPragma(core.PatternDense, func(fc *core.Ctx) {
			for p := 0; p < places; p++ {
				fc.AtAsync(core.Place(p), func(cp *core.Ctx) {
					me := int(cp.Place())
					for q := 0; q < places; q++ {
						if q == me {
							continue
						}
						cp.AtAsyncSized(core.Place(q), 64, func(cq *core.Ctx) {
							if opts.burn > 0 {
								spin(opts.burn / 4)
							}
							cq.Async(func(*core.Ctx) {})
						})
					}
				})
			}
		}); err != nil {
			panic(err)
		}
		// An SPMD burn phase: every place spins under FINISH_SPMD, so a
		// short profiled run samples a second heavily-exercised finish
		// pattern besides "dense".
		if opts.burn > 0 {
			if err := c.FinishPragma(core.PatternSPMD, func(sc *core.Ctx) {
				for p := 0; p < places; p++ {
					sc.AtAsync(core.Place(p), func(*core.Ctx) { spin(opts.burn) })
				}
			}); err != nil {
				panic(err)
			}
		}
		// One emulated collective round: team traffic rides the
		// one-sided lane and shows up as a team.allreduce span per place.
		g := core.WorldGroup(rt)
		if err := g.Broadcast(c, func(cc *core.Ctx) {
			collectives.AllReduce(team, cc, []int64{int64(cc.Place())},
				func(a, b int64) int64 { return a + b })
		}); err != nil {
			panic(err)
		}
		// An AtDirect round trip under FINISH_HERE: the token travels
		// with the messages, no ctl traffic — the flows are the spawns.
		if err := c.FinishPragma(core.PatternHere, func(hc *core.Ctx) {
			hc.AtDirect(core.Place(places-1), 16, func(cv *core.Ctx) {
				cv.AtDirect(0, 16, func(*core.Ctx) {})
			})
		}); err != nil {
			panic(err)
		}
	})
	if err != nil {
		return err
	}
	fmt.Printf("dense: OK — %d places, FINISH_DENSE all-to-all + collective round + AtDirect round trip\n", places)

	if opts.wire {
		// Drain queued batches and trailing finish cleanup so the
		// ledger, the transport counters, and the dump agree on one
		// quiescent instant.
		if q, ok := rt.Transport().(interface{ Quiesce() }); ok {
			q.Quiesce()
		}
		if err := writeWireDump(rt, time.Since(start), opts.wireDump); err != nil {
			return err
		}
	}

	if opts.tracePrefix == "" {
		return nil
	}
	return writeDistTraces(o.Trace, opts.tracePrefix, places)
}

// writeDistTraces splits the tracer's events into one Chrome trace per
// place (<prefix>-pN.json), merges them with HLC skew alignment into
// <prefix>-merged.json, and prints the cross-place critical-path
// attribution of the merged causal graph. places <= 0 derives the
// place count from the events themselves.
func writeDistTraces(tr *obs.Tracer, prefix string, places int) error {
	if tr == nil {
		return fmt.Errorf("trace-dist: no tracer installed")
	}
	if places <= 0 {
		for _, e := range tr.Events() {
			if e.Pid+1 > places {
				places = e.Pid + 1
			}
		}
	}
	if places <= 0 {
		return fmt.Errorf("trace-dist: trace holds no events")
	}
	paths := make([]string, places)
	for p := 0; p < places; p++ {
		paths[p] = fmt.Sprintf("%s-p%d.json", prefix, p)
		if err := tr.WriteChromePlaceFile(paths[p], p); err != nil {
			return fmt.Errorf("trace-dist: write place %d trace: %w", p, err)
		}
	}
	merged, err := obs.MergeTraceFiles(paths...)
	if err != nil {
		return fmt.Errorf("trace-dist: merge traces: %w", err)
	}
	mergedPath := prefix + "-merged.json"
	if err := merged.WriteChromeFile(mergedPath); err != nil {
		return fmt.Errorf("trace-dist: write merged trace: %w", err)
	}
	fmt.Fprintf(os.Stderr, "distributed trace: %d per-place files + %s (%d events, %d flows)\n",
		places, mergedPath, len(merged.Events), merged.Flows)
	if rep := perfobs.CriticalPath(merged.Events); rep != nil {
		rep.WriteText(os.Stderr)
	}
	return nil
}
