package main

import (
	"fmt"
	"runtime"
	"time"

	"apgas/internal/collectives"
	"apgas/internal/congruent"
	"apgas/internal/core"
)

// Layer probes: timed call loops into a layer's exported functions,
// run after the windows of a traced run with observability off, on a
// fresh runtime with the workload's place count. A probe isolates the
// unit cost of one layer operation; the workloads show how much of a
// solve that cost can reach.

const (
	probeReps   = 5 // repetitions of each probe; the median is reported
	probeMiB    = 1 << 20
	probePuts   = 8    // 1 MiB puts or gets pipelined under one finish
	probeXorLen = 1024 // updates per RemoteXorBatch, the HPCC look-ahead limit
)

// runProbes fills m with the probe metrics. span brackets each probe.
func runProbes(places int, m map[string]float64, span func(name string, f func())) error {
	rt, err := newAppRuntime(places, false)
	if err != nil {
		return err
	}
	defer rt.Close()
	next := core.Place(1 % places)
	world := core.WorldGroup(rt)
	team := collectives.New(rt, world, collectives.ModeEmulated)
	alloc := congruent.NewAllocator(rt)
	bytesArr, err := congruent.NewArray[byte](alloc, probeMiB)
	if err != nil {
		return err
	}
	wordArr, err := congruent.NewArray[uint64](alloc, 1<<16)
	if err != nil {
		return err
	}

	// probe reports the median over probeReps of seconds per operation,
	// where one call of body inside the runtime performs ops operations.
	probe := func(name string, ops int, body func(*core.Ctx)) (secPerOp float64) {
		span(name, func() {
			var per []float64
			for rep := 0; rep < probeReps && err == nil; rep++ {
				runtime.GC() // the windows leave a large heap; keep its collection out of the loop
				err = rt.Run(func(ctx *core.Ctx) {
					t0 := time.Now()
					body(ctx)
					per = append(per, time.Since(t0).Seconds()/float64(ops))
				})
			}
			secPerOp = median(per)
		})
		return secPerOp
	}
	// spmd runs body at every place under one FINISH_SPMD, the way the
	// kernels enter their collective phases.
	spmd := func(ctx *core.Ctx, body func(*core.Ctx)) {
		if ferr := ctx.FinishPragma(core.PatternSPMD, func(cs *core.Ctx) {
			for _, p := range cs.Places() {
				cs.AtAsync(p, body)
			}
		}); ferr != nil {
			panic(ferr)
		}
	}
	mustFinish := func(ctx *core.Ctx, body func(*core.Ctx)) {
		if ferr := ctx.Finish(body); ferr != nil {
			panic(ferr)
		}
	}

	const asyncs = 10000
	m["sched.local_async_ns"] = 1e9 * probe("sched.local_async", asyncs, func(ctx *core.Ctx) {
		mustFinish(ctx, func(c *core.Ctx) {
			for i := 0; i < asyncs; i++ {
				c.Async(empty)
			}
		})
	})
	const ats = 1000
	m["core.at_roundtrip_us"] = 1e6 * probe("core.at_roundtrip", ats, func(ctx *core.Ctx) {
		for i := 0; i < ats; i++ {
			ctx.At(next, empty)
		}
	})
	const bcasts = 200
	m["core.bcast_us"] = 1e6 * probe("core.bcast", bcasts, func(ctx *core.Ctx) {
		for i := 0; i < bcasts; i++ {
			if berr := world.Broadcast(ctx, empty); berr != nil {
				panic(berr)
			}
		}
	})

	const barriers = 100
	m["collectives.barrier_us"] = 1e6 * probe("collectives.barrier", barriers, func(ctx *core.Ctx) {
		spmd(ctx, func(c *core.Ctx) {
			for i := 0; i < barriers; i++ {
				team.Barrier(c)
			}
		})
	})
	const allreduces = 50
	m["collectives.allreduce_8k_us"] = 1e6 * probe("collectives.allreduce_8k", allreduces, func(ctx *core.Ctx) {
		spmd(ctx, func(c *core.Ctx) {
			buf := make([]float64, 1024)
			for i := 0; i < allreduces; i++ {
				collectives.AllReduce(team, c, buf, func(a, b float64) float64 { return a + b })
			}
		})
	})
	const teamBcasts = 50
	m["collectives.bcast_64k_us"] = 1e6 * probe("collectives.bcast_64k", teamBcasts, func(ctx *core.Ctx) {
		spmd(ctx, func(c *core.Ctx) {
			buf := make([]float64, 8192)
			for i := 0; i < teamBcasts; i++ {
				collectives.Broadcast(team, c, 0, buf)
			}
		})
	})
	const alltoalls = 10
	m["collectives.alltoall_1m_us"] = 1e6 * probe("collectives.alltoall_1m", alltoalls, func(ctx *core.Ctx) {
		spmd(ctx, func(c *core.Ctx) {
			// Each member sends 1 MiB in all, split evenly over the members.
			send := make([][]byte, places)
			for i := range send {
				send[i] = make([]byte, probeMiB/places)
			}
			for i := 0; i < alltoalls; i++ {
				collectives.AllToAll(team, c, send)
			}
		})
	})

	src := make([]byte, probeMiB)
	for i := range src {
		src[i] = byte(i * 131)
	}
	m["congruent.put_1m_mb_per_s"] = 1 / probe("congruent.put_1m", probePuts, func(ctx *core.Ctx) {
		mustFinish(ctx, func(c *core.Ctx) {
			for i := 0; i < probePuts; i++ {
				congruent.AsyncCopyPut(c, src, bytesArr, next, 0)
			}
		})
	})
	dsts := make([][]byte, probePuts)
	for i := range dsts {
		dsts[i] = make([]byte, probeMiB)
	}
	m["congruent.get_1m_mb_per_s"] = 1 / probe("congruent.get_1m", probePuts, func(ctx *core.Ctx) {
		mustFinish(ctx, func(c *core.Ctx) {
			for i := 0; i < probePuts; i++ {
				congruent.AsyncCopyGet(c, bytesArr, next, 0, dsts[i])
			}
		})
	})
	updates := make([]congruent.XorUpdate, probeXorLen)
	for i := range updates {
		updates[i] = congruent.XorUpdate{Idx: int(splitmix(uint64(i)) % (1 << 16)), Val: uint64(i)}
	}
	const xorBatches = 200
	m["congruent.xor_batch_mupd_per_s"] = 1 / 1e6 / probe("congruent.xor_batch", xorBatches*probeXorLen, func(ctx *core.Ctx) {
		mustFinish(ctx, func(c *core.Ctx) {
			for i := 0; i < xorBatches; i++ {
				congruent.RemoteXorBatch(c, wordArr, next, updates)
			}
		})
	})
	const allocs = 50
	span("congruent.alloc", func() {
		var per []float64
		for rep := 0; rep < probeReps && err == nil; rep++ {
			t0 := time.Now()
			for i := 0; i < allocs && err == nil; i++ {
				_, err = congruent.NewArray[uint64](alloc, 1024)
			}
			per = append(per, time.Since(t0).Seconds()/allocs)
		}
		m["congruent.alloc_us"] = 1e6 * median(per)
	})

	span("x10rt.memcpy", func() {
		dst := make([]byte, probeMiB)
		var per []float64
		for rep := 0; rep < probeReps; rep++ {
			const copies = 64
			t0 := time.Now()
			for i := 0; i < copies; i++ {
				copy(dst, src)
			}
			per = append(per, time.Since(t0).Seconds()/copies)
		}
		m["x10rt.memcpy_mb_per_s"] = 1 / median(per)
	})
	if err != nil {
		return fmt.Errorf("layer probe: %w", err)
	}
	return nil
}
