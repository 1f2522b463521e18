package core

import (
	"sync"
	"sync/atomic"
	"testing"

	"apgas/internal/x10rt"
)

func TestGlobalRefRoundTrip(t *testing.T) {
	rt := newTestRuntime(t, 3)
	err := rt.Run(func(ctx *Ctx) {
		// The §2.2 average-load idiom: a cell at home, updated from
		// every place through its GlobalRef.
		acc := &struct {
			mu  sync.Mutex
			sum float64
		}{}
		ref := NewGlobalRef(ctx, acc)
		home := ctx.Place()
		err := ctx.Finish(func(c *Ctx) {
			for _, p := range c.Places() {
				c.AtAsync(p, func(cc *Ctx) {
					load := float64(cc.Place()) + 1 // stand-in for systemLoad()
					cc.AtAsync(home, func(ch *Ctx) {
						cell := ref.Get(ch)
						ch.Atomic(func() { cell.sum += load })
					})
				})
			}
		})
		if err != nil {
			t.Errorf("finish: %v", err)
		}
		if acc.sum != 6 { // 1+2+3
			t.Errorf("sum = %v, want 6", acc.sum)
		}
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
}

func TestGlobalRefWrongPlacePanics(t *testing.T) {
	rt := newTestRuntime(t, 2)
	err := rt.Run(func(ctx *Ctx) {
		ref := NewGlobalRef(ctx, 42)
		if ref.Home() != 0 {
			t.Errorf("Home = %d, want 0", ref.Home())
		}
		panicked := AtEval(ctx, 1, func(c *Ctx) (p bool) {
			defer func() {
				if recover() != nil {
					p = true
				}
			}()
			ref.Get(c)
			return false
		})
		if !panicked {
			t.Error("Get at wrong place did not panic")
		}
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
}

func TestGlobalRefFree(t *testing.T) {
	rt := newTestRuntime(t, 1)
	err := rt.Run(func(ctx *Ctx) {
		ref := NewGlobalRef(ctx, "x")
		if got := ref.Get(ctx); got != "x" {
			t.Errorf("Get = %q", got)
		}
		ref.Free(ctx)
		defer func() {
			if recover() == nil {
				t.Error("Get after Free did not panic")
			}
		}()
		ref.Get(ctx)
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
}

func TestPlaceLocal(t *testing.T) {
	rt := newTestRuntime(t, 4)
	var inits atomic.Int64
	h := NewPlaceLocal(rt, func(p Place) []int {
		inits.Add(1)
		return []int{int(p) * 10}
	})
	err := rt.Run(func(ctx *Ctx) {
		err := ctx.Finish(func(c *Ctx) {
			for _, p := range c.Places() {
				c.AtAsync(p, func(cc *Ctx) {
					v := h.Get(cc)
					if v[0] != int(cc.Place())*10 {
						t.Errorf("place %d got %v", cc.Place(), v)
					}
					h.Get(cc) // second access: no re-init
				})
			}
		})
		if err != nil {
			t.Errorf("finish: %v", err)
		}
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if inits.Load() != 4 {
		t.Errorf("init ran %d times, want 4", inits.Load())
	}
	// Post-run collection via At.
	for p := 0; p < 4; p++ {
		if v := h.At(Place(p)); v[0] != p*10 {
			t.Errorf("At(%d) = %v", p, v)
		}
	}
	// Free drops the registry entry: the values are unreachable through
	// the runtime and the handle no longer resolves.
	h.Free()
	if n := len(rt.locals.entries); n != 0 {
		t.Errorf("%d place-local entries registered after Free, want 0", n)
	}
	defer func() {
		if recover() == nil {
			t.Error("resolving a freed PlaceLocal did not panic")
		}
	}()
	h.At(0)
}

func TestOnCloseRunsOnce(t *testing.T) {
	rt, err := NewRuntime(Config{Places: 2})
	if err != nil {
		t.Fatal(err)
	}
	var ran atomic.Int64
	rt.OnClose(func() { ran.Add(1) })
	rt.Close()
	rt.Close()
	if ran.Load() != 1 {
		t.Errorf("OnClose hook ran %d times over two Closes, want 1", ran.Load())
	}
}

func TestPlaceGroupBroadcast(t *testing.T) {
	rt := newTestRuntime(t, 16, func(c *Config) { c.BroadcastArity = 2 })
	g := WorldGroup(rt)
	if g.Size() != 16 {
		t.Fatalf("Size = %d", g.Size())
	}
	var visited [16]atomic.Int64
	err := rt.Run(func(ctx *Ctx) {
		if err := g.Broadcast(ctx, func(c *Ctx) {
			visited[c.Place()].Add(1)
		}); err != nil {
			t.Errorf("Broadcast: %v", err)
		}
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	for p := range visited {
		if n := visited[p].Load(); n != 1 {
			t.Errorf("place %d visited %d times, want 1", p, n)
		}
	}
}

func TestPlaceGroupBroadcastSubset(t *testing.T) {
	rt := newTestRuntime(t, 8)
	g, err := NewPlaceGroup([]Place{3, 5, 7})
	if err != nil {
		t.Fatalf("NewPlaceGroup: %v", err)
	}
	var visited [8]atomic.Int64
	rerr := rt.Run(func(ctx *Ctx) {
		// The caller (place 0) is not a member.
		if err := g.Broadcast(ctx, func(c *Ctx) {
			visited[c.Place()].Add(1)
		}); err != nil {
			t.Errorf("Broadcast: %v", err)
		}
	})
	if rerr != nil {
		t.Fatalf("Run: %v", rerr)
	}
	for p := 0; p < 8; p++ {
		want := int64(0)
		if p == 3 || p == 5 || p == 7 {
			want = 1
		}
		if n := visited[p].Load(); n != want {
			t.Errorf("place %d visited %d times, want %d", p, n, want)
		}
	}
}

func TestPlaceGroupValidation(t *testing.T) {
	if _, err := NewPlaceGroup(nil); err == nil {
		t.Error("empty group accepted")
	}
	if _, err := NewPlaceGroup([]Place{1, 2, 1}); err == nil {
		t.Error("duplicate place accepted")
	}
	g, err := NewPlaceGroup([]Place{4, 2})
	if err != nil {
		t.Fatal(err)
	}
	if !g.Contains(4) || g.Contains(3) {
		t.Error("Contains wrong")
	}
	if g.IndexOf(2) != 1 || g.IndexOf(9) != -1 {
		t.Error("IndexOf wrong")
	}
}

func TestSequentialBroadcast(t *testing.T) {
	rt := newTestRuntime(t, 6)
	g := WorldGroup(rt)
	var n atomic.Int64
	err := rt.Run(func(ctx *Ctx) {
		if err := g.SequentialBroadcast(ctx, func(*Ctx) { n.Add(1) }); err != nil {
			t.Errorf("SequentialBroadcast: %v", err)
		}
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if n.Load() != 6 {
		t.Errorf("n = %d, want 6", n.Load())
	}
}

// TestBroadcastTreeShapesControlTraffic checks the §3.2 claim: tree
// broadcast detects completion with messages along tree edges, so the root
// receives O(arity) rather than O(n) completion messages. We verify the
// weaker observable property that both broadcasts visit everyone and the
// tree version does not send more control messages than the sequential one.
func TestBroadcastTreeShapesControlTraffic(t *testing.T) {
	rt := newTestRuntime(t, 32, func(c *Config) { c.BroadcastArity = 2 })
	g := WorldGroup(rt)
	var treeCtl, seqCtl uint64
	err := rt.Run(func(ctx *Ctx) {
		b0 := rt.Transport().Stats()
		if err := g.Broadcast(ctx, func(*Ctx) {}); err != nil {
			t.Errorf("Broadcast: %v", err)
		}
		b1 := rt.Transport().Stats()
		if err := g.SequentialBroadcast(ctx, func(*Ctx) {}); err != nil {
			t.Errorf("SequentialBroadcast: %v", err)
		}
		b2 := rt.Transport().Stats()
		treeCtl = b1.Sub(b0).Messages[x10rt.ControlClass]
		seqCtl = b2.Sub(b1).Messages[x10rt.ControlClass]
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if treeCtl > seqCtl {
		t.Errorf("tree broadcast used %d control messages, sequential %d", treeCtl, seqCtl)
	}
}

func TestClockBarrier(t *testing.T) {
	rt := newTestRuntime(t, 4)
	const phases = 5
	err := rt.Run(func(ctx *Ctx) {
		ck := NewClock(ctx)
		var phase [4]int
		var mu sync.Mutex
		err := ctx.Finish(func(c *Ctx) {
			for p := 0; p < 4; p++ {
				p := p
				c.ClockedAtAsync(ck, Place(p), func(cc *Ctx) {
					for i := 0; i < phases; i++ {
						mu.Lock()
						phase[p] = i
						// No other activity may be more than one phase away.
						for q := 0; q < 4; q++ {
							if d := phase[p] - phase[q]; d < -1 || d > 1 {
								t.Errorf("phase skew: place %d at %d, place %d at %d",
									p, phase[p], q, phase[q])
							}
						}
						mu.Unlock()
						ck.Advance(cc)
					}
				})
			}
			ck.Drop(c) // the main activity resigns so children can advance
		})
		if err != nil {
			t.Errorf("finish: %v", err)
		}
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
}

func TestClockAdvanceReturnsPhase(t *testing.T) {
	rt := newTestRuntime(t, 1)
	err := rt.Run(func(ctx *Ctx) {
		ck := NewClock(ctx)
		for want := uint64(1); want <= 3; want++ {
			if got := ck.Advance(ctx); got != want {
				t.Errorf("Advance = %d, want %d", got, want)
			}
		}
		ck.Drop(ctx)
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
}

func TestAtomicMutualExclusion(t *testing.T) {
	rt := newTestRuntime(t, 1, func(c *Config) { c.WorkersPerPlace = 8 })
	counter := 0
	err := rt.Run(func(ctx *Ctx) {
		err := ctx.Finish(func(c *Ctx) {
			for i := 0; i < 200; i++ {
				c.Async(func(cc *Ctx) {
					cc.Atomic(func() { counter++ })
				})
			}
		})
		if err != nil {
			t.Errorf("finish: %v", err)
		}
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if counter != 200 {
		t.Errorf("counter = %d, want 200 (lost updates)", counter)
	}
}

func TestWhenBlocksUntilCondition(t *testing.T) {
	rt := newTestRuntime(t, 1, func(c *Config) { c.WorkersPerPlace = 2 })
	err := rt.Run(func(ctx *Ctx) {
		ready := false
		var got int
		err := ctx.Finish(func(c *Ctx) {
			c.Async(func(cc *Ctx) {
				cc.When(func() bool { return ready }, func() { got = 99 })
			})
			c.Async(func(cc *Ctx) {
				cc.Atomic(func() { ready = true })
			})
		})
		if err != nil {
			t.Errorf("finish: %v", err)
		}
		if got != 99 {
			t.Errorf("got = %d, want 99", got)
		}
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
}

// TestWhenSingleWorkerNoDeadlock: with one worker per place, a blocked When
// must release its slot so the enabling Atomic can run.
func TestWhenSingleWorkerNoDeadlock(t *testing.T) {
	rt := newTestRuntime(t, 1) // WorkersPerPlace = 1
	err := rt.Run(func(ctx *Ctx) {
		flag := false
		err := ctx.Finish(func(c *Ctx) {
			c.Async(func(cc *Ctx) {
				cc.When(func() bool { return flag }, func() {})
			})
			c.Async(func(cc *Ctx) {
				cc.Atomic(func() { flag = true })
			})
		})
		if err != nil {
			t.Errorf("finish: %v", err)
		}
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := NewRuntime(Config{Places: 0}); err == nil {
		t.Error("Places=0 accepted")
	}
	tr := mustChan(t, 3, 0)
	defer tr.Close()
	if _, err := NewRuntime(Config{Places: 5, Transport: tr}); err == nil {
		t.Error("mismatched transport size accepted")
	}
}

func TestRuntimeAccessors(t *testing.T) {
	rt := newTestRuntime(t, 3)
	if rt.NumPlaces() != 3 {
		t.Errorf("NumPlaces = %d", rt.NumPlaces())
	}
	if rt.Transport() == nil {
		t.Error("nil transport")
	}
	cfg := rt.Config()
	if cfg.WorkersPerPlace != 1 || cfg.BroadcastArity != 8 {
		t.Errorf("defaults not applied: %+v", cfg)
	}
	rt.Close()
	rt.Close() // idempotent
	if err := rt.Run(func(*Ctx) {}); err == nil {
		t.Error("Run after Close succeeded")
	}
}

// TestManyPlacesSPMD is a smoke test at a "scale-ish" place count.
func TestManyPlacesSPMD(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	rt := newTestRuntime(t, 128, func(c *Config) { c.PlacesPerHost = 32 })
	var n atomic.Int64
	err := rt.Run(func(ctx *Ctx) {
		if err := WorldGroup(rt).Broadcast(ctx, func(c *Ctx) { n.Add(1) }); err != nil {
			t.Errorf("Broadcast: %v", err)
		}
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if n.Load() != 128 {
		t.Errorf("n = %d, want 128", n.Load())
	}
}

func TestUncountedAsync(t *testing.T) {
	rt := newTestRuntime(t, 4)
	done := make(chan Place, 2)
	err := rt.Run(func(ctx *Ctx) {
		// Uncounted activities are not awaited by any finish; use an
		// explicit channel to observe them.
		ctx.UncountedAsync(2, func(c *Ctx) { done <- c.Place() })
		ctx.UncountedAsync(ctx.Place(), func(c *Ctx) { done <- c.Place() })
		got := map[Place]bool{}
		// Release the execution slot while waiting: the local uncounted
		// activity needs it.
		ctx.Blocking(func() {
			got[<-done] = true
			got[<-done] = true
		})
		if !got[2] || !got[0] {
			t.Errorf("uncounted ran at %v", got)
		}
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
}

func TestUncountedAsyncPanicContained(t *testing.T) {
	rt := newTestRuntime(t, 2)
	probe := make(chan struct{})
	err := rt.Run(func(ctx *Ctx) {
		ctx.UncountedAsync(1, func(*Ctx) {
			defer close(probe)
			panic("uncounted boom")
		})
		ctx.Blocking(func() { <-probe }) // the panic must not take down the place
		ctx.At(1, func(*Ctx) {})
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
}

func TestUncountedCanOpenFinish(t *testing.T) {
	rt := newTestRuntime(t, 3)
	result := make(chan int64, 1)
	err := rt.Run(func(ctx *Ctx) {
		ctx.UncountedAsync(1, func(c *Ctx) {
			var n atomic.Int64
			if err := c.Finish(func(cc *Ctx) {
				for _, p := range cc.Places() {
					cc.AtAsync(p, func(*Ctx) { n.Add(1) })
				}
			}); err != nil {
				t.Errorf("finish in uncounted: %v", err)
			}
			result <- n.Load()
		})
		var got int64
		ctx.Blocking(func() { got = <-result })
		if got != 3 {
			t.Errorf("nested finish counted %d", got)
		}
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
}
