package collectives

import (
	"fmt"
	"math"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"apgas/internal/chaos"
	"apgas/internal/core"
	"apgas/internal/x10rt"
)

// runGroup launches body at every place of g under a finish.
func runGroup(t *testing.T, rt *core.Runtime, g core.PlaceGroup, body func(*core.Ctx)) {
	t.Helper()
	err := rt.Run(func(ctx *core.Ctx) {
		if err := ctx.Finish(func(c *core.Ctx) {
			for _, p := range g.Places() {
				c.AtAsync(p, body)
			}
		}); err != nil {
			t.Errorf("group finish: %v", err)
		}
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
}

// mix is a splitmix64 step: the deterministic input generator of the
// property tests, a pure function of its arguments.
func mix(vals ...int) uint64 {
	z := uint64(0x9e3779b97f4a7c15)
	for _, v := range vals {
		z += uint64(v)*0xbf58476d1ce4e5b9 + 0x94d049bb133111eb
		z ^= z >> 30
		z *= 0xbf58476d1ce4e5b9
		z ^= z >> 27
	}
	return z
}

// unit maps mix to [1, 2): sums of such values are well-conditioned, so
// "within n ulps of the result" is a meaningful bound.
func unit(vals ...int) float64 { return 1 + float64(mix(vals...)>>11)/float64(1<<53) }

// panel has the shape of HPL's panelMsg: a struct holding slices.
type panel struct {
	ID   int
	Data []float64
}

// teamShapes returns the groups the differential test runs over a 3x3 grid:
// prefixes of every size 1-9 and the HPL-style process rows and columns.
func teamShapes(t *testing.T) []core.PlaceGroup {
	var out []core.PlaceGroup
	add := func(places ...core.Place) {
		g, err := core.NewPlaceGroup(places)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, g)
	}
	for n := 1; n <= 9; n++ {
		var ps []core.Place
		for p := 0; p < n; p++ {
			ps = append(ps, core.Place(p))
		}
		add(ps...)
	}
	for i := 0; i < 3; i++ {
		add(core.Place(3*i), core.Place(3*i+1), core.Place(3*i+2)) // row i
		add(core.Place(i), core.Place(3+i), core.Place(6+i))       // column i
	}
	return out
}

// differ names the two teams a collective is run on; diff compares the results.
type differ struct {
	t        *testing.T
	nat, emu *Team
	me, n    int
}

func diff[R any](d differ, what string, call func(*Team) R, same func(want, got R) bool) R {
	want, got := call(d.nat), call(d.emu)
	if !same(want, got) {
		d.t.Errorf("%s: team of %d, rank %d: emulated %v, native %v", what, d.n, d.me, got, want)
	}
	return got
}

func deepEqual[R any](a, b R) bool { return reflect.DeepEqual(a, b) }

// lens are the vector lengths of the differential test: empty, tiny, either
// side of the smallest slot capacity (1<<minSlotLog elements) and of a
// window's power-of-two growth, and one long odd length.
var lens = []int{0, 1, 5, 1<<minSlotLog - 1, 1 << minSlotLog, 1<<minSlotLog + 1, 1 << 10, 1<<10 + 1, 4099}

// TestEmulatedMatchesNative is the differential property test: over team
// sizes 1-9 and the row and column teams of a 3x3 grid, every collective
// in ModeEmulated returns what ModeNative returns — exactly for integers
// and structs, within n ulps for floating-point sums — and every member of
// an all-reduce returns the same bits.
func TestEmulatedMatchesNative(t *testing.T) {
	rt := newRT(t, 9)
	for _, g := range teamShapes(t) {
		nat, emu := New(rt, g, ModeNative), New(rt, g, ModeEmulated)
		n := g.Size()
		// bits[round][rank] collects every member's all-reduce results.
		var mu sync.Mutex
		bits := map[string][][]uint64{}
		record := func(key string, rank int, v []float64) {
			b := make([]uint64, len(v))
			for i, x := range v {
				b[i] = math.Float64bits(x)
			}
			mu.Lock()
			if bits[key] == nil {
				bits[key] = make([][]uint64, n)
			}
			bits[key][rank] = b
			mu.Unlock()
		}
		runGroup(t, rt, g, func(c *core.Ctx) {
			me := g.IndexOf(c.Place())
			d := differ{t: t, nat: nat, emu: emu, me: me, n: n}
			near := func(want, got []float64) bool {
				if len(want) != len(got) {
					return false
				}
				for i := range want {
					ulp := math.Nextafter(math.Abs(want[i]), math.Inf(1)) - math.Abs(want[i])
					if math.Abs(want[i]-got[i]) > float64(n)*ulp {
						return false
					}
				}
				return true
			}
			for li, l := range lens {
				// float64 sum.
				f := make([]float64, l)
				for i := range f {
					f[i] = unit(me, li, i)
				}
				got := diff(d, fmt.Sprintf("AllReduce[float64] len %d", l), func(tm *Team) []float64 {
					return AllReduce(tm, c, f, func(a, b float64) float64 { return a + b })
				}, near)
				record(fmt.Sprintf("f%d", l), me, got)

				// complex128 sum.
				z := make([]complex128, l/2)
				for i := range z {
					z[i] = complex(unit(me, li, i, 1), unit(me, li, i, 2))
				}
				diff(d, fmt.Sprintf("AllReduce[complex128] len %d", len(z)), func(tm *Team) []complex128 {
					return AllReduce(tm, c, z, func(a, b complex128) complex128 { return a + b })
				}, func(want, got []complex128) bool {
					// Real and imaginary parts interleaved, each held to the bound.
					flat := func(v []complex128) []float64 {
						out := make([]float64, 0, 2*len(v))
						for _, x := range v {
							out = append(out, real(x), imag(x))
						}
						return out
					}
					return near(flat(want), flat(got))
				})

				// Integers are exact whatever the order of the fold.
				w := make([]int64, l)
				for i := range w {
					w[i] = int64(mix(me, li, i) >> 20)
				}
				root := (li + 1) % n
				// The rest runs on short vectors.
				w, f, l := w[:min(l, 300)], f[:min(l, 300)], min(l, 300)
				diff(d, "AllReduce[int64]", func(tm *Team) []int64 {
					return AllReduce(tm, c, w, func(a, b int64) int64 { return a + b })
				}, deepEqual)
				diff(d, "Reduce[int64]", func(tm *Team) []int64 {
					return Reduce(tm, c, root, w, func(a, b int64) int64 { return a + b })
				}, deepEqual)
				diff(d, "Broadcast[float64]", func(tm *Team) []float64 {
					return Broadcast(tm, c, root, f)
				}, deepEqual)
				diff(d, "AllGather[int64]", func(tm *Team) [][]int64 {
					return AllGather(tm, c, w[:min(l, 40+me)])
				}, deepEqual)
				diff(d, "Gather[int64]", func(tm *Team) [][]int64 {
					return Gather(tm, c, root, w[:min(l, 40+me)])
				}, deepEqual)

				// Ragged all-to-all and scatter: every pair its own length,
				// zero-length and nil chunks among them.
				ragged := make([][]int64, n)
				for j := range ragged {
					if k := int(mix(me, j, li) % 7); k > 0 {
						ragged[j] = w[:min(l, (k-1)*(l/5+1))]
					}
				}
				diff(d, "AllToAll[int64]", func(tm *Team) [][]int64 {
					return AllToAll(tm, c, ragged)
				}, func(want, got [][]int64) bool {
					for i := range want {
						if len(want[i]) != len(got[i]) || (len(want[i]) > 0 && !reflect.DeepEqual(want[i], got[i])) {
							return false
						}
					}
					return len(want) == len(got)
				})
				diff(d, "Scatter[int64]", func(tm *Team) []int64 {
					return Scatter(tm, c, root, ragged)
				}, func(want, got []int64) bool {
					return len(want) == len(got) && (len(want) == 0 || reflect.DeepEqual(want, got))
				})
			}

			// Zero-size elements: only lengths and completion matter.
			diff(d, "AllReduce[struct{}]", func(tm *Team) int {
				return len(AllReduce(tm, c, make([]struct{}, 3), func(a, _ struct{}) struct{} { return a }))
			}, deepEqual)
			diff(d, "Broadcast[struct{}]", func(tm *Team) int {
				return len(Broadcast(tm, c, n-1, make([]struct{}, 4)))
			}, deepEqual)
			diff(d, "AllToAll[struct{}]", func(tm *Team) []int {
				send := make([][]struct{}, n)
				for j := range send {
					send[j] = make([]struct{}, me+j)
				}
				var ls []int
				for _, chunk := range AllToAll(tm, c, send) {
					ls = append(ls, len(chunk))
				}
				return ls
			}, deepEqual)

			// A struct holding a slice travels by reference, as in HPL.
			mine := panel{ID: 100 + me, Data: []float64{float64(me), unit(me)}}
			diff(d, "Broadcast[panel]", func(tm *Team) []panel {
				return Broadcast(tm, c, n/2, []panel{mine})
			}, deepEqual)
			diff(d, "AllGather[panel]", func(tm *Team) [][]panel {
				return AllGather(tm, c, []panel{mine, mine})
			}, deepEqual)
			diff(d, "AllReduce[panel]", func(tm *Team) []panel {
				return AllReduce(tm, c, []panel{mine}, func(a, b panel) panel {
					if b.ID > a.ID {
						return b
					}
					return a
				})
			}, deepEqual)
			d.emu.Barrier(c)
			d.nat.Barrier(c)
		})
		for key, ranks := range bits {
			for r := range ranks {
				if !reflect.DeepEqual(ranks[r], ranks[0]) {
					t.Errorf("team of %d, all-reduce %s: rank %d and rank 0 differ in bits", n, key, r)
				}
			}
		}
		nat.Close()
		emu.Close()
	}
}

// gate delays and reorders the one-sided lane, which chaos.Transport
// passes through unfaulted: every put sleeps a seed-determined time on its
// own goroutine before it is sent, a put to or from the held place a much
// longer one. Delivery order is therefore arbitrary, within a link too.
type gate struct {
	*chaos.Transport
	seed     int64
	held     int
	seq      atomic.Int64
	inflight sync.WaitGroup
}

func (g *gate) SendOneSided(src, dst int, op *x10rt.OneSidedOp) error {
	r := mix(int(g.seed), src, dst, int(g.seq.Add(1)))
	delay := time.Duration(r%100) * time.Microsecond
	if src == g.held || dst == g.held {
		delay = time.Duration(r%1500) * time.Microsecond
	}
	g.inflight.Add(1)
	go func() {
		defer g.inflight.Done()
		time.Sleep(delay)
		if err := g.Transport.SendOneSided(src, dst, op); err != nil {
			panic(err)
		}
	}()
	return nil
}

// TestReuseUnderHeldMember is the reuse-safety test: one member is held
// back by the transport while the others run as far ahead as the protocol
// lets them, under delay and reordering of both lanes, for 32 seeds. Every
// result must be exact, and no member may return from collective k before
// every member has entered it — the property the two-buffer reuse rests on.
func TestReuseUnderHeldMember(t *testing.T) {
	const n, rounds = 5, 6
	seeds := 32
	if testing.Short() {
		seeds = 4
	}
	for seed := 1; seed <= seeds; seed++ {
		inner, err := x10rt.NewChanTransport(x10rt.ChanOptions{Places: n})
		if err != nil {
			t.Fatal(err)
		}
		g := &gate{
			Transport: chaos.Wrap(inner, chaos.Options{Seed: int64(seed), DelayProb: 0.2, ReorderProb: 0.2}),
			seed:      int64(seed),
			held:      seed % n,
		}
		rt, err := core.NewRuntime(core.Config{Places: n, Transport: g, OwnTransport: true})
		if err != nil {
			t.Fatal(err)
		}
		team := New(rt, core.WorldGroup(rt), ModeEmulated)
		var entered [n]atomic.Int64
		runSPMD(t, rt, func(c *core.Ctx) {
			me := int(c.Place())
			k := int64(0)
			// step brackets one collective with the entered/left check.
			step := func(what string, call func() bool) {
				k++
				entered[me].Store(k)
				ok := call()
				for r := range entered {
					if e := entered[r].Load(); e < k {
						t.Errorf("seed %d: rank %d left collective %d (%s) before rank %d entered it (at %d)", seed, me, k, what, r, e)
					}
				}
				if !ok {
					t.Errorf("seed %d round %d: rank %d: wrong %s result", seed, k, me, what)
				}
			}
			big := make([]int64, 4099) // grows the tree window mid-run
			for round := 0; round < rounds; round++ {
				root := (round + seed) % n
				step("all-reduce", func() bool {
					got := AllReduce(team, c, []int64{int64(me + round)}, func(a, b int64) int64 { return a + b })
					return got[0] == int64(n*round+n*(n-1)/2)
				})
				// Rooted collectives back to back, the root moving.
				for i := 0; i < 2; i++ {
					root := (root + i) % n
					step("broadcast", func() bool {
						got := Broadcast(team, c, root, []int64{int64(round), int64(root)})
						return len(got) == 2 && got[0] == int64(round) && got[1] == int64(root)
					})
				}
				step("all-to-all", func() bool {
					send := make([][]int64, n)
					for j := range send {
						send[j] = []int64{int64(me*100 + j + round)}
					}
					got := AllToAll(team, c, send)
					for j := range send {
						send[j][0] = -1 // the caller may reuse its buffers at once
					}
					for i := range got {
						if got[i][0] != int64(i*100+me+round) {
							return false
						}
					}
					return true
				})
				step("long all-reduce", func() bool {
					for i := range big {
						big[i] = int64(me + i + round)
					}
					got := AllReduce(team, c, big, func(a, b int64) int64 { return a + b })
					for i := range got {
						if got[i] != int64(n*(i+round)+n*(n-1)/2) {
							return false
						}
					}
					return true
				})
				step("gather", func() bool {
					got := Gather(team, c, root, []int64{int64(me * round)})
					for i := range got {
						if got[i][0] != int64(i*round) {
							return false
						}
					}
					return (me == root) == (got != nil)
				})
				step("reduce", func() bool {
					got := Reduce(team, c, root, []int64{1, int64(me)}, func(a, b int64) int64 { return a + b })
					return me != root || (got[0] == n && got[1] == n*(n-1)/2)
				})
				step("scatter", func() bool {
					var send [][]int64
					if me == root {
						for j := 0; j < n; j++ {
							send = append(send, []int64{int64(j + round)})
						}
					}
					got := Scatter(team, c, root, send)
					return len(got) == 1 && got[0] == int64(me+round)
				})
			}
		})
		g.inflight.Wait()
		team.Close()
		rt.Close()
	}
}

// TestSteadyStateAllocations pins the allocation-free data path: once the
// windows exist, an all-to-all of 1 MiB per member and an 8 KiB all-reduce
// allocate a fixed number of small objects per call (the put descriptors
// and the result's slice headers), nothing that grows with the payload.
func TestSteadyStateAllocations(t *testing.T) {
	const n = 4
	rt := newRT(t, n)
	team := New(rt, core.WorldGroup(rt), ModeEmulated)
	defer team.Close()
	// measure returns the bytes allocated per member and call, process-wide:
	// testing.AllocsPerRun counts objects, and a cloned payload is one.
	measure := func(body func(c *core.Ctx) func()) (bytesPerCall float64) {
		const calls = 20
		var before, after runtime.MemStats
		runSPMD(t, rt, func(c *core.Ctx) {
			call := body(c)
			call() // the first calls create the windows
			call()
			team.Barrier(c)
			if c.Place() == 0 {
				runtime.ReadMemStats(&before)
			}
			team.Barrier(c)
			for i := 0; i < calls; i++ {
				call()
			}
			team.Barrier(c)
			if c.Place() == 0 {
				runtime.ReadMemStats(&after)
			}
		})
		return float64(after.TotalAlloc-before.TotalAlloc) / calls / n
	}
	sum := func(a, b float64) float64 { return a + b }
	small := measure(func(c *core.Ctx) func() {
		buf := make([]float64, 1024)
		return func() { AllReduce(team, c, buf, sum) }
	})
	a2a := measure(func(c *core.Ctx) func() {
		send := make([][]byte, n)
		for j := range send {
			send[j] = make([]byte, (1<<20)/n)
		}
		return func() { AllToAll(team, c, send) }
	})
	// Descriptors and headers come to well under 4 KiB per member and call;
	// one cloned payload would be 8 KiB and 1 MiB respectively.
	const limit = 4 << 10
	if small > limit {
		t.Errorf("AllReduce of 8 KiB allocates %.0f B per member and call, want < %d", small, limit)
	}
	if a2a > limit {
		t.Errorf("AllToAll of 1 MiB allocates %.0f B per member and call, want < %d", a2a, limit)
	}
	t.Logf("per member and call: AllReduce 8 KiB %.0f B, AllToAll 1 MiB %.0f B", small, a2a)
}

// TestMemberDeathWakesWaiters: a member blocked in a collective whose peer
// dies, or entering one after the peer died (its first step may then be a
// put to the dead place), returns by panicking with a PlaceDeadError naming
// the dead place, which the finish reports; nothing hangs.
func TestMemberDeathWakesWaiters(t *testing.T) {
	ops := map[string]func(*Team, *core.Ctx){
		"all-reduce": func(tm *Team, c *core.Ctx) {
			AllReduce(tm, c, []int64{1}, func(a, b int64) int64 { return a + b })
		},
		"all-to-all": func(tm *Team, c *core.Ctx) {
			AllToAll(tm, c, make([][]int64, tm.Size()))
		},
		"broadcast": func(tm *Team, c *core.Ctx) { Broadcast(tm, c, 0, []int64{1}) },
		"barrier":   func(tm *Team, c *core.Ctx) { tm.Barrier(c) },
	}
	for name, op := range ops {
		t.Run(name, func(t *testing.T) { memberDeath(t, op, false) })
		t.Run(name+"/entered after the death", func(t *testing.T) { memberDeath(t, op, true) })
	}
}

// memberDeath runs op at every place but the victim, which is killed before
// the survivors enter (killFirst) or once they are blocked inside.
func memberDeath(t *testing.T, op func(*Team, *core.Ctx), killFirst bool) {
	const n, victim = 4, 2
	tr, err := x10rt.NewChanTransport(x10rt.ChanOptions{Places: n})
	if err != nil {
		t.Fatal(err)
	}
	rt, err := core.NewRuntime(core.Config{Places: n, Transport: tr, OwnTransport: true})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	team := New(rt, core.WorldGroup(rt), ModeEmulated)
	if killFirst {
		if err := tr.KillPlace(victim); err != nil {
			t.Fatal(err)
		}
	}
	var blocked atomic.Int64
	done := make(chan error, 1)
	go func() {
		done <- rt.Run(func(ctx *core.Ctx) {
			_ = ctx.Finish(func(c *core.Ctx) {
				for _, p := range c.Places() {
					if p == victim {
						continue // the victim never enters
					}
					c.AtAsync(p, func(cc *core.Ctx) {
						defer func() {
							// The error itself, not a wrapper: the same value
							// whether the member was sending or waiting.
							got := recover()
							if pde, _ := got.(*x10rt.PlaceDeadError); pde == nil || pde.Place != victim {
								t.Errorf("place %d: recovered %v, want *PlaceDeadError{%d}", cc.Place(), got, victim)
							}
						}()
						blocked.Add(1)
						op(team, cc)
						t.Errorf("place %d: collective returned without the victim", cc.Place())
					})
				}
			})
		})
	}()
	if !killFirst {
		for blocked.Load() < n-1 {
			time.Sleep(time.Millisecond)
		}
		time.Sleep(5 * time.Millisecond) // let the survivors reach their waits
		if err := tr.KillPlace(victim); err != nil {
			t.Fatal(err)
		}
	}
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("collective still blocked 10 s after its peer died")
	}
}
