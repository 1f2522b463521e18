// Package collectives provides X10-style teams (x10.util.Team, §3.3 of
// "X10 and APGAS at Petascale"): collective operations — barrier,
// broadcast, reduce, all-reduce, all-to-all, all-gather — over a group of
// places.
//
// Like the paper's runtime, a team has two implementations:
//
//   - ModeNative maps operations onto the "hardware" fast path. On this
//     substrate the hardware is the shared memory of the hosting process,
//     so native collectives combine contributions through a shared
//     rendezvous structure, the analogue of the Torrent's hardware
//     collective acceleration.
//   - ModeEmulated is the portable layer built exclusively on the
//     transport's one-sided lane: puts into receive windows the team
//     registers (binomial trees for the rooted collectives and all-reduce,
//     direct exchange for all-to-all). It is what X10RT falls back to on
//     networks without collective hardware. Element types without a
//     little-endian wire form (complex128, structs) travel by reference,
//     so a team over them needs an in-process transport.
//
// All members must call each collective in the same order with compatible
// arguments (the standard SPMD contract); one activity per member place
// participates. Every collective is synchronizing: no member returns
// before every member has entered. In ModeEmulated the slices a collective
// returns alias the team's scratch: treat them as read-only, and use or
// copy them before the member's next collective on the same team.
package collectives

import (
	"context"
	"fmt"
	"reflect"
	"sync"
	"sync/atomic"

	"apgas/internal/core"
	"apgas/internal/obs"
)

// Mode selects the collective implementation.
type Mode int

const (
	// ModeNative uses the shared-memory fast path.
	ModeNative Mode = iota
	// ModeEmulated uses one-sided puts over the transport only.
	ModeEmulated
)

// String names the mode.
func (m Mode) String() string {
	if m == ModeNative {
		return "native"
	}
	return "emulated"
}

// Team is a group of places participating in collective operations.
type Team struct {
	rt      *core.Runtime
	mgr     *manager
	mode    Mode
	shared  *sharedState
	members []core.Place
	rankOf  []int        // by place: 1 + the rank there, 0 for non-members
	in      []*inbox     // by rank
	scratch sync.Map     // reflect.Type of T -> *scratch[T]
	dead    atomic.Int64 // 1 + the first member place to die, 0 while all live
	m       teamMetrics
}

// teamMetrics caches the runtime's observability handles so each
// collective costs one counter increment (and, when tracing, one span)
// per participating member. All handles are nil-safe no-ops when the
// runtime has no observability attached.
type teamMetrics struct {
	tr    *obs.Tracer
	prof  *obs.Profiler
	ops   map[string]*obs.Counter // team.<op> -> per-member call count
	kinds map[string]string       // op -> "collective.<op>" pprof kind label
}

func newTeamMetrics(rt *core.Runtime) teamMetrics {
	tm := teamMetrics{
		tr:    rt.Tracer(),
		prof:  rt.Profiler(),
		ops:   make(map[string]*obs.Counter),
		kinds: make(map[string]string),
	}
	reg := rt.Obs().Registry()
	for _, op := range []string{"barrier", "reduce", "allreduce", "broadcast", "allgather", "alltoall"} {
		tm.ops[op] = reg.Counter("team." + op)
		tm.kinds[op] = "collective." + op
	}
	return tm
}

// profOp runs one collective op body with the pprof kind label switched
// to collective.<op> (place, pattern, and app labels stay inherited
// from the calling activity), so profile samples of combine functions
// and rendezvous waits partition by collective operation. A plain call
// when profiling is off.
func (t *Team) profOp(c *core.Ctx, op string, fn func()) {
	if pr := t.m.prof; pr != nil {
		pr.DoKind(c.ProfileContext(), t.m.kinds[op], func(pc context.Context) {
			old := c.SwapProfileContext(pc)
			defer c.SwapProfileContext(old)
			fn()
		})
		return
	}
	fn()
}

// instrumented runs the calling member's part of collective op under the
// pprof kind label and records it (counter, span) when it returns.
func instrumented[R any](t *Team, c *core.Ctx, op string, body func() R) (out R) {
	defer t.opDone(c, op, t.m.tr.Now())
	t.profOp(c, op, func() { out = body() })
	return out
}

// opDone records one collective call by the calling member: bump the
// team.<op> counter and, when tracing, emit a span from t0 (obtained via
// t.m.tr.Now() at operation entry) to now covering this member's
// participation, including the rendezvous wait.
func (t *Team) opDone(c *core.Ctx, op string, t0 int64) {
	t.m.ops[op].Inc()
	if tr := t.m.tr; tr != nil {
		// The span hangs under the calling activity so collective fan-in
		// time is attributable on the finish tree's critical path.
		tr.CompleteEdge("team."+op, "team", int(c.Place()), tr.NextID(), t0,
			c.TraceSpan(), obs.EdgeChild,
			obs.Arg{Key: "members", Val: int64(t.Size())},
			obs.Arg{Key: "mode", Val: int64(t.mode)})
	}
}

// manager is a runtime's collectives state: the live teams, to be told of
// place deaths, and the window fragments closed teams left for the next.
type manager struct {
	mu    sync.Mutex
	teams map[*Team]struct{}
	pool  map[fragKey][]any // of []T
}

type fragKey struct {
	elem  reflect.Type // of the fragment's elements
	elems int
}

var managers sync.Map // *core.Runtime -> *manager

func managerFor(rt *core.Runtime) *manager {
	if m, ok := managers.Load(rt); ok {
		return m.(*manager)
	}
	m := &manager{teams: make(map[*Team]struct{}), pool: make(map[fragKey][]any)}
	actual, loaded := managers.LoadOrStore(rt, m)
	if !loaded {
		rt.OnClose(func() { managers.Delete(rt) })
		rt.NotifyPlaceDeath(m.placeDied)
	}
	return actual.(*manager)
}

// placeDied wakes the members of every team with a member at p: recv panics.
func (m *manager) placeDied(p core.Place) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for t := range m.teams {
		if t.rankOf[p] == 0 || !t.dead.CompareAndSwap(0, int64(p)+1) {
			continue
		}
		for _, in := range t.in {
			in.mu.Lock()
			in.cond.Signal()
			in.mu.Unlock()
		}
	}
}

// fragment returns a recycled window fragment of elems elements, or a new
// one. Stale contents are harmless: a window only exposes landed ranges.
func fragment[T any](m *manager, elems int) []T {
	key := fragKey{reflect.TypeFor[T](), elems}
	m.mu.Lock()
	defer m.mu.Unlock()
	if free := m.pool[key]; len(free) > 0 {
		m.pool[key] = free[:len(free)-1]
		return free[len(free)-1].([]T)
	}
	return make([]T, elems)
}

func recycle[T any](m *manager, frag []T) {
	key := fragKey{reflect.TypeFor[T](), len(frag)}
	m.mu.Lock()
	m.pool[key] = append(m.pool[key], frag)
	m.mu.Unlock()
}

// New creates a team over the given group. World teams are the common
// case: New(rt, core.WorldGroup(rt), mode).
func New(rt *core.Runtime, group core.PlaceGroup, mode Mode) *Team {
	t := &Team{
		rt:      rt,
		mgr:     managerFor(rt),
		mode:    mode,
		shared:  newSharedState(group.Size()),
		members: group.Places(),
		rankOf:  make([]int, rt.NumPlaces()),
		in:      make([]*inbox, group.Size()),
		m:       newTeamMetrics(rt),
	}
	for r, p := range t.members {
		t.rankOf[p] = r + 1
		t.in[r] = &inbox{}
		t.in[r].cond.L = &t.in[r].mu
	}
	t.mgr.mu.Lock()
	t.mgr.teams[t] = struct{}{}
	t.mgr.mu.Unlock()
	return t
}

// Close unregisters the team's windows and hands their memory to the
// runtime's collectives manager for the next team. Call it once no member
// is inside a collective; the team and the slices its collectives returned
// must not be used afterwards. A team never closed lives with its runtime.
func (t *Team) Close() {
	t.mgr.mu.Lock()
	delete(t.mgr.teams, t)
	t.mgr.mu.Unlock()
	if t.dead.Load() != 0 {
		return // survivors' puts may still be in flight: the windows stay
	}
	t.scratch.Range(func(key, s any) bool {
		s.(interface{ release() }).release()
		t.scratch.Delete(key)
		return true
	})
}

// Size returns the number of members.
func (t *Team) Size() int { return len(t.members) }

// Mode returns the implementation mode.
func (t *Team) Mode() Mode { return t.mode }

// rank returns the caller's member index, panicking for non-members (the
// analogue of calling a Team operation from a place outside the team).
func (t *Team) rank(c *core.Ctx) int {
	r := t.rankOf[c.Place()] - 1
	if r < 0 {
		panic(fmt.Sprintf("collectives: place %d is not a member of the team", c.Place()))
	}
	return r
}

// Barrier blocks until every member has entered it.
func (t *Team) Barrier(c *core.Ctx) {
	defer t.opDone(c, "barrier", t.m.tr.Now())
	AllReduce(t, c, []struct{}{}, func(a, b struct{}) struct{} { return a })
}

// Reduce combines the members' vals element-wise with op and returns the
// result at the root member (the member with rank rootRank); other members
// receive nil. vals must have equal length at every member.
func Reduce[T any](t *Team, c *core.Ctx, rootRank int, vals []T, op func(T, T) T) []T {
	return instrumented(t, c, "reduce", func() []T {
		r := begin[T](t, c)
		var res []T
		if t.mode == ModeNative {
			res = t.shared.rendezvous(c, r.me, r.seq, clone(vals), func(slots []any) any {
				return combineSlots(slots, op)
			}).([]T)
		} else {
			// Fold up the tree rooted at rootRank; the empty fan-out releases
			// the members once the root has heard from all of them.
			res = r.acc(vals)
			r.up(phaseData, rootRank, res, op)
			r.down(phaseDown, rootRank, nil)
		}
		if r.me != rootRank {
			return nil
		}
		return res
	})
}

// AllReduce combines the members' vals element-wise with op; every member
// receives the combined vector.
func AllReduce[T any](t *Team, c *core.Ctx, vals []T, op func(T, T) T) []T {
	return instrumented(t, c, "allreduce", func() []T {
		r := begin[T](t, c)
		if t.mode == ModeNative {
			res := t.shared.rendezvous(c, r.me, r.seq, clone(vals), func(slots []any) any {
				return combineSlots(slots, op)
			})
			return clone(res.([]T))
		}
		// One fold order, at one root: every member returns the same bits.
		acc := r.acc(vals)
		r.up(phaseData, 0, acc, op)
		return r.down(phaseDown, 0, acc)
	})
}

// Broadcast distributes the root member's vals to every member; the
// argument is ignored at non-root members.
func Broadcast[T any](t *Team, c *core.Ctx, rootRank int, vals []T) []T {
	return instrumented(t, c, "broadcast", func() []T {
		r := begin[T](t, c)
		if t.mode == ModeNative {
			var contrib any
			if r.me == rootRank {
				contrib = clone(vals)
			}
			res := t.shared.rendezvous(c, r.me, r.seq, contrib, func(slots []any) any {
				return slots[rootRank]
			})
			return clone(res.([]T))
		}
		// The empty fan-in tells the root every member has entered; the
		// data then flows down the same tree.
		r.up(phaseData, rootRank, nil, nil)
		var data []T
		if r.me == rootRank {
			data = r.acc(vals)
		}
		return r.down(phaseDown, rootRank, data)
	})
}

// AllGather concatenates every member's vals in rank order; every member
// receives the full slice of slices.
func AllGather[T any](t *Team, c *core.Ctx, vals []T) [][]T {
	return instrumented(t, c, "allgather", func() [][]T {
		r := begin[T](t, c)
		out := make([][]T, r.n)
		if t.mode == ModeNative {
			res := t.shared.rendezvous(c, r.me, r.seq, clone(vals), func(slots []any) any {
				return slots
			})
			for i, part := range res.([]any) {
				out[i] = clone(part.([]T))
			}
			return out
		}
		out[r.me] = r.keep(vals)
		for d := 1; d < r.n; d++ {
			r.send((r.me+d)%r.n, out[r.me])
		}
		r.collect(out)
		return out
	})
}

// AllToAll performs the personalized exchange at the heart of the global
// FFT transpose: member i's send[j] becomes member j's result[i]. send
// must have exactly Size() chunks.
func AllToAll[T any](t *Team, c *core.Ctx, send [][]T) [][]T {
	if len(send) != t.Size() {
		panic(fmt.Sprintf("collectives: AllToAll needs %d chunks, got %d", t.Size(), len(send)))
	}
	return instrumented(t, c, "alltoall", func() [][]T {
		r := begin[T](t, c)
		out := make([][]T, r.n)
		if t.mode == ModeNative {
			contrib := make([]any, r.n)
			for j := range send {
				contrib[j] = clone(send[j])
			}
			res := t.shared.rendezvous(c, r.me, r.seq, contrib, func(slots []any) any {
				return slots // transpose happens on read-out
			})
			for i, slot := range res.([]any) {
				out[i] = clone(slot.([]any)[r.me].([]T))
			}
			return out
		}
		// The chunks go out straight from the caller's buffers, which it
		// may reuse on return: hence the trailing barrier.
		for d := 1; d < r.n; d++ {
			dst := (r.me + d) % r.n
			r.send(dst, send[dst])
		}
		out[r.me] = r.keep(send[r.me])
		r.collect(out)
		r.sync()
		return out
	})
}

// IndexedValue pairs a value with the rank that contributed it, for
// min/max-location reductions (HPL's pivot search).
type IndexedValue struct {
	Value float64
	Rank  int
	Index int
}

// AllReduceMaxLoc returns, at every member, the maximum contributed value
// together with its contributor rank and caller-supplied index.
func AllReduceMaxLoc(t *Team, c *core.Ctx, value float64, index int) IndexedValue {
	me := t.rank(c)
	in := []IndexedValue{{Value: value, Rank: me, Index: index}}
	out := AllReduce(t, c, in, func(a, b IndexedValue) IndexedValue {
		if b.Value > a.Value || (b.Value == a.Value && b.Rank < a.Rank) {
			return b
		}
		return a
	})
	return out[0]
}

func clone[T any](v []T) []T {
	out := make([]T, len(v))
	copy(out, v)
	return out
}

// combineSlots element-wise reduces the non-nil member contributions.
func combineSlots[T any](slots []any, op func(T, T) T) []T {
	var acc []T
	for _, s := range slots {
		if s == nil {
			continue
		}
		v := s.([]T)
		if acc == nil {
			acc = clone(v)
			continue
		}
		fold(acc, v, op)
	}
	return acc
}

// elemBytes is the size in memory of n elements of T.
func elemBytes[T any](n int) int {
	return int(reflect.TypeFor[T]().Size()) * n
}

// sharedState is the native-mode rendezvous: per-sequence slots where
// members deposit contributions; the last arriver combines them.
type sharedState struct {
	mu   sync.Mutex
	cond *sync.Cond
	n    int
	ops  map[uint64]*opInstance
}

type opInstance struct {
	arrived int
	read    int
	slots   []any
	done    bool
	result  any
}

func newSharedState(n int) *sharedState {
	s := &sharedState{n: n, ops: make(map[uint64]*opInstance)}
	s.cond = sync.NewCond(&s.mu)
	return s
}

// rendezvous deposits contrib for (member me, collective seq), has the last
// arriver compute combine(slots), and returns the result to every member.
func (s *sharedState) rendezvous(c *core.Ctx, me int, seq uint64, contrib any,
	combine func([]any) any) any {
	var result any
	c.Blocking(func() {
		s.mu.Lock()
		op, ok := s.ops[seq]
		if !ok {
			op = &opInstance{slots: make([]any, s.n)}
			s.ops[seq] = op
		}
		op.slots[me] = contrib
		op.arrived++
		if op.arrived == s.n {
			op.result = combine(op.slots)
			op.done = true
			s.cond.Broadcast()
		}
		for !op.done {
			s.cond.Wait()
		}
		result = op.result
		op.read++
		if op.read == s.n {
			delete(s.ops, seq)
		}
		s.mu.Unlock()
	})
	return result
}
