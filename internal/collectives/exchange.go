package collectives

import (
	"errors"
	"fmt"
	"math/bits"
	"reflect"
	"sync"
	"sync/atomic"

	"apgas/internal/congruent"
	"apgas/internal/core"
	"apgas/internal/x10rt"
)

// This file is the message path of ModeEmulated: every byte a collective
// moves is a one-sided put (x10rt frame v5, zero finish token: team traffic
// stays below finish) into a receive window the team registered in the
// runtime's arena table, and a member only ever waits for a put to land in
// its own fragment. A window is symmetric — one allocation creates a
// fragment at every member, so a sender computes the remote address — and
// has two halves; collective number seq writes the half of parity seq&1.
// Two halves suffice because every collective is synchronizing: no member
// leaves collective k before every member has entered it, so whoever writes
// for k+2 knows every member has entered k+1, has consumed the puts k
// addressed to it and has given up what k handed it. Likewise a put's source
// may be scratch of parity k: its target consumes it before leaving k, and
// nobody overwrites parity k before k+2.

// Phases keep two message rounds of one collective apart.
const (
	phaseData = iota // payload: the exchange's chunks, a tree's fan-in
	phaseDown        // a tree's fan-out, and the accumulator it starts from
	phaseSync        // trailing barrier
	numPhases
	minSlotLog = 6 // log2 of the smallest slot capacity in elements
)

// inbox is what a member's activity blocks on; mu guards its landed records.
type inbox struct {
	mu   sync.Mutex
	cond sync.Cond
	seq  atomic.Uint64 // collectives this member has entered
}

// window is one symmetric allocation: 2*half elements per member rank.
type window[T any] struct {
	arena uint64
	half  int
	frags [][]T
}

// scratch is a team's receive state for element type T.
type scratch[T any] struct {
	t    *Team
	mu   sync.Mutex // serializes window creation; guards all
	all  []*window[T]
	wins [numPhases][bits.UintSize]atomic.Pointer[window[T]]
	// land[rank][(parity*numPhases+phase)*Size()+src]: src's landed put, nil
	// until it lands and again once consumed.
	land [][][]T
}

func scratchFor[T any](t *Team) *scratch[T] {
	key := reflect.TypeFor[T]()
	if s, ok := t.scratch.Load(key); ok {
		return s.(*scratch[T])
	}
	s := &scratch[T]{t: t, land: make([][][]T, t.Size())}
	for r := range s.land {
		s.land[r] = make([][]T, 2*numPhases*t.Size())
	}
	actual, _ := t.scratch.LoadOrStore(key, s)
	return actual.(*scratch[T])
}

// window returns the window of phase whose halves hold at least elems
// elements, creating it at every member on first use. The sender picks the
// window from the length of its own put, so no size is agreed beforehand;
// the receiver learns where a put landed from the landing.
func (s *scratch[T]) window(phase, elems int) *window[T] {
	class := bits.Len(uint(elems - 1))
	slot := &s.wins[phase][class]
	if w := slot.Load(); w != nil {
		return w
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if w := slot.Load(); w != nil {
		return w
	}
	t, n := s.t, s.t.Size()
	at := t.rt.Arenas()
	w := &window[T]{arena: at.Reserve(), half: 1 << class, frags: make([][]T, n)}
	for r := range w.frags {
		frag := fragment[T](t.mgr, 2*w.half)
		w.frags[r] = frag
		in, land := t.in[r], s.land[r]
		a := congruent.ArenaFor(frag)
		a.Landed = func(src, off, elems int) {
			key := (off>>class*numPhases+phase)*n + t.rankOf[src] - 1
			in.mu.Lock()
			land[key] = frag[off : off+elems : off+elems]
			in.cond.Signal()
			in.mu.Unlock()
		}
		at.Register(int(t.members[r]), w.arena, a)
	}
	s.all = append(s.all, w)
	slot.Store(w)
	return w
}

// release unregisters every window and hands the fragments to the manager.
func (s *scratch[T]) release() {
	for _, w := range s.all {
		for r, frag := range w.frags {
			s.t.rt.Arenas().Remove(int(s.t.members[r]), w.arena)
			recycle(s.t.mgr, frag)
		}
	}
}

// round is one member's handle on one collective over element type T.
type round[T any] struct {
	t      *Team
	s      *scratch[T] // nil in ModeNative
	c      *core.Ctx
	me, n  int
	levels int // of the binomial tree over n members
	seq    uint64
}

// begin enters the calling member into its next collective.
func begin[T any](t *Team, c *core.Ctx) round[T] {
	me := t.rank(c)
	r := round[T]{t: t, c: c, me: me, n: t.Size(), seq: t.in[me].seq.Add(1)}
	r.levels = bits.Len(uint(r.n - 1))
	if t.mode == ModeEmulated {
		r.s = scratchFor[T](t)
	}
	return r
}

// slot lays a half out as slots slots of at least elems elements and returns
// the window and the offset of slot idx in this collective's half. The
// exchange layout has one slot per member, written and owned by that member;
// a tree's fan-in one per level, for the child of that level; its fan-out a
// single slot, holding the member's accumulator until the parent's put lands
// there (the accumulator has reached the parent long before: the root starts
// the fan-out only once it has heard from everyone).
func (r round[T]) slot(phase, slots, idx, elems int) (*window[T], int) {
	c := 1 << max(bits.Len(uint(max(elems, 1)-1)), minSlotLog)
	w := r.s.window(phase, slots*c)
	return w, int(r.seq&1)*w.half + idx*c
}

// put puts vals off elements into member dst's fragment of w. vals must
// stay untouched until the put has landed; see the file comment for why
// scratch of this collective's parity qualifies. Like recv it panics with
// an *x10rt.PlaceDeadError if dst's place is dead.
func (r round[T]) put(w *window[T], off, dst int, vals []T) {
	op := congruent.PutOp(w.arena, off, vals)
	op.Bytes = elemBytes[T](len(vals))
	src, to := int(r.c.Place()), int(r.t.members[dst])
	if err := r.t.rt.Transport().SendOneSided(src, to, op); err != nil {
		var pde *x10rt.PlaceDeadError
		if errors.As(err, &pde) {
			panic(pde)
		}
		panic(fmt.Errorf("collectives: put to place %d: %w", to, err))
	}
}

// own copies vals into slot idx of the caller's own fragment, which no peer
// writes while the caller uses it, and returns the copy: scratch a put may
// use as its source.
func (r round[T]) own(phase, slots, idx int, vals []T) []T {
	w, off := r.slot(phase, slots, idx, len(vals))
	buf := w.frags[r.me][off : off+len(vals) : off+len(vals)]
	copy(buf, vals)
	return buf
}

// recv blocks until member src's put of this collective and phase has
// landed and returns it. It panics with an *x10rt.PlaceDeadError if a
// member's place dies first.
func (r round[T]) recv(phase, src int) (v []T) {
	t, in := r.t, r.t.in[r.me]
	landed := &r.s.land[r.me][(int(r.seq&1)*numPhases+phase)*r.n+src]
	// in.mu is taken inside Blocking: re-acquiring the execution slot can
	// block, and the transport's dispatcher needs in.mu to land.
	r.c.Blocking(func() {
		in.mu.Lock()
		for *landed == nil && t.dead.Load() == 0 {
			in.cond.Wait()
		}
		v, *landed = *landed, nil
		in.mu.Unlock()
	})
	if v == nil {
		panic(&x10rt.PlaceDeadError{Place: int(t.dead.Load() - 1)})
	}
	return v
}

// send, keep and collect are the exchange layout's put, own and receive;
// acc is own for a tree's accumulator.
func (r round[T]) send(dst int, vals []T) {
	w, off := r.slot(phaseData, r.n, r.me, len(vals))
	r.put(w, off, dst, vals)
}

func (r round[T]) keep(vals []T) []T { return r.own(phaseData, r.n, r.me, vals) }
func (r round[T]) acc(vals []T) []T  { return r.own(phaseDown, 1, 0, vals) }

func (r round[T]) collect(out [][]T) {
	for d := 1; d < r.n; d++ {
		src := (r.me + d) % r.n
		out[src] = r.recv(phaseData, src)
	}
}

// up is the fan-in half of a binomial tree rooted at member root: the
// caller folds its children's vectors into acc with op and puts acc to its
// parent. With a nil acc the puts are bare notifications.
func (r round[T]) up(phase, root int, acc []T, op func(T, T) T) {
	v := (r.me - root + r.n) % r.n
	for b := 0; b < r.levels; b++ {
		if v>>b&1 != 0 {
			w, off := r.slot(phase, r.levels, b, len(acc))
			r.put(w, off, (v-1<<b+root)%r.n, acc)
			return
		}
		if v+1<<b < r.n {
			fold(acc, r.recv(phase, (v+1<<b+root)%r.n), op)
		}
	}
}

// down is the fan-out half of the same tree: data (the root's accumulator,
// or nil for bare notifications) reaches every member, which returns it.
func (r round[T]) down(phase, root int, data []T) []T {
	v := (r.me - root + r.n) % r.n
	b := r.levels // the bit at which v joined the tree
	if v != 0 {
		b = bits.TrailingZeros(uint(v))
		data = r.recv(phase, (v-1<<b+root)%r.n)
	}
	w, off := r.slot(phase, 1, 0, len(data))
	for b--; b >= 0; b-- {
		if v+1<<b < r.n {
			r.put(w, off, (v+1<<b+root)%r.n, data)
		}
	}
	return data
}

// sync is a barrier: the end of collectives whose payload round would let a
// member leave before all have entered or while its own buffer is still read.
func (r round[T]) sync() {
	r.up(phaseSync, 0, nil, nil)
	r.down(phaseSync, 0, nil)
}

func fold[T any](acc, part []T, op func(T, T) T) {
	if len(part) != len(acc) {
		panic(fmt.Sprintf("collectives: mismatched reduce lengths %d vs %d", len(part), len(acc)))
	}
	for i := range acc {
		acc[i] = op(acc[i], part[i])
	}
}
