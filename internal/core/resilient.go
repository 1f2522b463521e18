package core

import (
	"errors"
	"sync"
	"sync/atomic"

	"apgas/internal/x10rt"
)

// This file is the resilient-finish layer: what the runtime does when a
// place dies mid-computation. The X10 paper's petascale runs assume a
// fault-free machine; the follow-on resilient X10 work (and ROADMAP item
// 5) makes the finish protocols survive place death instead of wedging
// the global termination wave. The design here:
//
//   - The transport reports death (x10rt.DeathNotifier) and the runtime
//     funnels every report into PlaceDeath, which is idempotent.
//   - Each finish root keeps per-place credit provenance (the counter
//     patterns an outstanding-tokens-per-place map, the vector patterns
//     per-source receive counts), so a death can *forgive* exactly the
//     credit owed by the dead place and re-test termination — no new
//     protocol messages, which keeps per-link send order deterministic
//     under the chaos harness.
//   - Roots homed at the dead place force-fire with ErrPlaceDead so the
//     blocked root activities' goroutines exit (goroutine hygiene; the
//     dead place's results are gone regardless).
//   - Spawns toward a dead place fail fast: the error is surfaced on the
//     governing finish as a *x10rt.PlaceDeadError and the activity is
//     never counted, keeping the survivor-restricted conservation
//     invariant (begun == completed per live place) exact.
//   - Quiescent vector proxies re-send their latest snapshot when they
//     learn of a death, recovering reports that died in the victim's
//     mailbox or dense coalescing buffer.
//
// ErrPlaceDead is x10rt.ErrPlaceDead; errors.Is(err, ErrPlaceDead) holds
// for every error the resilience layer surfaces.

// ErrPlaceDead is the sentinel reported by finishes that lost governed
// activities (or whole sub-trees) to a place death. It aliases
// x10rt.ErrPlaceDead so transport-level and finish-level failures match
// the same errors.Is check.
var ErrPlaceDead = x10rt.ErrPlaceDead

// placeActivityCounter is one place's begun/completed pair: activities
// that started executing at the place and activities that terminated
// there. Unlike the global per-pattern spawned/completed pair (which a
// spawn lost to a dead place unbalances), each *live* place's begun and
// completed match exactly after quiescence — the survivor-restricted
// conservation oracle of the kill sweeps.
type placeActivityCounter struct {
	begun     atomic.Uint64
	completed atomic.Uint64
}

// PlaceActivityCount is the per-place conservation view.
type PlaceActivityCount struct {
	Place Place
	// Begun counts activities that began executing at the place (local
	// spawns plus remote arrivals). Completed counts terminations there.
	Begun     uint64
	Completed uint64
}

// Balanced reports whether every activity begun at the place completed.
func (c PlaceActivityCount) Balanced() bool { return c.Begun == c.Completed }

// PlaceActivityCounts returns the per-place begun/completed counters,
// indexed by place. After a run with place deaths, global per-pattern
// conservation no longer holds (spawns toward the victim are counted but
// never complete); per-live-place conservation still does, and is what
// the chaos kill invariants check.
func (rt *Runtime) PlaceActivityCounts() []PlaceActivityCount {
	out := make([]PlaceActivityCount, len(rt.places))
	for i := range out {
		out[i] = PlaceActivityCount{
			Place:     Place(i),
			Begun:     rt.placeActs[i].begun.Load(),
			Completed: rt.placeActs[i].completed.Load(),
		}
	}
	return out
}

// deathRegistry is the runtime's death bookkeeping: per-place dead flags
// (lock-free to query on hot paths), an any-death fast-path bit, and the
// subscriber list (GLB, telemetry) notified after the finish layer has
// adopted the dead place's obligations.
type deathRegistry struct {
	mu   sync.Mutex
	subs []func(Place)
	any  atomic.Bool
	dead []atomic.Bool
}

// PlaceDead reports whether place p has died.
func (rt *Runtime) PlaceDead(p Place) bool {
	if int(p) < 0 || int(p) >= len(rt.deaths.dead) {
		return false
	}
	return rt.deaths.dead[p].Load()
}

// anyDeath reports whether any place has died; a single atomic load, the
// guard keeping the no-death fast paths unchanged.
func (rt *Runtime) anyDeath() bool { return rt.deaths.any.Load() }

// DeadPlaces returns the dead places in order.
func (rt *Runtime) DeadPlaces() []Place {
	var out []Place
	for i := range rt.deaths.dead {
		if rt.deaths.dead[i].Load() {
			out = append(out, Place(i))
		}
	}
	return out
}

// NotifyPlaceDeath registers fn to be called (on the death-processing
// goroutine) after the runtime has processed a place death — after the
// finish layer has forgiven the dead place's credit, so a subscriber
// that inspects finish state sees the post-adoption view. Extension
// layers (the GLB's lifeline re-homing, telemetry) subscribe here rather
// than to the transport, which reports deaths before adoption.
func (rt *Runtime) NotifyPlaceDeath(fn func(Place)) {
	rt.deaths.mu.Lock()
	rt.deaths.subs = append(rt.deaths.subs, fn)
	rt.deaths.mu.Unlock()
}

// PlaceDeath processes the death of place p: idempotent, callable from
// any goroutine (the transport's DeathNotifier fires it once per
// surviving place; the first call wins). It
//
//  1. force-fires finish roots homed at p with ErrPlaceDead, so their
//     blocked root activities unwind;
//  2. drops proxies homed at p everywhere (their root is gone);
//  3. tells every live root to forgive p's credit provenance and re-test
//     termination;
//  4. re-sends the latest snapshot of every quiescent vector proxy, in
//     case p swallowed one (as dense master or plain destination);
//  5. notifies NotifyPlaceDeath subscribers.
func (rt *Runtime) PlaceDeath(p Place) {
	if int(p) < 0 || int(p) >= len(rt.places) {
		return
	}
	rt.deaths.mu.Lock()
	if rt.deaths.dead[p].Load() {
		rt.deaths.mu.Unlock()
		return
	}
	rt.deaths.dead[p].Store(true)
	rt.deaths.any.Store(true)
	subs := append(rt.deaths.subs[:0:0], rt.deaths.subs...)
	rt.deaths.mu.Unlock()

	if f := rt.fids; f != nil {
		rt.flight.Record(f.placeDeath, f.catCore, 'i', int(p), 0, 0)
	}

	// 1+2 at the dead place itself: abort its roots, drop its proxies.
	deadPl := rt.places[p]
	deadPl.finMu.Lock()
	deadRoots := make([]rootFinish, 0, len(deadPl.roots))
	for _, root := range deadPl.roots {
		deadRoots = append(deadRoots, root)
	}
	deadPl.proxies = make(map[finishID]*vectorProxy)
	deadPl.finMu.Unlock()
	for _, root := range deadRoots {
		root.forceFire(p)
	}

	// 2+3+4 at every live place.
	for _, pl := range rt.places {
		if rt.deaths.dead[pl.id].Load() {
			continue
		}
		pl.finMu.Lock()
		for id := range pl.proxies {
			if id.Home == p {
				delete(pl.proxies, id)
			}
		}
		roots := make([]rootFinish, 0, len(pl.roots))
		for _, root := range pl.roots {
			roots = append(roots, root)
		}
		type resend struct {
			ref  finRef
			snap ctlSnapshot
		}
		var resends []resend
		for _, px := range pl.proxies {
			if px.live == 0 && !rt.deaths.dead[px.ref.ID.Home].Load() {
				resends = append(resends, resend{ref: px.ref, snap: px.snapshot()})
			}
		}
		pl.finMu.Unlock()
		// Roots and sends outside finMu: placeDeath takes the root's own
		// lock and may fire the waiter; sendSnapshot enters the transport.
		for _, root := range roots {
			root.placeDeath(p)
		}
		for _, rs := range resends {
			rt.sendSnapshot(pl.id, rs.ref, rs.snap)
		}
	}

	for _, fn := range subs {
		fn(p)
	}
}

// dispatchFinEvent routes one activity life-cycle event to the live
// root/proxy machinery. It reports false when the event was dropped
// because the governing finish's home (or the raising place itself) is
// dead, or because the root is already gone after a death — the caller
// then skips the spawn the event would have authorized.
func (rt *Runtime) dispatchFinEvent(fin finRef, pl *place, kind finEventKind, other Place, err error, ctx *Ctx) bool {
	if rt.anyDeath() && (rt.PlaceDead(fin.ID.Home) || rt.PlaceDead(pl.id)) {
		return false
	}
	if fin.ID.Home == pl.id {
		pl.finMu.Lock()
		root, ok := pl.roots[fin.ID]
		pl.finMu.Unlock()
		if !ok {
			if rt.anyDeath() {
				// The root force-fired (or fired early on forgiven
				// credit) and was deleted; stragglers from the wind-down
				// are dropped, not a protocol bug.
				return false
			}
			panic(unknownFinishPanic(kind, fin))
		}
		root.event(kind, other, err)
		return true
	}
	switch fin.Pattern {
	case PatternDefault, PatternDense:
		rt.proxyEvent(fin, pl, kind, other, err)
	case PatternAsync, PatternSPMD:
		rt.counterRemoteEvent(fin, pl, kind, other, err)
	case PatternHere:
		rt.hereRemoteEvent(fin, pl, kind, other, err, ctx)
	case PatternLocal:
		panic(localEscapedPanic(fin, pl))
	default:
		panic(badPatternPanic(fin))
	}
	return true
}

// spawnFailed surfaces a spawn that could not reach its destination (the
// place is dead) on the governing finish. counted says whether the spawn
// had already been reported as evRemoteSpawn — the race where the
// destination died between the event and the transport send — in which
// case the provenance must be compensated; otherwise the failure is an
// error-only injection that never perturbs the counts.
func (rt *Runtime) spawnFailed(fin finRef, pl *place, dst Place, err error, counted bool) {
	if counted {
		// Global conservation: the spawn was counted but the activity
		// will never run; count it completed so the per-pattern totals
		// stay balanced for everything except the dead place itself.
		rt.acts[fin.Pattern].completed.Add(1)
	}
	if rt.PlaceDead(fin.ID.Home) || rt.PlaceDead(pl.id) {
		return // the error has nowhere live to go
	}
	if fin.ID.Home == pl.id {
		pl.finMu.Lock()
		root, ok := pl.roots[fin.ID]
		pl.finMu.Unlock()
		if !ok {
			return
		}
		if counted {
			root.compensateSpawn(dst, err)
		} else {
			root.addError(err)
		}
		return
	}
	switch fin.Pattern {
	case PatternDefault, PatternDense:
		pl.finMu.Lock()
		if px, ok := pl.proxies[fin.ID]; ok {
			if counted && px.sent[dst] > 0 {
				px.sent[dst]--
			}
			px.errs = append(px.errs, err)
		}
		pl.finMu.Unlock()
	default:
		// Counter patterns away from home: a token-neutral error report.
		// If the spawn was counted the home holds one token for dst that
		// no completion will ever release; forgiveness at the home (the
		// outstanding map) already returned it when dst died.
		rt.sendDone(pl.id, fin, 0, err)
	}
}

// trySend is the send funnel for messages that need compensation on
// failure (activity spawns): a dead-place failure is returned, a send
// after Close is dropped like send's, anything else still panics as a
// transport bug.
func (rt *Runtime) trySend(src, dst Place, id x10rt.HandlerID, payload any, bytes int, class x10rt.Class) error {
	err := rt.tr.Send(int(src), int(dst), id, payload, bytes, class)
	if err != nil && rt.droppedAfterClose(err) {
		return nil
	}
	if err != nil && !errors.Is(err, x10rt.ErrPlaceDead) {
		panicSendFailure(src, dst, err)
	}
	return err
}
