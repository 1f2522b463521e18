package core

import (
	"fmt"
	"sync"
)

// GlobalRef is a reference to an object living at a particular place —
// X10's GlobalRef[T]. It can be passed freely between places but can only
// be dereferenced at its home place; X10 enforces this statically, this
// runtime enforces it dynamically (Get panics elsewhere).
type GlobalRef[T any] struct {
	home Place
	id   uint64
}

// NewGlobalRef registers v at the current place and returns a portable
// reference to it.
func NewGlobalRef[T any](c *Ctx, v T) GlobalRef[T] {
	pl := c.pl
	pl.refMu.Lock()
	pl.refSeq++
	id := pl.refSeq
	pl.refs[id] = v
	pl.refMu.Unlock()
	return GlobalRef[T]{home: pl.id, id: id}
}

// Home returns the place the referenced object lives at.
func (r GlobalRef[T]) Home() Place { return r.home }

// Get dereferences the global reference. It panics when invoked at any
// place other than Home — the dynamic analogue of X10's place-type check.
func (r GlobalRef[T]) Get(c *Ctx) T {
	if c.pl.id != r.home {
		panic(fmt.Sprintf("core: GlobalRef homed at place %d dereferenced at place %d",
			r.home, c.pl.id))
	}
	c.pl.refMu.Lock()
	v, ok := c.pl.refs[r.id]
	c.pl.refMu.Unlock()
	if !ok {
		panic(fmt.Sprintf("core: GlobalRef %d at place %d was freed", r.id, r.home))
	}
	return v.(T)
}

// Free drops the registration, allowing the referent to be collected.
// (X10 relies on distributed GC; a manual release keeps this runtime
// simple.) Freeing at a place other than Home panics.
func (r GlobalRef[T]) Free(c *Ctx) {
	if c.pl.id != r.home {
		panic(fmt.Sprintf("core: GlobalRef homed at place %d freed at place %d", r.home, c.pl.id))
	}
	c.pl.refMu.Lock()
	delete(c.pl.refs, r.id)
	c.pl.refMu.Unlock()
}

// localRegistry backs PlaceLocal handles: one lazily initialized value per
// place per handle.
type localRegistry struct {
	mu      sync.RWMutex
	nextID  uint64
	entries map[uint64]*localEntry
	places  int
}

type localEntry struct {
	init func(Place) any
	once []sync.Once
	vals []any
}

func newLocalRegistry(places int) *localRegistry {
	return &localRegistry{entries: make(map[uint64]*localEntry), places: places}
}

func (lr *localRegistry) register(init func(Place) any) uint64 {
	lr.mu.Lock()
	defer lr.mu.Unlock()
	lr.nextID++
	lr.entries[lr.nextID] = &localEntry{
		init: init,
		once: make([]sync.Once, lr.places),
		vals: make([]any, lr.places),
	}
	return lr.nextID
}

func (lr *localRegistry) get(id uint64, p Place) any {
	lr.mu.RLock()
	e, ok := lr.entries[id]
	lr.mu.RUnlock()
	if !ok {
		panic(fmt.Sprintf("core: unknown PlaceLocal handle %d", id))
	}
	e.once[p].Do(func() { e.vals[p] = e.init(p) })
	return e.vals[p]
}

func (lr *localRegistry) free(id uint64) {
	lr.mu.Lock()
	delete(lr.entries, id)
	lr.mu.Unlock()
}

// NumPlaceLocals returns how many PlaceLocal handles are registered and
// not yet freed.
func (rt *Runtime) NumPlaceLocals() int {
	rt.locals.mu.RLock()
	defer rt.locals.mu.RUnlock()
	return len(rt.locals.entries)
}

// PlaceLocal is a handle to per-place storage: the same handle resolves to
// an independent value at every place, created on first access by the init
// function. It is the idiom X10 programs use (via PlaceLocalHandle) to
// partition application data across places; in this runtime it is also the
// mechanism that keeps per-place state disjoint despite places sharing one
// address space.
type PlaceLocal[T any] struct {
	rt *Runtime
	id uint64
}

// NewPlaceLocal registers a place-local with the runtime. init runs at most
// once per place, on first access at that place.
func NewPlaceLocal[T any](rt *Runtime, init func(Place) T) PlaceLocal[T] {
	id := rt.locals.register(func(p Place) any { return init(p) })
	return PlaceLocal[T]{rt: rt, id: id}
}

// Get resolves the handle at the current place.
func (h PlaceLocal[T]) Get(c *Ctx) T {
	return h.rt.locals.get(h.id, c.pl.id).(T)
}

// At resolves the handle at an explicit place. It is intended for
// verification and result collection after a computation has quiesced;
// during the computation, access data at the place that owns it.
func (h PlaceLocal[T]) At(p Place) T {
	return h.rt.locals.get(h.id, p).(T)
}

// Free releases the handle's per-place values; the handle must not be
// resolved afterwards. Code that registers a place-local per call (the
// kernels' Run functions) frees it on return, or the runtime keeps every
// call's data alive until it closes.
func (h PlaceLocal[T]) Free() { h.rt.locals.free(h.id) }
