// Package congruent implements the congruent memory allocator and the RDMA
// surface of §3.3 of "X10 and APGAS at Petascale".
//
// On the Power 775, RDMA and hardware collectives require memory segments
// registered with the network hardware, and the initiating task must know
// the effective address of both ends. X10's congruent allocator returns
// registered segments backed by large pages, outside the control of the
// garbage collector, and — when every place performs the same allocation
// sequence — at the same address in every place ("symmetric allocation"),
// so a place can compute a remote address from its own.
//
// This package reproduces that contract on the in-process substrate: an
// Allocator hands out Arrays identified by a symmetric handle (the analogue
// of the congruent address), with one backing slice per place and
// registration/large-page bookkeeping for the experiments. Remote
// operations — AsyncCopy puts/gets and GUPS-style remote atomic XOR — run
// on the destination's message dispatcher without occupying a worker
// (core.Ctx.AtDirect), modeling transfers that bypass the remote CPU. As
// in X10, their termination is tracked by the enclosing finish, which is
// what makes overlapping communication with computation natural:
//
//	finish { AsyncCopyPut(...); computeLocally(); }
package congruent

import (
	"fmt"
	"sync"
	"sync/atomic"

	"apgas/internal/core"
)

// PageSize is the modeled large-page size (16 MB, the Power 775
// configuration that keeps the Torrent's TLB pressure low).
const PageSize = 16 << 20

// Allocator hands out congruent (symmetric) arrays. Allocations must be
// performed in the same order with the same sizes at every place — the
// "same allocation sequence" rule of the paper — which the handle-based
// API enforces by construction: one NewArray call allocates at all places.
type Allocator struct {
	rt *core.Runtime

	mu         sync.Mutex
	nextHandle uint64

	registeredBytes atomic.Uint64
	largePages      atomic.Uint64
	allocations     atomic.Uint64
}

// NewAllocator creates an allocator for the runtime.
func NewAllocator(rt *core.Runtime) *Allocator {
	return &Allocator{rt: rt}
}

// Stats reports allocator bookkeeping: total registered bytes across all
// places, the number of modeled large pages backing them, and the number
// of symmetric allocations performed.
func (a *Allocator) Stats() (registeredBytes, largePages, allocations uint64) {
	return a.registeredBytes.Load(), a.largePages.Load(), a.allocations.Load()
}

// Array is a congruent array of T: one fragment of perPlaceLen elements
// per place, all reachable through the same symmetric handle. It supports
// the RDMA operations of this package; for everything else it behaves like
// ordinary per-place data, mirroring the paper's observation that
// congruent arrays "do not behave differently from regular arrays after
// their initial allocation".
type Array[T any] struct {
	alloc  *Allocator
	handle uint64
	frags  [][]T
	perLen int

	// arenaID is the symmetric one-sided window id (x10rt.ArenaTable).
	// localOnly marks element types without a little-endian wire form:
	// their windows serve in-process transports only and the RDMA
	// operations use the active-message path.
	arenaID   uint64
	localOnly bool
}

// NewArray performs one symmetric allocation: a fragment of perPlaceLen
// elements of T at every place, registered with the (modeled) network
// hardware and backed by (modeled) large pages.
func NewArray[T any](a *Allocator, perPlaceLen int) (*Array[T], error) {
	if perPlaceLen <= 0 {
		return nil, fmt.Errorf("congruent: perPlaceLen=%d, need > 0", perPlaceLen)
	}
	a.mu.Lock()
	a.nextHandle++
	h := a.nextHandle
	a.mu.Unlock()

	n := a.rt.NumPlaces()
	arr := &Array[T]{alloc: a, handle: h, perLen: perPlaceLen, frags: make([][]T, n)}
	var z T
	elem := int(sizeOf(z))
	for p := 0; p < n; p++ {
		arr.frags[p] = make([]T, perPlaceLen)
	}
	bytes := uint64(elem) * uint64(perPlaceLen) * uint64(n)
	a.registeredBytes.Add(bytes)
	a.largePages.Add((bytes + PageSize - 1) / PageSize)
	a.allocations.Add(1)
	registerArenas(arr)
	return arr, nil
}

// Handle returns the symmetric handle (the analogue of the congruent
// address, identical at every place).
func (arr *Array[T]) Handle() uint64 { return arr.handle }

// PerPlaceLen returns the fragment length at each place.
func (arr *Array[T]) PerPlaceLen() int { return arr.perLen }

// Local returns the calling place's fragment.
func (arr *Array[T]) Local(c *core.Ctx) []T { return arr.frags[c.Place()] }

// Fragment returns place p's fragment directly. Use it for initialization
// and post-run verification; during a computation, places should touch
// remote fragments only through the RDMA operations.
func (arr *Array[T]) Fragment(p core.Place) []T { return arr.frags[p] }

// GlobalLen returns the total element count across places.
func (arr *Array[T]) GlobalLen() int { return arr.perLen * len(arr.frags) }

// sizeOf models element wire size without importing unsafe.
func sizeOf(v any) uintptr {
	switch v.(type) {
	case bool, int8, uint8:
		return 1
	case int16, uint16:
		return 2
	case int32, uint32, float32:
		return 4
	case int64, uint64, float64, int, uint, uintptr:
		return 8
	case complex64:
		return 8
	case complex128:
		return 16
	default:
		return 8
	}
}
