package congruent

import (
	"encoding/binary"
	"math"
	"sync/atomic"

	"apgas/internal/x10rt"
)

// This file binds congruent arrays to the transport's one-sided lane:
// every NewArray registers one x10rt.Arena per place under a symmetric
// arena id, so a sender can name remote memory as (arena, offset) and the
// transport can land the bytes without active-message dispatch — the
// paper's registered-segment contract (§3.3: RDMA "requires memory
// segments registered with the network hardware, and the initiating task
// must know the effective address of both ends").
//
// The arena closures carry the element type, so x10rt never reflects:
// PutLocal moves typed slices (in-process transports, true zero copy),
// PutLE/ReadOp translate little-endian wire bytes (TCP), and Xor/Add are
// the GUPS remote atomics. Only fixed-width numeric element types get a
// wire form; other types register a local-only window and the RDMA
// operations fall back to the active-message path.

// registerArenas installs one window per place for arr and records the
// symmetric arena id. wireOK reports whether the element type has a
// little-endian wire form (required for byte-stream transports).
func registerArenas[T any](arr *Array[T]) {
	at := arr.alloc.rt.Arenas()
	arr.arenaID = at.Reserve()
	for p := range arr.frags {
		a := ArenaFor(arr.frags[p])
		if a.PutLE == nil {
			arr.localOnly = true
		}
		at.Register(p, arr.arenaID, a)
	}
}

// ArenaFor builds the type-erased window closures over one fragment. It is
// exported for layers that register their own windows (team collectives);
// element types without a wire form get a window with a nil PutLE, which
// only in-process transports can land into.
func ArenaFor[T any](frag []T) *x10rt.Arena {
	var z T
	a := &x10rt.Arena{Elems: len(frag), ElemSize: int(sizeOf(z))}
	a.PutLocal = func(off int, local any) { copy(frag[off:], local.([]T)) }
	a.ReadOp = func(off, elems int) (any, func([]byte) []byte) {
		// Snapshot at read time: the reply may cross a wire after the
		// fragment has moved on, exactly like a posted RDMA get.
		snap := make([]T, elems)
		copy(snap, frag[off:off+elems])
		return snap, func(dst []byte) []byte { return appendWireLE(dst, snap) }
	}
	switch f := any(frag).(type) {
	case []byte:
		a.Raw = f // wire puts land straight into the fragment
		a.PutLE = func(off, elems int, data []byte) { copy(f[off:off+elems], data) }
	case []uint64:
		a.PutLE = func(off, elems int, data []byte) {
			for i := 0; i < elems; i++ {
				// The GUPS atomics may land concurrently from other
				// transport readers; stores go through the same door.
				atomic.StoreUint64(&f[off+i], binary.LittleEndian.Uint64(data[i*8:]))
			}
		}
		a.Xor = func(idx int, val uint64) {
			addr := &f[idx]
			for {
				old := atomic.LoadUint64(addr)
				if atomic.CompareAndSwapUint64(addr, old, old^val) {
					return
				}
			}
		}
		a.Add = func(idx int, val uint64) { atomic.AddUint64(&f[idx], val) }
	case []int64:
		a.PutLE = func(off, elems int, data []byte) {
			for i := 0; i < elems; i++ {
				f[off+i] = int64(binary.LittleEndian.Uint64(data[i*8:]))
			}
		}
	case []float64:
		a.PutLE = func(off, elems int, data []byte) {
			for i := 0; i < elems; i++ {
				f[off+i] = math.Float64frombits(binary.LittleEndian.Uint64(data[i*8:]))
			}
		}
	case []uint32:
		a.PutLE = func(off, elems int, data []byte) {
			for i := 0; i < elems; i++ {
				f[off+i] = binary.LittleEndian.Uint32(data[i*4:])
			}
		}
	case []int32:
		a.PutLE = func(off, elems int, data []byte) {
			for i := 0; i < elems; i++ {
				f[off+i] = int32(binary.LittleEndian.Uint32(data[i*4:]))
			}
		}
	case []float32:
		a.PutLE = func(off, elems int, data []byte) {
			for i := 0; i < elems; i++ {
				f[off+i] = math.Float32frombits(binary.LittleEndian.Uint32(data[i*4:]))
			}
		}
	}
	return a
}

// appendWireLE appends the little-endian wire form of src. Types without
// a wire form return dst unchanged — such arrays are localOnly and never
// reach a byte-stream transport.
func appendWireLE[T any](dst []byte, src []T) []byte {
	switch s := any(src).(type) {
	case []byte:
		return append(dst, s...)
	case []uint64:
		for _, v := range s {
			dst = binary.LittleEndian.AppendUint64(dst, v)
		}
	case []int64:
		for _, v := range s {
			dst = binary.LittleEndian.AppendUint64(dst, uint64(v))
		}
	case []float64:
		for _, v := range s {
			dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(v))
		}
	case []uint32:
		for _, v := range s {
			dst = binary.LittleEndian.AppendUint32(dst, v)
		}
	case []int32:
		for _, v := range s {
			dst = binary.LittleEndian.AppendUint32(dst, uint32(v))
		}
	case []float32:
		for _, v := range s {
			dst = binary.LittleEndian.AppendUint32(dst, math.Float32bits(v))
		}
	}
	return dst
}

// oneSided reports whether arr's RDMA operations may use the transport's
// one-sided lane from the calling side.
func (arr *Array[T]) oneSided() bool {
	return !arr.localOnly
}
