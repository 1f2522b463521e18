package x10rt

import (
	"encoding/binary"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
)

// The one-sided lane is the transport's RDMA emulation done right: a
// put, get, or remote atomic is not an active message. It names an
// *arena* — a registered memory window, in practice one place's
// fragment of a congruent array — and an element offset, and the
// receiving transport lands the bytes directly in that window. No
// handler dispatch, no gob, no per-op allocation on the data path. The
// paper's GUPS numbers come from exactly this shape: the remote XOR
// lands in the congruent heap at an address the *sender* computed
// (§3.3).
//
// Frame v5 carries one op:
//
//	+-------+-----------+----------------------+---------------------+
//	| magic | version=5 | length (4 bytes, BE) | payload             |
//	+-------+-----------+----------------------+---------------------+
//
//	payload:
//	    uvarint(src) | kind byte | uvarint(arena) | uvarint(off)
//	    uvarint(elems)
//	    8-byte LE val                    kinds Xor, Add
//	    uvarint(replyArena)              kind Get
//	    4 × 8-byte LE token
//	    uvarint(dataLen) | data          kinds Put, XorBatch
//
// The token is opaque to this package: the core runtime packs its
// finish-credit reference into it so termination detection accounts
// one-sided ops exactly like asyncs, without this layer knowing what a
// finish is.

// OneSidedKind selects the operation. The zero value is invalid so a
// zeroed or torn frame cannot alias a real op.
type OneSidedKind uint8

const (
	// OneSidedPut copies the op's data into the target arena window.
	OneSidedPut OneSidedKind = iota + 1
	// OneSidedGet asks the target to reply with a Put of
	// [off, off+elems) into the requester's reply arena.
	OneSidedGet
	// OneSidedXor atomically xors val into element off.
	OneSidedXor
	// OneSidedAdd atomically adds val to element off.
	OneSidedAdd
	// OneSidedXorBatch applies elems packed (index, val) xor records.
	OneSidedXorBatch
	numOneSidedKinds
)

func (k OneSidedKind) String() string {
	switch k {
	case OneSidedPut:
		return "put"
	case OneSidedGet:
		return "get"
	case OneSidedXor:
		return "xor"
	case OneSidedAdd:
		return "add"
	case OneSidedXorBatch:
		return "xorbatch"
	default:
		return fmt.Sprintf("onesided(%d)", uint8(k))
	}
}

// oneSidedRecordBytes is one XorBatch record: uint32 index, uint64 val,
// both little-endian.
const oneSidedRecordBytes = 12

// OneSidedOp is one one-sided operation in flight. The sender fills the
// targeting fields plus exactly one data representation:
//
//   - Local: a typed slice (same element type as the arena) for
//     in-process transports — landed by the arena's PutLocal without
//     serialization. For Put over the lane this is the *caller's*
//     slice, not a copy: like real RDMA, the source buffer must stay
//     stable until the enclosing finish completes.
//   - Data: raw little-endian bytes (wire transports, XorBatch).
//   - Raw: an appender producing the little-endian encoding on demand —
//     wire transports call it to serialize a typed slice straight into
//     the outgoing frame staging buffer.
type OneSidedOp struct {
	Kind  OneSidedKind
	Arena uint64
	// Off is the element offset (Put/Get window start, Xor/Add index).
	Off   int
	Elems int
	// Val is the Xor/Add operand.
	Val uint64
	// Data is the raw little-endian payload (Put/XorBatch).
	Data []byte
	// Local is the typed payload for in-process delivery.
	Local any
	// Raw appends the little-endian encoding of Local to dst.
	Raw func(dst []byte) []byte
	// Bytes is the modeled data-section length: elems×elemSize for Put,
	// 12×elems for XorBatch, 0 for Get/Xor/Add. Channel transports use
	// OneSidedWireBytes (header + Bytes) as the modeled wire cost; wire
	// transports account the real frame.
	Bytes int
	// ReplyArena is the requester's (usually transient) arena a Get
	// reply lands in.
	ReplyArena uint64
	// Token carries the core runtime's packed finish credit.
	Token [4]uint64
	// Applied marks data already landed by the transport (direct
	// window read); Apply then only runs side effects.
	Applied bool
}

// OneSidedSender is implemented by transports with a one-sided lane.
// SendOneSided ships op from src to dst with per-link FIFO ordering
// relative to Send on the same link and DataClass accounting under
// HandlerOneSided.
type OneSidedSender interface {
	SendOneSided(src, dst int, op *OneSidedOp) error
}

// OneSidedSink is implemented by transports that can land one-sided
// ops; the runtime hands them the process-wide arena table at startup.
type OneSidedSink interface {
	AttachArenas(*ArenaTable)
}

// OneSidedHook intercepts every landing op (the core runtime's finish
// accounting). reply ships a response op from dst back toward src —
// only Get uses it. The hook is responsible for calling
// ArenaTable.Apply.
type OneSidedHook func(src, dst int, op *OneSidedOp, reply func(*OneSidedOp) error) error

// Arena is one registered memory window. The closures are built by the
// owner (internal/congruent) over the typed fragment so this package
// never reflects on element types.
type Arena struct {
	// Elems and ElemSize describe the window: Elems elements of
	// ElemSize bytes each.
	Elems    int
	ElemSize int
	// Raw, when non-nil, is the window's byte backing ([]byte arenas):
	// wire transports land Put data by reading straight into it.
	Raw []byte
	// PutLocal copies a typed slice into [off, off+len).
	PutLocal func(off int, local any)
	// PutLE decodes little-endian bytes into [off, off+elems).
	PutLE func(off, elems int, data []byte)
	// ReadOp snapshots [off, off+elems), returning the typed slice and
	// a little-endian appender over the same snapshot (Get replies).
	ReadOp func(off, elems int) (local any, raw func(dst []byte) []byte)
	// Xor and Add are atomic read-modify-writes on element idx —
	// multiple transport readers may land concurrently.
	Xor func(idx int, val uint64)
	Add func(idx int, val uint64)
	// Transient arenas unregister after the first Put lands: Get-reply
	// windows live for exactly one response.
	Transient bool
	// Landed, when non-nil, runs on the landing goroutine after each Put
	// into the window is complete: the arrival notification a receiver
	// that is not told through a finish (team collectives) waits on. It
	// must be short and must not block.
	Landed func(src, off, elems int)
}

type arenaKey struct {
	place int
	id    uint64
}

// ArenaTable is the process-wide registry of one-sided windows, keyed
// by (owning place, arena id). Arena ids come from Reserve and are
// identical on every place for congruent allocations (all places
// allocate in the same order), which is what lets a sender name remote
// memory it has never seen.
type ArenaTable struct {
	mu     sync.RWMutex
	arenas map[arenaKey]*Arena
	nextID atomic.Uint64
	hook   atomic.Pointer[OneSidedHook]
}

// NewArenaTable returns an empty table.
func NewArenaTable() *ArenaTable {
	return &ArenaTable{arenas: make(map[arenaKey]*Arena)}
}

// Reserve allocates the next arena id. Callers relying on symmetric
// ids must call it in the same global order on every place (congruent
// allocations do, by construction).
func (at *ArenaTable) Reserve() uint64 { return at.nextID.Add(1) }

// Register installs a window for (place, id), replacing any previous
// registration.
func (at *ArenaTable) Register(place int, id uint64, a *Arena) {
	at.mu.Lock()
	at.arenas[arenaKey{place, id}] = a
	at.mu.Unlock()
}

// Remove drops a window.
func (at *ArenaTable) Remove(place int, id uint64) {
	at.mu.Lock()
	delete(at.arenas, arenaKey{place, id})
	at.mu.Unlock()
}

// Len returns the number of windows registered at place.
func (at *ArenaTable) Len(place int) int {
	at.mu.RLock()
	defer at.mu.RUnlock()
	n := 0
	for k := range at.arenas {
		if k.place == place {
			n++
		}
	}
	return n
}

func (at *ArenaTable) lookup(place int, id uint64) (*Arena, error) {
	at.mu.RLock()
	a := at.arenas[arenaKey{place, id}]
	at.mu.RUnlock()
	if a == nil {
		return nil, fmt.Errorf("%w: one-sided op names unknown arena %d at place %d",
			ErrFrameCorrupt, id, place)
	}
	return a, nil
}

// SetHook installs the landing interceptor (nil uninstalls).
func (at *ArenaTable) SetHook(h OneSidedHook) {
	if h == nil {
		at.hook.Store(nil)
		return
	}
	at.hook.Store(&h)
}

// Land delivers op at dst: through the hook when one is installed
// (finish accounting), straight to Apply otherwise.
func (at *ArenaTable) Land(src, dst int, op *OneSidedOp, reply func(*OneSidedOp) error) error {
	if h := at.hook.Load(); h != nil {
		return (*h)(src, dst, op, reply)
	}
	return at.Apply(src, dst, op, reply)
}

// Apply performs op's memory effect at dst. Every bound is validated
// here — ops arrive off the network — and violations are errors, never
// panics: a hostile frame costs its own connection, not the process.
func (at *ArenaTable) Apply(src, dst int, op *OneSidedOp, reply func(*OneSidedOp) error) error {
	a, err := at.lookup(dst, op.Arena)
	if err != nil {
		return err
	}
	switch op.Kind {
	case OneSidedPut:
		if op.Off < 0 || op.Elems < 0 || op.Off > a.Elems || op.Elems > a.Elems-op.Off {
			return fmt.Errorf("%w: put [%d,+%d) outside arena of %d elems",
				ErrFrameCorrupt, op.Off, op.Elems, a.Elems)
		}
		if !op.Applied {
			switch {
			case op.Local != nil:
				if a.PutLocal == nil {
					return fmt.Errorf("x10rt: arena %d has no local put", op.Arena)
				}
				a.PutLocal(op.Off, op.Local)
			default:
				if len(op.Data) != op.Elems*a.ElemSize {
					return fmt.Errorf("%w: put data %d bytes, want %d",
						ErrFrameCorrupt, len(op.Data), op.Elems*a.ElemSize)
				}
				if a.PutLE == nil {
					return fmt.Errorf("x10rt: arena %d has no wire put", op.Arena)
				}
				a.PutLE(op.Off, op.Elems, op.Data)
			}
		}
		if a.Transient {
			at.Remove(dst, op.Arena)
		}
		if a.Landed != nil {
			a.Landed(src, op.Off, op.Elems)
		}
		return nil
	case OneSidedGet:
		if op.Off < 0 || op.Elems < 0 || op.Off > a.Elems || op.Elems > a.Elems-op.Off {
			return fmt.Errorf("%w: get [%d,+%d) outside arena of %d elems",
				ErrFrameCorrupt, op.Off, op.Elems, a.Elems)
		}
		if a.ReadOp == nil {
			return fmt.Errorf("x10rt: arena %d has no read", op.Arena)
		}
		if reply == nil {
			return fmt.Errorf("x10rt: transport cannot reply to one-sided get")
		}
		local, raw := a.ReadOp(op.Off, op.Elems)
		return reply(&OneSidedOp{
			Kind:  OneSidedPut,
			Arena: op.ReplyArena,
			Elems: op.Elems,
			Local: local,
			Raw:   raw,
			Bytes: op.Elems * a.ElemSize,
			Token: op.Token,
		})
	case OneSidedXor, OneSidedAdd:
		if op.Off < 0 || op.Off >= a.Elems {
			return fmt.Errorf("%w: %s index %d outside arena of %d elems",
				ErrFrameCorrupt, op.Kind, op.Off, a.Elems)
		}
		f := a.Xor
		if op.Kind == OneSidedAdd {
			f = a.Add
		}
		if f == nil {
			return fmt.Errorf("x10rt: arena %d has no %s", op.Arena, op.Kind)
		}
		f(op.Off, op.Val)
		return nil
	case OneSidedXorBatch:
		if a.Xor == nil {
			return fmt.Errorf("x10rt: arena %d has no xor", op.Arena)
		}
		if op.Elems < 0 || len(op.Data) != op.Elems*oneSidedRecordBytes {
			return fmt.Errorf("%w: xorbatch data %d bytes for %d records",
				ErrFrameCorrupt, len(op.Data), op.Elems)
		}
		for r := 0; r < op.Elems; r++ {
			rec := op.Data[r*oneSidedRecordBytes:]
			idx := int(binary.LittleEndian.Uint32(rec))
			if idx >= a.Elems {
				return fmt.Errorf("%w: xorbatch index %d outside arena of %d elems",
					ErrFrameCorrupt, idx, a.Elems)
			}
			a.Xor(idx, binary.LittleEndian.Uint64(rec[4:]))
		}
		return nil
	default:
		return fmt.Errorf("%w: one-sided kind %d", ErrFrameCorrupt, op.Kind)
	}
}

// RawWindow returns the byte window a Put op lands in when the target
// arena is byte-backed — wire transports read the payload straight into
// it (true zero copy). nil, nil means "no direct window, stage instead".
func (at *ArenaTable) RawWindow(dst int, op *OneSidedOp) ([]byte, error) {
	if op.Kind != OneSidedPut {
		return nil, nil
	}
	a, err := at.lookup(dst, op.Arena)
	if err != nil {
		return nil, err
	}
	if a.Raw == nil || a.ElemSize != 1 {
		return nil, nil
	}
	if op.Off < 0 || op.Elems < 0 || op.Off > a.Elems || op.Elems > a.Elems-op.Off {
		return nil, fmt.Errorf("%w: put [%d,+%d) outside arena of %d elems",
			ErrFrameCorrupt, op.Off, op.Elems, a.Elems)
	}
	return a.Raw[op.Off : op.Off+op.Elems], nil
}

// frame v5 encode/decode ----------------------------------------------

// frameVersionOneSided marks a one-sided op frame.
const frameVersionOneSided = 5

// oneSidedDataLen is the data-section length op ships: explicit Data
// wins, otherwise the modeled Bytes (the Raw appender produces exactly
// elems×elemSize bytes by contract).
func oneSidedDataLen(op *OneSidedOp) int {
	if op.Data != nil {
		return len(op.Data)
	}
	if op.Kind == OneSidedPut || op.Kind == OneSidedXorBatch {
		return op.Bytes
	}
	return 0
}

// appendOneSidedHeader appends the complete v5 frame head — outer
// header plus op fields through the data-length prefix — to dst. The
// data section itself ships as a separate scatter-gather segment.
func appendOneSidedHeader(dst []byte, src int, op *OneSidedOp, dataLen int) ([]byte, error) {
	if op.Kind == 0 || op.Kind >= numOneSidedKinds {
		return dst, fmt.Errorf("x10rt: bad one-sided kind %d", op.Kind)
	}
	start := len(dst)
	dst = append(dst, frameMagic, frameVersionOneSided, 0, 0, 0, 0)
	dst = appendUvarint(dst, uint64(src))
	dst = append(dst, byte(op.Kind))
	dst = appendUvarint(dst, op.Arena)
	dst = appendUvarint(dst, uint64(op.Off))
	dst = appendUvarint(dst, uint64(op.Elems))
	if op.Kind == OneSidedXor || op.Kind == OneSidedAdd {
		dst = binary.LittleEndian.AppendUint64(dst, op.Val)
	}
	if op.Kind == OneSidedGet {
		dst = appendUvarint(dst, op.ReplyArena)
	}
	for _, t := range op.Token {
		dst = binary.LittleEndian.AppendUint64(dst, t)
	}
	dst = appendUvarint(dst, uint64(dataLen))
	payloadLen := len(dst) - start - frameHeaderSize + dataLen
	if payloadLen > MaxFrameSize {
		return dst, fmt.Errorf("%w: one-sided payload %d exceeds max %d",
			ErrFrameCorrupt, payloadLen, MaxFrameSize)
	}
	binary.BigEndian.PutUint32(dst[start+2:start+6], uint32(payloadLen))
	return dst, nil
}

// OneSidedWireBytes is the exact v5 frame length op occupies. Channel
// transports use it as the modeled wire cost so ledger one-sided rows
// stay sum-equal with x10rt.bytes.wire.
func OneSidedWireBytes(src int, op *OneSidedOp) int {
	var buf [96]byte // longer than any head: the count costs no allocation
	head, err := appendOneSidedHeader(buf[:0], src, op, oneSidedDataLen(op))
	if err != nil {
		return 0
	}
	return len(head) + oneSidedDataLen(op)
}

// oneSidedByteReader is what the streaming parser needs: bufio.Reader
// on the wire, bytes.Reader in tests and fuzzing.
type oneSidedByteReader interface {
	io.Reader
	io.ByteReader
}

// countingReader counts consumed bytes so the parser can validate the
// op header against the frame's declared length before touching data.
type countingReader struct {
	r oneSidedByteReader
	n int
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += n
	return n, err
}

func (c *countingReader) ReadByte() (byte, error) {
	b, err := c.r.ReadByte()
	if err == nil {
		c.n++
	}
	return b, err
}

func readOneSidedUvarint(r *countingReader, max uint64) (uint64, error) {
	x, err := binary.ReadUvarint(r)
	if err != nil {
		return 0, fmt.Errorf("%w: one-sided header: %v", ErrFrameCorrupt, err)
	}
	if x > max {
		return 0, fmt.Errorf("%w: one-sided field %d exceeds bound %d", ErrFrameCorrupt, x, max)
	}
	return x, nil
}

// parseOneSidedHeader reads the op fields (everything up to the data
// section) from r, which holds a v5 payload. It returns the op with
// Data unset plus the declared data length; the caller reads exactly
// dataLen more bytes — into the arena's raw window when RawWindow
// offers one, a staging buffer otherwise.
func parseOneSidedHeader(cr *countingReader, payloadLen int) (src int, op *OneSidedOp, dataLen int, err error) {
	src64, err := readOneSidedUvarint(cr, 1<<24)
	if err != nil {
		return 0, nil, 0, err
	}
	kb, err := cr.ReadByte()
	if err != nil {
		return 0, nil, 0, fmt.Errorf("%w: one-sided kind: %v", ErrFrameCorrupt, err)
	}
	kind := OneSidedKind(kb)
	if kind == 0 || kind >= numOneSidedKinds {
		return 0, nil, 0, fmt.Errorf("%w: one-sided kind %d", ErrFrameCorrupt, kb)
	}
	op = &OneSidedOp{Kind: kind}
	if op.Arena, err = readOneSidedUvarint(cr, 1<<62); err != nil {
		return 0, nil, 0, err
	}
	off, err := readOneSidedUvarint(cr, MaxFrameSize*8)
	if err != nil {
		return 0, nil, 0, err
	}
	op.Off = int(off)
	elems, err := readOneSidedUvarint(cr, MaxFrameSize*8)
	if err != nil {
		return 0, nil, 0, err
	}
	op.Elems = int(elems)
	var b8 [8]byte
	if kind == OneSidedXor || kind == OneSidedAdd {
		if _, err := io.ReadFull(cr, b8[:]); err != nil {
			return 0, nil, 0, fmt.Errorf("%w: one-sided val: %v", ErrFrameCorrupt, err)
		}
		op.Val = binary.LittleEndian.Uint64(b8[:])
	}
	if kind == OneSidedGet {
		if op.ReplyArena, err = readOneSidedUvarint(cr, 1<<62); err != nil {
			return 0, nil, 0, err
		}
	}
	for i := range op.Token {
		if _, err := io.ReadFull(cr, b8[:]); err != nil {
			return 0, nil, 0, fmt.Errorf("%w: one-sided token: %v", ErrFrameCorrupt, err)
		}
		op.Token[i] = binary.LittleEndian.Uint64(b8[:])
	}
	dl, err := readOneSidedUvarint(cr, MaxFrameSize)
	if err != nil {
		return 0, nil, 0, err
	}
	dataLen = int(dl)
	if cr.n+dataLen != payloadLen {
		return 0, nil, 0, fmt.Errorf("%w: one-sided header %d + data %d != payload %d",
			ErrFrameCorrupt, cr.n, dataLen, payloadLen)
	}
	op.Bytes = dataLen
	return int(src64), op, dataLen, nil
}
