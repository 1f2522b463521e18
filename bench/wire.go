package main

import (
	"fmt"
	"hash/crc32"
	"sync"
	"sync/atomic"
	"time"

	"apgas/internal/obs"
	"apgas/internal/x10rt"
)

// The two wire workloads: a 2-endpoint codec TCP mesh on loopback, each
// endpoint wrapped in a BatchingTransport with default options. This is
// the only path in the repository across a socket and the binary codec;
// the kernels cannot take it until core ships registered handlers
// instead of closures (ROADMAP item 1). All traffic stays on 127.0.0.1:
// these numbers say nothing about a real network.

const (
	wirePlaces      = 2
	wireSolveExpiry = 30 * time.Second // a solve that has not drained by then has lost a message
)

// Handler ids of the wire workloads, clear of the runtime's reserved
// range and of the harness microbenchmarks.
const (
	wireDataHandler   = x10rt.UserHandlerBase + 300
	wireCreditHandler = x10rt.UserHandlerBase + 301
)

// wireMesh is the measured mesh: eps[p] is the endpoint place p sends
// through.
type wireMesh struct {
	eps    []*x10rt.BatchingTransport
	ledger *x10rt.WireLedger // non-nil on a traced mesh
}

// newTCPMesh builds the measured mesh. With traced set the endpoints
// report into obs.Global() the way core.NewRuntime attaches a
// transport: metrics, per-place metrics, tracer and wire ledger.
func newTCPMesh(traced bool) (*wireMesh, error) {
	tcp, err := x10rt.NewLocalCodecTCPMesh(wirePlaces)
	if err != nil {
		return nil, err
	}
	m := &wireMesh{}
	for _, ep := range tcp {
		m.eps = append(m.eps, x10rt.NewBatchingTransport(ep, x10rt.BatchOptions{}))
	}
	if o := obs.Global(); traced && o != nil {
		m.ledger = x10rt.NewWireLedger(wirePlaces, func(p int) *obs.Registry { return o.Place(p) })
		for p, bt := range m.eps {
			bt.AttachMetrics(o.Metrics)
			bt.AttachPlaceMetrics(p, o.Place(p))
			bt.AttachTracer(o.Trace)
			bt.AttachWireLedger(m.ledger)
		}
	}
	return m, nil
}

// register installs h under id on every endpoint.
func (m *wireMesh) register(id x10rt.HandlerID, h x10rt.Handler) error {
	for _, ep := range m.eps {
		if err := ep.Register(id, h); err != nil {
			return err
		}
	}
	return nil
}

func (m *wireMesh) close() {
	for _, ep := range m.eps {
		_ = ep.Close() // closes the TCP endpoint underneath
	}
}

// flush pushes place p's queued batches onto the wire.
func (m *wireMesh) flush(p int) { _ = m.eps[p].Flush(p) }

// stats sums each place's egress counters.
func (m *wireMesh) stats() x10rt.Stats {
	var sum x10rt.Stats
	for p, ep := range m.eps {
		s := ep.PlaceStats(p)
		for i := range sum.Messages {
			sum.Messages[i] += s.Messages[i]
			sum.Bytes[i] += s.Bytes[i]
		}
		sum.WireBytes += s.WireBytes
	}
	return sum
}

// ---- wire-small ---------------------------------------------------------

// smallMsg is the 64-byte payload of wire-small, registered with the
// reflection-built binary codec.
type smallMsg struct {
	Seq, A, B, C, D, E, F, G uint64
}

// creditMsg returns flow-control credit to the peer.
type creditMsg struct {
	Grants uint64
}

func init() {
	for _, sample := range []any{smallMsg{}, creditMsg{}} {
		if err := x10rt.RegisterBinaryStruct(sample); err != nil {
			panic(err)
		}
	}
}

const (
	smallPerEndpoint = 200000
	smallMsgBytes    = 64
	// Flow control: a sender may run creditWindow messages ahead of the
	// receiver's acknowledgements, which arrive one per creditGrant
	// messages received.
	creditWindow = 8192
	creditGrant  = 1024
)

func splitmix(z uint64) uint64 {
	z += 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// foldSmall extends a sequence checksum by one message; it depends on
// order, so it also checks per-link FIFO delivery.
func foldSmall(sum uint64, m smallMsg) uint64 {
	return splitmix(sum ^ m.Seq ^ m.A ^ m.B ^ m.C ^ m.D ^ m.E ^ m.F ^ m.G)
}

// smallStream generates the messages place src sends, and the checksum
// the receiver must arrive at.
func smallStream(seed uint64, src int) (msgs []smallMsg, sum uint64) {
	msgs = make([]smallMsg, smallPerEndpoint)
	z := seed ^ uint64(src+1)*0x632be59bd9b4e019
	next := func() uint64 { z = splitmix(z); return z }
	for i := range msgs {
		msgs[i] = smallMsg{uint64(i), next(), next(), next(), next(), next(), next(), next()}
		sum = foldSmall(sum, msgs[i])
	}
	return msgs, sum
}

// smallEndpoint is one place's side of the wire-small exchanges.
type smallEndpoint struct {
	send []smallMsg
	want uint64 // checksum of the peer's stream

	// round is the receiving state of the exchange in progress. Each
	// exchange publishes a fresh one here before it sends anything: the
	// atomic store orders the start of an exchange before the handler
	// calls its messages cause, which a socket alone does not in the Go
	// memory model.
	round atomic.Pointer[smallRound]
}

// smallRound is written only by the goroutine that runs the place's
// handlers, and read by others after done is closed.
type smallRound struct {
	got      uint64        // checksum of what arrived
	received int           // data messages
	granted  int           // credit messages
	credits  chan struct{} // flow-control tokens for this place's sender
	grants   chan struct{} // acknowledgements owed to the peer
	done     chan struct{} // closed once every data and credit message of the solve is in
}

func (r *smallRound) arrived() {
	if r.received == smallPerEndpoint && r.granted == smallGrants {
		close(r.done)
	}
}

// smallGrants is how many credit messages each place sends per solve.
const smallGrants = smallPerEndpoint / creditGrant

// smallExchange runs one full exchange over a mesh: both places stream
// their messages to each other under the credit window.
type smallExchange struct {
	mesh *wireMesh
	ep   [wirePlaces]*smallEndpoint
}

func newSmallExchange(mesh *wireMesh, seed uint64) (*smallExchange, error) {
	x := &smallExchange{mesh: mesh}
	var sums [wirePlaces]uint64
	for p := range x.ep {
		x.ep[p] = &smallEndpoint{}
		x.ep[p].send, sums[p] = smallStream(seed, p)
	}
	for p := range x.ep {
		x.ep[p].want = sums[1-p]
	}
	err := mesh.register(wireDataHandler, func(_, dst int, payload any) {
		r := x.ep[dst].round.Load()
		r.got = foldSmall(r.got, payload.(smallMsg))
		r.received++
		if r.received%creditGrant == 0 {
			r.grants <- struct{}{}
		}
		r.arrived()
	})
	if err != nil {
		return nil, err
	}
	err = mesh.register(wireCreditHandler, func(_, dst int, _ any) {
		r := x.ep[dst].round.Load()
		r.granted++
		r.credits <- struct{}{}
		r.arrived()
	})
	return x, err
}

// exchange performs the transfer and returns once both places hold
// everything the other sent, credit messages included, so nothing of
// one solve can arrive during the next.
func (x *smallExchange) exchange() error {
	var rounds [wirePlaces]*smallRound
	for p, e := range x.ep {
		// Both channels can hold every token of a solve, so the
		// handlers never block on them.
		r := &smallRound{
			credits: make(chan struct{}, creditWindow/creditGrant+smallGrants),
			grants:  make(chan struct{}, smallGrants),
			done:    make(chan struct{}),
		}
		for i := 0; i < creditWindow/creditGrant; i++ {
			r.credits <- struct{}{}
		}
		rounds[p] = r
		e.round.Store(r)
	}
	errs := make(chan error, 2*wirePlaces)
	var wg sync.WaitGroup
	for p := range x.ep {
		p, e, r, tr := p, x.ep[p], rounds[p], x.mesh.eps[p]
		wg.Add(2)
		// The sender: one credit token per creditGrant messages.
		go func() {
			defer wg.Done()
			for i, m := range e.send {
				if i%creditGrant == 0 {
					<-r.credits
				}
				if err := tr.Send(p, 1-p, wireDataHandler, m, smallMsgBytes, x10rt.DataClass); err != nil {
					errs <- fmt.Errorf("wire-small: send %d->%d: %w", p, 1-p, err)
					return
				}
			}
			x.mesh.flush(p)
		}()
		// The acknowledger: handlers must not send — a reader blocked in
		// a write to a peer blocked the same way would never drain.
		go func() {
			defer wg.Done()
			for i := 0; i < smallGrants; i++ {
				<-r.grants
				if err := tr.Send(p, 1-p, wireCreditHandler, creditMsg{Grants: 1}, 8, x10rt.ControlClass); err != nil {
					errs <- fmt.Errorf("wire-small: credit %d->%d: %w", p, 1-p, err)
					return
				}
				x.mesh.flush(p)
			}
		}()
	}
	expiry := time.After(wireSolveExpiry)
	for _, r := range rounds {
		select {
		case <-r.done:
		case err := <-errs:
			return err
		case <-expiry:
			return fmt.Errorf("wire-small: exchange not drained after %v", wireSolveExpiry)
		}
	}
	wg.Wait() // every message is in, so the senders have nothing left to do
	return nil
}

func (x *smallExchange) check() error {
	for p, e := range x.ep {
		r := e.round.Load()
		if r.received != smallPerEndpoint || r.got != e.want {
			return fmt.Errorf("wire-small: place %d holds %d messages with checksum %#x, want %d with %#x",
				p, r.received, r.got, smallPerEndpoint, e.want)
		}
	}
	return nil
}

type wireSmallInstance struct {
	tcp *smallExchange
}

func setupWireSmall(seed uint64, traced bool) (instance, error) {
	mesh, err := newTCPMesh(traced)
	if err != nil {
		return nil, err
	}
	x, err := newSmallExchange(mesh, seed)
	if err != nil {
		mesh.close()
		return nil, err
	}
	return &wireSmallInstance{tcp: x}, nil
}

func (in *wireSmallInstance) run() (timed time.Duration, err error) {
	start := time.Now()
	err = in.tcp.exchange()
	return time.Since(start), err
}

func (in *wireSmallInstance) verify() (float64, error) {
	if err := in.tcp.check(); err != nil {
		return 0, err
	}
	return wirePlaces * smallPerEndpoint, nil
}

// baseline hands the same messages to the receiver's work — the
// checksum fold — by a direct call: no codec, no frames, no socket, no
// transport at all. ISSUE 13 proposed the same schedule over
// x10rt.NewChanTransport; its rate moved 15% from run to run with
// where the dispatcher goroutines happened to be scheduled, which made
// class1_ratio the noisiest number of the benchmark.
func (in *wireSmallInstance) baseline() float64 {
	start := time.Now()
	for p, e := range in.tcp.ep {
		var sum uint64
		for _, m := range e.send {
			sum = foldSmall(sum, m)
		}
		if sum != in.tcp.ep[1-p].want {
			panic("wire-small: baseline checksum differs from the reference")
		}
	}
	return wirePlaces * smallPerEndpoint / time.Since(start).Seconds()
}

func (in *wireSmallInstance) stats() x10rt.Stats        { return in.tcp.mesh.stats() }
func (in *wireSmallInstance) ledger() *x10rt.WireLedger { return in.tcp.mesh.ledger }
func (in *wireSmallInstance) close()                    { in.tcp.mesh.close() }

// ---- wire-large ---------------------------------------------------------

const (
	largeBytes       = 1 << 20
	largePerEndpoint = 64 // active messages, and as many puts, each place sends per solve
	largeBuffers     = 4  // distinct source buffers per place
	largeArena       = 1  // arena id of each place's landing window
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// largeEndpoint is one place's side of the wire-large exchanges.
type largeEndpoint struct {
	src   [largeBuffers][]byte // what this place sends
	want  [largeBuffers]uint32 // content hashes of what the peer sends
	arena []byte               // largePerEndpoint landing slots for the peer's puts
	// round is the receiving state of the exchange in progress,
	// published afresh by each exchange (see smallEndpoint.round).
	round atomic.Pointer[largeRound]
}

// largeRound is what one exchange delivered to a place. The handler
// goroutine appends to payloads and then raises arrived; others read
// payloads once arrived says the exchange is complete.
type largeRound struct {
	payloads [][]byte // the peer's active-message payloads, in arrival order
	arrived  atomic.Int64
}

type wireLargeInstance struct {
	mesh   *wireMesh
	arenas *x10rt.ArenaTable
	ep     [wirePlaces]*largeEndpoint
	// class1Dst is where the Class-1 copy lands.
	class1Dst []byte
}

func setupWireLarge(seed uint64, traced bool) (instance, error) {
	mesh, err := newTCPMesh(traced)
	if err != nil {
		return nil, err
	}
	in := &wireLargeInstance{mesh: mesh, class1Dst: make([]byte, largeBytes)}
	arenas := x10rt.NewArenaTable()
	var sums [wirePlaces][largeBuffers]uint32
	for p := range in.ep {
		e := &largeEndpoint{arena: make([]byte, largePerEndpoint*largeBytes)}
		z := seed ^ uint64(p+1)*0xd6e8feb86659fd93
		for b := range e.src {
			e.src[b] = make([]byte, largeBytes)
			for i := 0; i < largeBytes; i += 8 {
				z = splitmix(z)
				for k := 0; k < 8; k++ {
					e.src[b][i+k] = byte(z >> (8 * k))
				}
			}
			sums[p][b] = crc32.Checksum(e.src[b], castagnoli)
		}
		in.ep[p] = e
	}
	in.arenas = arenas
	in.registerArenas()
	for p := range in.ep {
		in.ep[p].want = sums[1-p]
	}
	// Every landing put is applied and then counted; the hook is the
	// only completion signal the one-sided lane gives a receiver.
	arenas.SetHook(func(src, dst int, op *x10rt.OneSidedOp, reply func(*x10rt.OneSidedOp) error) error {
		err := arenas.Apply(src, dst, op, reply)
		in.ep[dst].round.Load().arrived.Add(1)
		return err
	})
	for _, ep := range mesh.eps {
		ep.AttachArenas(arenas)
	}
	err = mesh.register(wireDataHandler, func(_, dst int, payload any) {
		r := in.ep[dst].round.Load()
		r.payloads = append(r.payloads, payload.([]byte))
		r.arrived.Add(1)
	})
	if err != nil {
		mesh.close()
		return nil, err
	}
	return in, nil
}

func (in *wireLargeInstance) run() (timed time.Duration, err error) {
	start := time.Now()
	err = in.exchange()
	return time.Since(start), err
}

// registerArenas registers each place's landing window. It is called
// again after every clearing of the windows: the table's lock is what
// orders the clearing before the next put a transport reader lands.
func (in *wireLargeInstance) registerArenas() {
	for p, e := range in.ep {
		window := e.arena
		in.arenas.Register(p, largeArena, &x10rt.Arena{
			Elems:    len(window),
			ElemSize: 1,
			Raw:      window,
			PutLE:    func(off, elems int, data []byte) { copy(window[off:off+elems], data) },
		})
	}
}

func (in *wireLargeInstance) exchange() error {
	for _, e := range in.ep {
		e.round.Store(&largeRound{payloads: make([][]byte, 0, largePerEndpoint)})
	}
	errs := make(chan error, wirePlaces)
	var wg sync.WaitGroup
	for p := range in.ep {
		p, e, tr := p, in.ep[p], in.mesh.eps[p]
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < largePerEndpoint; i++ {
				buf := e.src[i%largeBuffers]
				if err := tr.Send(p, 1-p, wireDataHandler, buf, largeBytes, x10rt.DataClass); err != nil {
					errs <- fmt.Errorf("wire-large: send %d->%d: %w", p, 1-p, err)
					return
				}
				op := &x10rt.OneSidedOp{
					Kind:  x10rt.OneSidedPut,
					Arena: largeArena,
					Off:   i * largeBytes,
					Elems: largeBytes,
					Data:  buf,
					Bytes: largeBytes,
				}
				if err := tr.SendOneSided(p, 1-p, op); err != nil {
					errs <- fmt.Errorf("wire-large: put %d->%d: %w", p, 1-p, err)
					return
				}
			}
			in.mesh.flush(p)
		}()
	}
	wg.Wait()
	select {
	case err := <-errs:
		return err
	default:
	}
	deadline := time.Now().Add(wireSolveExpiry)
	for _, e := range in.ep {
		r := e.round.Load()
		for r.arrived.Load() < 2*largePerEndpoint {
			if time.Now().After(deadline) {
				return fmt.Errorf("wire-large: %d of %d transfers arrived after %v",
					r.arrived.Load(), 2*largePerEndpoint, wireSolveExpiry)
			}
			time.Sleep(20 * time.Microsecond)
		}
	}
	return nil
}

// verify hashes every payload and every landing slot against the
// sender's buffers, then clears the slots so that a put lost in the
// next solve cannot pass on this solve's bytes.
func (in *wireLargeInstance) verify() (float64, error) {
	for p, e := range in.ep {
		payloads := e.round.Load().payloads
		if len(payloads) != largePerEndpoint {
			return 0, fmt.Errorf("wire-large: place %d received %d active messages, want %d", p, len(payloads), largePerEndpoint)
		}
		for i := 0; i < largePerEndpoint; i++ {
			want := e.want[i%largeBuffers]
			if got := crc32.Checksum(payloads[i], castagnoli); len(payloads[i]) != largeBytes || got != want {
				return 0, fmt.Errorf("wire-large: place %d message %d has hash %#x, want %#x", p, i, got, want)
			}
			slot := e.arena[i*largeBytes : (i+1)*largeBytes]
			if got := crc32.Checksum(slot, castagnoli); got != want {
				return 0, fmt.Errorf("wire-large: place %d put %d has hash %#x, want %#x", p, i, got, want)
			}
		}
		clear(e.arena)
	}
	in.registerArenas()
	return wirePlaces * 2 * largePerEndpoint * largeBytes, nil
}

// baseline moves the same bytes with copy().
func (in *wireLargeInstance) baseline() float64 {
	start := time.Now()
	for _, e := range in.ep {
		for i := 0; i < 2*largePerEndpoint; i++ {
			copy(in.class1Dst, e.src[i%largeBuffers])
		}
	}
	return wirePlaces * 2 * largePerEndpoint * largeBytes / time.Since(start).Seconds()
}

func (in *wireLargeInstance) stats() x10rt.Stats        { return in.mesh.stats() }
func (in *wireLargeInstance) ledger() *x10rt.WireLedger { return in.mesh.ledger }
func (in *wireLargeInstance) close()                    { in.mesh.close() }
