// Package core implements the APGAS (Asynchronous Partitioned Global
// Address Space) runtime described in "X10 and APGAS at Petascale"
// (PPoPP 2014): places, asynchronous activities (async/at), distributed
// termination detection (finish, §3.1), scalable broadcast over place
// groups (§3.2), global references, place-local storage, clocks, and
// atomic sections.
//
// A Runtime hosts a fixed set of places. Like X10 on the Power 775, each
// place runs its activities on a bounded set of workers (one by default,
// matching the paper's X10_NTHREADS=1 configuration) and communicates with
// other places exclusively through the x10rt transport, so that control
// traffic is observable, countable, and subject to the same reordering
// hazards the paper's finish algorithms are designed to survive.
//
// Execution starts with a main activity at place 0; all other places are
// initially idle, exactly as in X10.
package core

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"apgas/internal/obs"
	"apgas/internal/sched"
	"apgas/internal/x10rt"
)

// Place identifies one place of the computation, 0 through Places-1.
type Place int

// Config configures a Runtime. The zero value of optional fields selects
// the documented defaults.
type Config struct {
	// Places is the number of places; must be >= 1.
	Places int

	// WorkersPerPlace bounds the number of simultaneously executing
	// activities per place (default 1, the paper's configuration).
	WorkersPerPlace int

	// PlacesPerHost is the number of places sharing a host, used by the
	// FINISH_DENSE software router (default 32, as on the Power 775 where
	// each 32-core octant ran 32 places).
	PlacesPerHost int

	// BroadcastArity is the fan-out of PlaceGroup spawning trees
	// (default 8).
	BroadcastArity int

	// Transport overrides the transport. It must be an in-process
	// transport (places share one address space); by default a
	// ChanTransport is created. Supplying a transport with injected
	// latency or control-message reordering exercises the runtime under
	// adverse network conditions.
	Transport x10rt.Transport

	// OwnTransport transfers ownership of a supplied Transport to the
	// runtime: Close closes it. Ignored when Transport is nil (a
	// default-built transport is always owned).
	OwnTransport bool

	// CheckPatterns enables verification of the usage contracts of the
	// specialized finish patterns (FINISH_ASYNC, FINISH_HERE,
	// FINISH_LOCAL, FINISH_SPMD); violations panic with a diagnostic.
	// The general patterns (FINISH_DEFAULT, FINISH_DENSE) accept any
	// program. Default on; disable only in benchmarks.
	CheckPatterns bool

	// Obs attaches an observability layer (metrics registry and optional
	// tracer) to the runtime. When nil, the process-wide obs.Global() is
	// used; when that too is nil, observability is disabled and the
	// instrumented paths cost a single nil check each.
	Obs *obs.Obs

	// FlightDump, when non-nil, receives a flight-recorder dump (JSON
	// Lines, see obs.FlightRecorder.WriteDump) whenever Run returns a
	// non-nil error — the black box is read out at the crash site.
	FlightDump io.Writer

	// Now, when non-nil, replaces the wall clock for the runtime's
	// latency measurements (finish duration metrics). The chaos harness
	// installs a virtual clock here so that repeated replays of one seed
	// produce stable timings in traces and dumps; production runtimes
	// leave it nil and use real time.
	Now func() int64

	// WireLedger enables message-level cost attribution: a
	// x10rt.WireLedger is created over the observability layer's
	// per-place registries and attached to the transport (when it
	// implements x10rt.LedgerSink), accounting every send/receive by
	// (handler, src→dst link) with serialization timings. Off by
	// default: with it off, every transport record site costs one nil
	// check. Requires an observability layer (Obs or obs.Global()).
	WireLedger bool
}

func (c *Config) applyDefaults() error {
	if c.Places < 1 {
		return fmt.Errorf("core: Config.Places=%d, need >= 1", c.Places)
	}
	if c.WorkersPerPlace <= 0 {
		c.WorkersPerPlace = 1
	}
	if c.PlacesPerHost <= 0 {
		c.PlacesPerHost = 32
	}
	if c.BroadcastArity <= 0 {
		c.BroadcastArity = 8
	}
	return nil
}

// Runtime hosts a set of places and the machinery connecting them.
type Runtime struct {
	cfg       Config
	tr        x10rt.Transport
	flusher   x10rt.Flusher // tr's flush hook, nil when tr does not batch
	ownsTr    bool
	places    []*place
	locals    *localRegistry
	closeOnce sync.Once
	closed    atomic.Bool

	// observability (all nil when disabled; see obs.go)
	obs    *obs.Obs
	tracer *obs.Tracer
	prof   *obs.Profiler
	m      *runtimeMetrics
	flight *obs.FlightRecorder
	fids   *flightIDs
	// causal is the live span registry behind the watchdog's causal
	// stall chains; nil unless the tracer has distributed tracing
	// enabled (see causal.go).
	causal *causalRegistry
	// ledger is the wire observatory's cost-attribution ledger, nil
	// unless Config.WireLedger was set (see x10rt.WireLedger).
	ledger *x10rt.WireLedger

	// arenas is the process-wide one-sided window registry (congruent
	// fragments register here). Always created; osSender is non-nil only
	// when the transport has a one-sided lane (see onesided.go).
	arenas   *x10rt.ArenaTable
	osSender x10rt.OneSidedSender

	// acts tracks, per finish pattern, the cumulative number of governed
	// activities spawned and completed anywhere in the computation. The
	// two totals must agree whenever no governed activity is live — the
	// conservation invariant the chaos harness checks after every run.
	// Always on: two atomic adds per activity, independent of obs.
	acts [numPatterns]activityCounter

	// placeActs tracks begun/completed per place; each live place's pair
	// stays balanced even when a death unbalances the global acts totals
	// (see resilient.go).
	placeActs []placeActivityCounter

	// deaths is the resilience bookkeeping: which places died, and who
	// wants to hear about it (see resilient.go).
	deaths deathRegistry

	// onClose holds the OnClose hooks. Cold, and last so that the hot
	// fields above keep their cache lines.
	closeMu sync.Mutex
	onClose []func()
}

// activityCounter is one pattern's spawned/completed pair.
type activityCounter struct {
	spawned   atomic.Uint64
	completed atomic.Uint64
}

// place is the per-place state: scheduler, finish bookkeeping, object
// tables, and the local monitor for atomic sections.
type place struct {
	id    Place
	rt    *Runtime
	sched *sched.Scheduler

	// finish bookkeeping
	finSeq  atomic.Uint64
	finMu   sync.Mutex
	roots   map[finishID]rootFinish
	proxies map[finishID]*vectorProxy

	// global reference table
	refMu  sync.Mutex
	refSeq uint64
	refs   map[uint64]any

	// place monitor backing Atomic/When
	monMu   sync.Mutex
	monCond *sync.Cond

	// clock table (for clocks homed at this place)
	clockMu  sync.Mutex
	clockSeq uint64
	clocks   map[uint64]*clockState

	// dense-routing coalescing buffers (see routeDense)
	denseMu  sync.Mutex
	denseBuf map[denseBufKey][]ctlSnapshot

	// pm are this place's own metric handles, reporting into the place
	// registry (obs.Obs.Place) under unqualified names so snapshots from
	// different places merge by name; nil when observability is off.
	pm *runtimeMetrics
}

// NewRuntime creates a runtime with cfg.Places places and registers the
// runtime's active-message handlers on the transport.
func NewRuntime(cfg Config) (*Runtime, error) {
	if err := cfg.applyDefaults(); err != nil {
		return nil, err
	}
	rt := &Runtime{cfg: cfg, locals: newLocalRegistry(cfg.Places)}
	o := cfg.Obs
	if o == nil {
		o = obs.Global()
	}
	if o != nil {
		rt.obs = o
		rt.tracer = o.Trace
		rt.prof = o.Prof
		rt.m = newRuntimeMetrics(o.Metrics)
		if f := o.FlightRecorder(); f != nil {
			rt.flight = f
			rt.fids = newFlightIDs(f)
		}
		if rt.tracer.DistEnabled() {
			rt.causal = newCausalRegistry()
		}
	}
	if cfg.Transport != nil {
		if cfg.Transport.NumPlaces() != cfg.Places {
			return nil, fmt.Errorf("core: transport has %d places, config wants %d",
				cfg.Transport.NumPlaces(), cfg.Places)
		}
		rt.tr = cfg.Transport
		rt.ownsTr = cfg.OwnTransport
	} else {
		tr, err := x10rt.NewChanTransport(x10rt.ChanOptions{Places: cfg.Places})
		if err != nil {
			return nil, err
		}
		rt.tr = tr
		rt.ownsTr = true
	}
	rt.flusher, _ = rt.tr.(x10rt.Flusher)
	if ts, ok := rt.tr.(x10rt.TracerSink); ok && rt.tracer != nil {
		// Serializing transports stamp batch frames with the sender's
		// HLC once distributed tracing is enabled on this tracer.
		ts.AttachTracer(rt.tracer)
	}
	if rt.obs != nil {
		if ms, ok := rt.tr.(x10rt.MetricSource); ok {
			ms.AttachMetrics(rt.obs.Metrics)
		}
		// Per-place egress counters feed each place's own registry, the
		// raw material of the cross-place telemetry aggregation.
		if ps, ok := rt.tr.(x10rt.PlaceMetricSource); ok {
			for i := 0; i < cfg.Places; i++ {
				ps.AttachPlaceMetrics(i, rt.obs.Place(i))
			}
		}
		// The wire ledger rides the same per-place registries, so its
		// x10rt.h<ID>.* / x10rt.link.* accounts flow through the
		// telemetry gather tree and Prometheus export like any metric.
		if cfg.WireLedger {
			if ls, ok := rt.tr.(x10rt.LedgerSink); ok {
				o := rt.obs
				rt.ledger = x10rt.NewWireLedger(cfg.Places, func(p int) *obs.Registry {
					return o.Place(p)
				})
				ls.AttachWireLedger(rt.ledger)
			}
		}
	}
	rt.places = make([]*place, cfg.Places)
	for i := range rt.places {
		pl := &place{
			id:      Place(i),
			rt:      rt,
			sched:   sched.New(cfg.WorkersPerPlace),
			roots:   make(map[finishID]rootFinish),
			proxies: make(map[finishID]*vectorProxy),
			refs:    make(map[uint64]any),
			clocks:  make(map[uint64]*clockState),
		}
		pl.monCond = sync.NewCond(&pl.monMu)
		if rt.obs != nil {
			pl.sched.AttachMetrics(rt.obs.Metrics, fmt.Sprintf("sched.p%d", i))
			// The same scheduler metrics also appear in the place's own
			// registry under the unqualified prefix, plus the place's
			// private copies of the core runtime counters.
			preg := rt.obs.Place(i)
			pl.sched.AttachMetrics(preg, "sched")
			pl.pm = newRuntimeMetrics(preg)
		}
		rt.places[i] = pl
	}
	if err := rt.tr.Register(x10rt.HandlerSpawn, rt.onSpawn); err != nil {
		return nil, err
	}
	if err := rt.tr.Register(x10rt.HandlerFinishCtl, rt.onFinishCtl); err != nil {
		return nil, err
	}
	if err := rt.tr.Register(x10rt.HandlerClockCtl, rt.onClockCtl); err != nil {
		return nil, err
	}
	// The one-sided lane: the arena table always exists (congruent
	// registers windows unconditionally), and when the transport can
	// both send and land one-sided ops, landings run through the
	// runtime's finish-accounting hook.
	rt.arenas = x10rt.NewArenaTable()
	if sink, ok := rt.tr.(x10rt.OneSidedSink); ok {
		if snd, ok := rt.tr.(x10rt.OneSidedSender); ok {
			rt.osSender = snd
			rt.arenas.SetHook(rt.onOneSided)
			sink.AttachArenas(rt.arenas)
		}
	}
	rt.placeActs = make([]placeActivityCounter, cfg.Places)
	rt.deaths.dead = make([]atomic.Bool, cfg.Places)
	// Transports that can lose places report here; PlaceDeath is
	// idempotent, so the in-process notifier's once-per-survivor fan-out
	// collapses to a single adoption pass.
	if dn, ok := rt.tr.(x10rt.DeathNotifier); ok {
		dn.NotifyDeath(func(dead, _ int) { rt.PlaceDeath(Place(dead)) })
	}
	return rt, nil
}

// NumPlaces returns the number of places.
func (rt *Runtime) NumPlaces() int { return rt.cfg.Places }

// Transport exposes the underlying transport, mainly for reading traffic
// statistics in experiments.
func (rt *Runtime) Transport() x10rt.Transport { return rt.tr }

// WireLedger returns the wire observatory's cost-attribution ledger,
// nil unless Config.WireLedger was set on a transport that supports it.
func (rt *Runtime) WireLedger() *x10rt.WireLedger { return rt.ledger }

// Arenas returns the process-wide one-sided window registry.
func (rt *Runtime) Arenas() *x10rt.ArenaTable { return rt.arenas }

// OneSidedEnabled reports whether the transport has a one-sided lane
// (chan and TCP do; callers without one fall back to active messages).
func (rt *Runtime) OneSidedEnabled() bool { return rt.osSender != nil }

// Config returns the effective configuration.
func (rt *Runtime) Config() Config { return rt.cfg }

// Close shuts the runtime down. Outstanding activities are abandoned; call
// Close only after Run has returned.
func (rt *Runtime) Close() {
	rt.closeOnce.Do(func() {
		rt.closed.Store(true)
		if rt.ownsTr {
			rt.tr.Close()
		}
		rt.closeMu.Lock()
		fns := rt.onClose
		rt.onClose = nil
		rt.closeMu.Unlock()
		for _, fn := range fns {
			fn()
		}
	})
}

// OnClose registers fn to run once when the runtime closes. Extension
// layers that keep per-runtime state outside the runtime (the collectives
// manager) release it here.
func (rt *Runtime) OnClose(fn func()) {
	rt.closeMu.Lock()
	rt.onClose = append(rt.onClose, fn)
	rt.closeMu.Unlock()
}

// Run executes main as the program's root activity at place 0 under an
// implicit root finish, blocking until every transitively spawned activity
// on every place has terminated. It returns the combined error of any
// activities that panicked. Run may be called several times sequentially;
// concurrent Runs on one Runtime are not supported.
func (rt *Runtime) Run(main func(*Ctx)) error {
	if rt.closed.Load() {
		return fmt.Errorf("core: runtime is closed")
	}
	pl := rt.places[0]
	var err error
	pl.sched.Run(func() {
		ctx := &Ctx{rt: rt, pl: pl}
		// The root activity carries the base label set; every goroutine
		// it spawns inherits the labels until an inner scope overrides
		// them, so even un-instrumented helper goroutines stay
		// attributable to place 0's main line.
		if pr := rt.prof; pr != nil {
			err = pr.Run(0, PatternDefault.metricKey(), kindMain,
				func(pc context.Context) error {
					ctx.profCtx = pc
					return ctx.Finish(main)
				})
		} else {
			err = ctx.Finish(main)
		}
	})
	if err != nil {
		if f := rt.fids; f != nil {
			rt.flight.Record(f.runError, f.catCore, 'i', 0, 0, 0)
		}
		if rt.cfg.FlightDump != nil && rt.flight != nil {
			fmt.Fprintf(rt.cfg.FlightDump, "# apgas: Run failed (%v); flight recorder follows\n", err)
			_ = rt.flight.WriteDump(rt.cfg.FlightDump)
		}
	}
	return err
}

// place lookup helper; panics on out-of-range place (programming error).
func (rt *Runtime) place(p Place) *place {
	if int(p) < 0 || int(p) >= len(rt.places) {
		panic(fmt.Sprintf("core: place %d out of range [0,%d)", p, len(rt.places)))
	}
	return rt.places[p]
}

// master returns the master place of p's host, used by the FINISH_DENSE
// software router: control messages from place p are routed via
// p - p%b where b is the number of places per host.
func (rt *Runtime) master(p Place) Place {
	b := Place(rt.cfg.PlacesPerHost)
	return p - p%b
}

// now returns the configured time source's reading in nanoseconds.
// Durations are differences of now() values, so any monotone source works.
func (rt *Runtime) now() int64 {
	if rt.cfg.Now != nil {
		return rt.cfg.Now()
	}
	return time.Now().UnixNano()
}

// send is the single funnel for runtime messages whose loss a place
// death already accounts for: control credits and snapshots addressed to
// a dead root are moot (the root force-fired), and everything a dead
// place would have sent is forgiven by the adoption protocol. Dead-place
// failures are therefore dropped silently, and so are sends after Close
// (see droppedAfterClose); any other failure is still a transport bug
// and panics. Spawn paths, whose loss must be compensated, use trySend
// (resilient.go) instead.
func (rt *Runtime) send(src, dst Place, id x10rt.HandlerID, payload any, bytes int, class x10rt.Class) {
	if err := rt.tr.Send(int(src), int(dst), id, payload, bytes, class); err != nil &&
		!errors.Is(err, x10rt.ErrPlaceDead) && !rt.droppedAfterClose(err) {
		panicSendFailure(src, dst, err)
	}
}

// droppedAfterClose reports whether err is a send finding the transport
// closed after Close, and counts such a drop in core.sends_after_close.
// The sender is an activity that outlived its run — a straggler of a
// finish that a place death released early — and nobody is left to
// receive what it sends.
func (rt *Runtime) droppedAfterClose(err error) bool {
	if !rt.closed.Load() || !errors.Is(err, x10rt.ErrClosed) {
		return false
	}
	if m := rt.m; m != nil {
		m.sendsAfterClose.Inc()
	}
	return true
}

// flushTransport pushes any batched frames queued at place p out to
// the wire immediately. The finish protocols call it at their decisive
// control points — a quiescence snapshot, a cleanup burst, a dense
// forward — where the *last* message of a burst gates termination and
// must not sit out a batching delay. A no-op on transports that do not
// buffer.
func (rt *Runtime) flushTransport(p Place) {
	if rt.flusher != nil {
		_ = rt.flusher.Flush(int(p))
	}
}
