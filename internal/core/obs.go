package core

import (
	"fmt"

	"apgas/internal/obs"
)

// This file wires the runtime into the unified observability layer
// (internal/obs). Instrumentation discipline: the runtime holds a nil
// *runtimeMetrics and nil *obs.Tracer when observability is disabled, so
// every instrumented hot path pays exactly one pointer load and branch.

// metricKey returns the lowercase registry segment for a pattern
// ("spmd" for FINISH_SPMD, and so on).
func (p Pattern) metricKey() string {
	switch p {
	case PatternDefault:
		return "default"
	case PatternAsync:
		return "async"
	case PatternHere:
		return "here"
	case PatternLocal:
		return "local"
	case PatternSPMD:
		return "spmd"
	case PatternDense:
		return "dense"
	default:
		return fmt.Sprintf("pattern%d", uint8(p))
	}
}

// runtimeMetrics are the core runtime's registry handles: per-pattern
// finish counts and latency histograms, activity spawn kinds, and
// finish-protocol control traffic observed at receiving places.
type runtimeMetrics struct {
	finishCount [numPatterns]*obs.Counter   // finish.<pattern>.count
	finishUs    [numPatterns]*obs.Histogram // finish.<pattern>.us
	asyncLocal  *obs.Counter                // core.async.local
	asyncRemote *obs.Counter                // core.async.remote
	atDirect    *obs.Counter                // core.at.direct
	oneSided    *obs.Counter                // core.onesided
	uncounted   *obs.Counter                // core.async.uncounted
	ctlRecv     *obs.Counter                // finish.ctl.recv
	// sends dropped because Runtime.Close had closed the transport
	sendsAfterClose *obs.Counter // core.sends_after_close
}

func newRuntimeMetrics(r *obs.Registry) *runtimeMetrics {
	m := &runtimeMetrics{
		asyncLocal:      r.Counter("core.async.local"),
		asyncRemote:     r.Counter("core.async.remote"),
		atDirect:        r.Counter("core.at.direct"),
		oneSided:        r.Counter("core.onesided"),
		uncounted:       r.Counter("core.async.uncounted"),
		ctlRecv:         r.Counter("finish.ctl.recv"),
		sendsAfterClose: r.Counter("core.sends_after_close"),
	}
	for p := Pattern(0); p < numPatterns; p++ {
		key := p.metricKey()
		m.finishCount[p] = r.Counter("finish." + key + ".count")
		m.finishUs[p] = r.Histogram("finish." + key + ".us")
	}
	return m
}

// flightIDs caches the interned flight-recorder name ids the runtime's
// hot paths record with; interning happens once at construction so the
// record path stays allocation free.
type flightIDs struct {
	catFinish uint32
	catCore   uint32

	finishName  [numPatterns]uint32 // "finish.<pattern>"
	ctlSnapshot uint32
	ctlRouted   uint32
	ctlDone     uint32
	ctlCleanup  uint32
	atAsync     uint32
	atDirect    uint32
	oneSided    uint32
	spawnRecv   uint32
	runError    uint32
	placeDeath  uint32

	kSrc   uint32
	kDst   uint32
	kBytes uint32
	kSeq   uint32
}

func newFlightIDs(f *obs.FlightRecorder) *flightIDs {
	ids := &flightIDs{
		catFinish:   f.NameID("finish"),
		catCore:     f.NameID("core"),
		ctlSnapshot: f.NameID("ctl.snapshot"),
		ctlRouted:   f.NameID("ctl.routed"),
		ctlDone:     f.NameID("ctl.done"),
		ctlCleanup:  f.NameID("ctl.cleanup"),
		atAsync:     f.NameID("at.async"),
		atDirect:    f.NameID("at.direct"),
		oneSided:    f.NameID("onesided"),
		spawnRecv:   f.NameID("spawn.recv"),
		runError:    f.NameID("run.error"),
		placeDeath:  f.NameID("place.death"),
		kSrc:        f.NameID("src"),
		kDst:        f.NameID("dst"),
		kBytes:      f.NameID("bytes"),
		kSeq:        f.NameID("seq"),
	}
	for p := Pattern(0); p < numPatterns; p++ {
		ids.finishName[p] = f.NameID("finish." + p.metricKey())
	}
	return ids
}

// ctlFlightName maps a finish control payload to its flight-recorder
// event name.
func (ids *flightIDs) ctlFlightName(payload any) uint32 {
	switch payload.(type) {
	case ctlSnapshot:
		return ids.ctlSnapshot
	case ctlRouted:
		return ids.ctlRouted
	case ctlDone:
		return ids.ctlDone
	case ctlCleanup:
		return ids.ctlCleanup
	default:
		return 0
	}
}

// Obs returns the observability layer this runtime reports into, or nil
// when observability is disabled.
func (rt *Runtime) Obs() *obs.Obs { return rt.obs }

// PlaceRegistry returns place p's own metrics registry (unqualified
// metric names, mergeable across places), or nil when observability is
// disabled.
func (rt *Runtime) PlaceRegistry(p Place) *obs.Registry {
	if rt.obs == nil {
		return nil
	}
	return rt.obs.Place(int(p))
}

// Tracer returns the event tracer, or nil when tracing is disabled.
// Extension layers (glb, collectives) use it to record their spans next
// to the runtime's.
func (rt *Runtime) Tracer() *obs.Tracer { return rt.tracer }

// Profiler returns the activity profiler, or nil when profiling is
// disabled. Extension layers (glb, collectives) use it to reattribute
// the bodies they run inside core activities.
func (rt *Runtime) Profiler() *obs.Profiler { return rt.prof }

// MetricKey returns the lowercase registry/profile-label segment for a
// pattern ("spmd" for FINISH_SPMD, and so on) — the value the profiler
// stamps as the "pattern" pprof label.
func (p Pattern) MetricKey() string { return p.metricKey() }
