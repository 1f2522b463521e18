package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"apgas/internal/obs"
	"apgas/internal/perfobs"
	"apgas/internal/x10rt"
)

// This file is the traced run (--trace 1). It uses only switches the
// program already has — obs.SetGlobal(obs.NewTracing()) and
// core.Config.WireLedger — plus the benchmark's own span recorder
// around every call it makes into a layer. Its parts:
//
//  1. a reference window with observability off: solve times to compare
//     against, transport counter deltas, allocation and GC deltas, and
//     the finish workload's per-pattern timers;
//  2. a traced window: per solve the runtime's events go to
//     perfobs.CriticalPath, whose buckets become the *_s layer metrics;
//     registry and wire-ledger deltas give the counts;
//  3. the layer probes (probes.go), observability off again;
//  4. the Chrome trace.
//
// End-to-end metrics never come from this run.

const (
	refWindowShare    = 0.4 // of --seconds, reference window
	tracedWindowShare = 0.5 // of --seconds, traced window
	// maxTracedEvents bounds the tracer's memory: obs.Tracer keeps every
	// event until exit, and `finish` records tens of thousands per solve.
	maxTracedEvents = 1_000_000
)

// span is one interval recorded by the benchmark itself.
type span struct {
	name   string
	start  int64 // ns since the recorder started
	end    int64
	parent int // span id, 0 for none
	solve  int // solve number the span belongs to, 0 for none
}

// spanRecorder is the benchmark's in-memory tracer. Only the main
// goroutine records, so it takes no lock.
type spanRecorder struct {
	t0    time.Time
	spans []span // id = index + 1
}

func (r *spanRecorder) now() int64 { return int64(time.Since(r.t0)) }

func (r *spanRecorder) begin(name string, parent, solve int) int {
	r.spans = append(r.spans, span{name: name, start: r.now(), parent: parent, solve: solve})
	return len(r.spans)
}

func (r *spanRecorder) end(id int) { r.spans[id-1].end = r.now() }

// in records f as a span.
func (r *spanRecorder) in(name string, parent, solve int, f func()) {
	id := r.begin(name, parent, solve)
	f()
	r.end(id)
}

// blockedSampler averages the schedulers' blocked-activity gauges over
// time: the only view of scheduler waiting the program offers without
// distributed tracing.
type blockedSampler struct {
	gauges []*obs.Gauge
	stop   chan struct{}
	wg     sync.WaitGroup
	sum    int64
	n      int64
}

func startBlockedSampler(reg *obs.Registry, places int) *blockedSampler {
	s := &blockedSampler{stop: make(chan struct{})}
	for p := 0; p < places; p++ {
		s.gauges = append(s.gauges, reg.Gauge("sched.p"+strconv.Itoa(p)+".slots.blocked"))
	}
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		tick := time.NewTicker(time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-s.stop:
				return
			case <-tick.C:
				for _, g := range s.gauges {
					s.sum += g.Value()
				}
				s.n++
			}
		}
	}()
	return s
}

// mean stops the sampler and returns the time-averaged number of
// blocked activities, summed over places.
func (s *blockedSampler) mean() float64 {
	close(s.stop)
	s.wg.Wait()
	if s.n == 0 {
		return 0
	}
	return float64(s.sum) / float64(s.n)
}

func runTraced(w *workload, seed uint64, seconds float64, tracePath string) (*result, error) {
	rec := &spanRecorder{t0: time.Now()}
	res := &result{Workload: w.name, Metrics: map[string]float64{}}
	for _, d := range perLayer {
		res.Metrics[d.Name] = 0 // a metric no layer of this workload reaches reads 0
	}
	refSolveS, err := referenceWindow(w, seed, seconds, rec, res)
	if err != nil {
		return res, err
	}
	lastEvents, clockSkew, err := tracedWindow(w, seed, seconds, rec, res, refSolveS)
	if err != nil {
		return res, err
	}
	probes := rec.begin("probes", 0, 0)
	err = runProbes(w.places, res.Metrics, func(name string, f func()) { rec.in("probe."+name, probes, 0, f) })
	rec.end(probes)
	if err != nil {
		return res, fmt.Errorf("probes: %w", err)
	}
	if err := writeChromeTrace(tracePath, rec, lastEvents, clockSkew); err != nil {
		return res, fmt.Errorf("write trace: %w", err)
	}
	fmt.Printf("traced run: %d solves, %d spans, trace written to %s\n", res.Attempted, len(rec.spans), tracePath)
	return res, nil
}

// referenceWindow is part 1: a window with observability off. It fills
// the metrics that need no tracing and returns the solves' timed
// sections in seconds.
func referenceWindow(w *workload, seed uint64, seconds float64, rec *spanRecorder, res *result) ([]float64, error) {
	obs.SetGlobal(nil)
	var inst instance
	var err error
	rec.in("setup", 0, 0, func() { inst, err = setUp(w, seed, false) })
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	defer inst.close()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	st0 := inst.stats()
	var samples []solveSample
	rec.in("window.reference", 0, 0, func() {
		samples, _ = window(inst, time.Duration(refWindowShare*seconds*float64(time.Second)), nil, nil)
	})
	st := inst.stats().Sub(st0)
	runtime.ReadMemStats(&ms1)

	var solveS, verifyS, work []float64
	for _, s := range res.count(samples) {
		solveS = append(solveS, float64(s.timedNs)/1e9)
		// Everything a solve spends outside its timed section: the app's
		// own input generation and in-call verification, and the
		// benchmark's check.
		verifyS = append(verifyS, float64(s.runNs-s.timedNs+s.verifyNs)/1e9)
		work = append(work, s.work)
	}
	if len(solveS) == 0 {
		return nil, fmt.Errorf("no reference solve verified")
	}
	m, n := res.Metrics, float64(len(samples))
	m["apps.work_units"] = median(work)
	m["apps.verify_s"] = median(verifyS)
	m["bench.solves"] = n
	m["bench.solve_iqr_frac"] = (quantile(solveS, 0.75) - quantile(solveS, 0.25)) / median(solveS)
	if len(solveS) >= 100 {
		// Below a hundred solves fewer than ten samples lie beyond p90.
		m["bench.solve_p90_s"] = quantile(solveS, 0.9)
	} else {
		fmt.Printf("bench.solve_p90_s not measured: %d reference solves, 100 needed\n", len(solveS))
	}
	m["core.ctl_msgs"] = float64(st.Messages[x10rt.ControlClass]) / n
	m["core.ctl_bytes"] = float64(st.Bytes[x10rt.ControlClass]) / n
	m["x10rt.msgs"] = float64(st.TotalMessages()) / n
	m["x10rt.payload_bytes"] = float64(st.TotalBytes()) / n
	m["x10rt.wire_bytes"] = float64(st.WireBytes) / n
	if st.TotalBytes() > 0 {
		m["x10rt.wire_amp"] = float64(st.WireBytes) / float64(st.TotalBytes())
	}
	m["go.alloc_mb_per_solve"] = float64(ms1.TotalAlloc-ms0.TotalAlloc) / (1 << 20) / n
	m["go.mallocs_per_solve"] = float64(ms1.Mallocs-ms0.Mallocs) / n
	m["go.gc_pause_ms_per_solve"] = float64(ms1.PauseTotalNs-ms0.PauseTotalNs) / 1e6 / n
	m["go.gc_cycles_per_solve"] = float64(ms1.NumGC-ms0.NumGC) / n
	if f, ok := inst.(*finishInstance); ok {
		for i, ns := range f.takeTimers() {
			m["core.finish."+finishPatternKeys[i]+"_p50_us"] = quantile(ns, 0.5) / 1e3
			m["core.finish."+finishPatternKeys[i]+"_p90_us"] = quantile(ns, 0.9) / 1e3
		}
	}
	return solveS, nil
}

// bucketMetrics maps the layer metrics measured in seconds to the
// critical-path buckets they report.
var bucketMetrics = map[string]string{
	"apps.compute_s":       perfobs.BucketUserCompute,
	"core.finish_ctl_s":    perfobs.BucketFinishControl,
	"core.transport_gap_s": perfobs.BucketTransport,
	"glb.steal_s":          perfobs.BucketSteal,
	"glb.lifeline_wait_s":  perfobs.BucketLifelineWait,
	"collectives.crit_s":   perfobs.BucketCollective,
}

// glbCounters maps the glb layer's count metrics to registry counters.
var glbCounters = map[string]string{
	"glb.steal_attempts":      "glb.steal.attempts",
	"glb.steal_successes":     "glb.steal.successes",
	"glb.lifeline_requests":   "glb.lifeline.requests",
	"glb.lifeline_deliveries": "glb.lifeline.deliveries",
	"glb.resuscitations":      "glb.resuscitations",
}

// tracedWindow is part 2: the same loop with a tracing Obs installed
// and the wire ledger on. It returns the runtime's events of the last
// solve and the offset that places them on the recorder's clock.
func tracedWindow(w *workload, seed uint64, seconds float64, rec *spanRecorder, res *result, refSolveS []float64) ([]obs.Event, int64, error) {
	o := obs.NewTracing()
	obs.SetGlobal(o)
	defer obs.SetGlobal(nil)
	var inst instance
	var err error
	rec.in("setup.traced", 0, 0, func() { inst, err = setUp(w, seed, true) })
	if err != nil {
		return nil, 0, fmt.Errorf("traced set-up: %w", err)
	}
	defer inst.close()
	maxSolves := maxTracedEvents
	if perSolve := len(o.Trace.Events()) / warmupSolves; perSolve > 0 {
		maxSolves = maxTracedEvents / perSolve
	}
	// The recorder and the runtime's tracer have different epochs; one
	// paired reading places the runtime's events on the recorder's clock.
	clockSkew := rec.now() - o.Trace.Now()
	reg0 := o.Metrics.Snapshot()
	lg0 := ledgerTotals(inst.ledger().Snapshot())
	sampler := startBlockedSampler(o.Metrics, w.places)

	// marks[i] is the tracer's clock when solve i ended (marks[0]: when
	// the window began), so solve i's events lie in [marks[i-1], marks[i]).
	marks := []int64{o.Trace.Now()}
	wid := rec.begin("window.traced", 0, 0)
	samples, _ := window(inst, time.Duration(tracedWindowShare*seconds*float64(time.Second)), nil,
		func(s solveSample, solved int) bool {
			marks = append(marks, o.Trace.Now())
			start := marks[solved-1] + clockSkew
			rec.spans = append(rec.spans,
				span{"solve", start, marks[solved] + clockSkew, wid, solved},
				span{"solve.run", start, start + s.runNs, len(rec.spans) + 1, solved},
				span{"solve.verify", start + s.runNs, start + s.runNs + s.verifyNs, len(rec.spans) + 1, solved})
			return solved >= maxSolves
		})
	rec.end(wid)
	m := res.Metrics
	m["sched.blocked"] = sampler.mean()
	reg := o.Metrics.Snapshot().Sub(reg0)
	lg := ledgerTotals(inst.ledger().Snapshot()).sub(lg0)
	events := o.Trace.Events()

	res.count(samples)
	var solveS, coverage []float64
	buckets := map[string][]float64{}
	var lastEvents []obs.Event
	for i, s := range samples {
		if s.err != nil {
			continue
		}
		solveS = append(solveS, float64(s.timedNs)/1e9)
		lo := sort.Search(len(events), func(k int) bool { return events[k].TS >= marks[i] })
		hi := sort.Search(len(events), func(k int) bool { return events[k].TS >= marks[i+1] })
		lastEvents = events[lo:hi]
		covered := int64(0)
		cp := perfobs.CriticalPath(lastEvents) // nil without a finish tree: the wire workloads
		for _, bucket := range bucketMetrics {
			var ns int64
			if cp != nil {
				ns = cp.Buckets[bucket]
			}
			buckets[bucket] = append(buckets[bucket], float64(ns)/1e9)
			covered += ns
		}
		coverage = append(coverage, float64(covered)/float64(s.runNs))
	}
	if len(solveS) == 0 {
		return nil, 0, fmt.Errorf("no traced solve verified")
	}
	n := float64(len(samples))
	for metric, bucket := range bucketMetrics {
		m[metric] = median(buckets[bucket])
	}
	m["bench.budget_coverage"] = median(coverage)
	m["obs.traced_overhead_frac"] = median(solveS)/median(refSolveS) - 1
	lo := sort.Search(len(events), func(k int) bool { return events[k].TS >= marks[0] })
	m["obs.events_per_solve"] = float64(len(events)-lo) / n
	for p := 0; p < w.places; p++ {
		m["sched.spawned"] += float64(reg.Counter("sched.p"+strconv.Itoa(p)+".spawned")) / n
	}
	for name, v := range reg {
		if strings.HasPrefix(name, "team.") {
			m["collectives.ops"] += float64(v.Count) / n
		}
	}
	for metric, counter := range glbCounters {
		m[metric] = float64(reg.Counter(counter)) / n
	}
	if a := reg.Counter("glb.steal.attempts"); a > 0 {
		m["glb.steal_success_ratio"] = float64(reg.Counter("glb.steal.successes")) / float64(a)
	}
	if lg.msgs > 0 {
		m["x10rt.encode_ns_per_msg"] = float64(lg.encNs) / float64(lg.msgs)
	}
	if lg.recv > 0 {
		m["x10rt.decode_ns_per_msg"] = float64(lg.decNs) / float64(lg.recv)
	}
	if lg.linkMsgs > 0 {
		m["x10rt.queue_wait_ns_per_msg"] = float64(lg.qwaitNs) / float64(lg.linkMsgs)
	}
	if lg.batches > 0 {
		m["x10rt.msgs_per_frame"] = float64(lg.linkMsgs) / float64(lg.batches)
	}
	return lastEvents, clockSkew, nil
}

// ledgerSums are a wire ledger's accounts summed over handlers and links.
type ledgerSums struct {
	msgs, recv, encNs, decNs   uint64 // over handlers
	linkMsgs, qwaitNs, batches uint64 // over links
}

func ledgerTotals(s x10rt.WireSnapshot) ledgerSums {
	var t ledgerSums
	for _, h := range s.Handlers {
		t.msgs += h.Msgs
		t.recv += h.RecvMsgs
		t.encNs += h.EncNs
		t.decNs += h.DecNs
	}
	for _, l := range s.Links {
		t.linkMsgs += l.Msgs
		t.qwaitNs += l.QwaitNs
		t.batches += l.Batches
	}
	return t
}

func (t ledgerSums) sub(u ledgerSums) ledgerSums {
	return ledgerSums{t.msgs - u.msgs, t.recv - u.recv, t.encNs - u.encNs, t.decNs - u.decNs,
		t.linkMsgs - u.linkMsgs, t.qwaitNs - u.qwaitNs, t.batches - u.batches}
}

// chromeEvent is one record of the Chrome trace_event format;
// timestamps and durations are microseconds.
type chromeEvent struct {
	Name string           `json:"name"`
	Cat  string           `json:"cat,omitempty"`
	Ph   string           `json:"ph"`
	TS   float64          `json:"ts"`
	Dur  float64          `json:"dur"`
	Pid  int              `json:"pid"`
	Tid  uint64           `json:"tid"`
	Args map[string]int64 `json:"args,omitempty"`
}

type chromeMeta struct {
	Name string            `json:"name"`
	Ph   string            `json:"ph"`
	Pid  int               `json:"pid"`
	Args map[string]string `json:"args"`
}

// writeChromeTrace writes the benchmark's spans as process 0 and, so
// that one solve can be read layer by layer, the runtime's own spans of
// the last traced solve as processes 1 + place.
func writeChromeTrace(path string, rec *spanRecorder, last []obs.Event, clockSkew int64) error {
	out := []any{chromeMeta{Name: "process_name", Ph: "M", Pid: 0, Args: map[string]string{"name": "bench"}}}
	order := make([]int, len(rec.spans))
	for i := range order {
		order[i] = i
	}
	// Parents before children: by start, longest first.
	sort.SliceStable(order, func(a, b int) bool {
		sa, sb := rec.spans[order[a]], rec.spans[order[b]]
		if sa.start != sb.start {
			return sa.start < sb.start
		}
		return sa.end > sb.end
	})
	for _, i := range order {
		s := rec.spans[i]
		out = append(out, chromeEvent{
			Name: s.name, Cat: "bench", Ph: "X",
			TS: float64(s.start) / 1e3, Dur: float64(s.end-s.start) / 1e3, Pid: 0, Tid: 1,
			Args: map[string]int64{"id": int64(i + 1), "parent": int64(s.parent), "solve": int64(s.solve)},
		})
	}
	places := map[int]bool{}
	for _, e := range last {
		if e.Ph != 'X' {
			continue
		}
		if !places[e.Pid] {
			places[e.Pid] = true
			out = append(out, chromeMeta{Name: "process_name", Ph: "M", Pid: 1 + e.Pid,
				Args: map[string]string{"name": "place " + strconv.Itoa(e.Pid)}})
		}
		out = append(out, chromeEvent{
			Name: e.Name, Cat: e.Cat, Ph: "X",
			TS: float64(e.TS+clockSkew) / 1e3, Dur: float64(e.Dur) / 1e3, Pid: 1 + e.Pid, Tid: e.Tid,
			Args: map[string]int64{"parent": int64(e.Parent)},
		})
	}
	data, err := json.Marshal(struct {
		TraceEvents     []any  `json:"traceEvents"`
		DisplayTimeUnit string `json:"displayTimeUnit"`
	}{out, "ms"})
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
