// Package perfobs attributes where a run's time went. CriticalPath walks
// the longest dependency chain of a trace's dominant root finish and
// splits its wall clock into runtime buckets (user compute, finish
// control, steal round trips, lifeline waits, collective fan-in,
// transport) — a software reproduction of the paper's Table 2 overhead
// accounting, read by the bench/ module's per-layer metrics and by
// apgas-bench -exp dense. ParseProfile and SummarizeProfile turn a pprof
// profile into a cost table by the runtime's activity labels, for
// tracecheck -profile and apgas-top.
package perfobs

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"apgas/internal/obs"
)

// Bucket names for critical-path attribution. Together they partition
// the root finish's wall clock: every nanosecond of the longest
// dependency chain lands in exactly one bucket.
const (
	// BucketUserCompute is time inside user activity bodies not covered
	// by a nested runtime span.
	BucketUserCompute = "user-compute"
	// BucketFinishControl is time inside finish scopes spent on
	// termination detection: spawning, quiescence counting, and the tail
	// after the last local child completes.
	BucketFinishControl = "finish-control"
	// BucketSteal is GLB random-steal round trips on the path.
	BucketSteal = "steal"
	// BucketLifelineWait is time a GLB worker spent dead waiting for
	// lifeline loot.
	BucketLifelineWait = "lifeline-wait"
	// BucketCollective is team collective fan-in/fan-out on the path.
	BucketCollective = "collective"
	// BucketTransport is the gap between a remote child's completion and
	// the enclosing finish observing it — the control message's flight
	// plus handler queueing.
	BucketTransport = "transport"
)

// CritPathReport is the wall-time attribution of the longest dependency
// chain under the trace's dominant root finish.
type CritPathReport struct {
	// Root names the root span the walk started from (e.g.
	// "finish.default").
	Root string `json:"root"`
	// WallNs is the root span's duration.
	WallNs int64 `json:"wall_ns"`
	// Buckets maps bucket name to attributed nanoseconds.
	Buckets map[string]int64 `json:"buckets"`
	// Coverage is sum(Buckets)/WallNs; the walk partitions the window,
	// so this is ~1.0 whenever WallNs > 0.
	Coverage float64 `json:"coverage"`
	// Spans is the number of spans visited on the walk.
	Spans int `json:"spans"`
	// PlaceNs maps place id to the nanoseconds of the critical path
	// charged to spans owned by that place. On a merged distributed
	// trace this is the cross-place attribution: it answers "which
	// place's work (or waiting) dominates the wall clock". Transport
	// gaps are charged to the waiting (home) place, so ctl fan-in
	// through place 0 shows up as place-0 time.
	PlaceNs map[int]int64 `json:"place_ns,omitempty"`
	// FlowRecvs counts flow-end ('f') events in the trace whose receive
	// landed on a span visited by the walk — how much of the path was
	// stitched across places by message edges.
	FlowRecvs int `json:"flow_recvs,omitempty"`
}

// WriteText renders the report as an aligned percentage table.
func (r *CritPathReport) WriteText(w io.Writer) {
	if r == nil {
		fmt.Fprintln(w, "critical path: no trace")
		return
	}
	fmt.Fprintf(w, "critical path of %s: %.3fms over %d spans (coverage %.1f%%)\n",
		r.Root, float64(r.WallNs)/1e6, r.Spans, r.Coverage*100)
	names := make([]string, 0, len(r.Buckets))
	for name := range r.Buckets {
		names = append(names, name)
	}
	sort.Slice(names, func(i, j int) bool { return r.Buckets[names[i]] > r.Buckets[names[j]] })
	for _, name := range names {
		ns := r.Buckets[name]
		pct := 0.0
		if r.WallNs > 0 {
			pct = float64(ns) / float64(r.WallNs) * 100
		}
		fmt.Fprintf(w, "  %-16s %10.3fms  %5.1f%%\n", name, float64(ns)/1e6, pct)
	}
	if len(r.PlaceNs) > 0 {
		fmt.Fprintf(w, "by place (%d flow receives on path):\n", r.FlowRecvs)
		places := make([]int, 0, len(r.PlaceNs))
		for p := range r.PlaceNs {
			places = append(places, p)
		}
		sort.Slice(places, func(i, j int) bool { return r.PlaceNs[places[i]] > r.PlaceNs[places[j]] })
		for _, p := range places {
			ns := r.PlaceNs[p]
			pct := 0.0
			if r.WallNs > 0 {
				pct = float64(ns) / float64(r.WallNs) * 100
			}
			fmt.Fprintf(w, "  place %-10d %10.3fms  %5.1f%%\n", p, float64(ns)/1e6, pct)
		}
	}
}

// span is one complete trace span plus its resolved children.
type span struct {
	ev   obs.Event
	kids []*span
}

func (s *span) start() int64 { return s.ev.TS }
func (s *span) end() int64   { return s.ev.TS + s.ev.Dur }

// bucketFor maps a span name to its attribution bucket. Uncovered time
// inside the span is charged here.
func bucketFor(name string) string {
	switch {
	case strings.HasPrefix(name, "finish."):
		return BucketFinishControl
	case name == "broadcast":
		return BucketFinishControl
	case name == "glb.steal":
		return BucketSteal
	case name == "glb.lifeline.wait":
		return BucketLifelineWait
	case strings.HasPrefix(name, "team."):
		return BucketCollective
	default:
		// async activity bodies and anything unrecognized count as the
		// user's own compute.
		return BucketUserCompute
	}
}

// CriticalPath reconstructs the finish/activity tree from span parent
// edges and walks the longest dependency chain of the dominant root
// finish, attributing every segment of its wall clock to a bucket.
//
// The walk is a backward sweep: starting from the root's end, it
// repeatedly descends into the latest-ending child overlapping the
// cursor. The gap between that child's end and the cursor is time the
// parent spent after the child completed — charged to the parent's
// bucket, or to transport when a finish was waiting on a child that ran
// at another place (the completion had to travel). Whatever precedes
// the earliest chosen child is the parent's own leading work. The
// result is an exact partition of the root window, so Coverage ≈ 1.
//
// Returns nil when the trace contains no root finish span.
func CriticalPath(events []obs.Event) *CritPathReport {
	byID := make(map[uint64]*span)
	for _, e := range events {
		if e.Ph != 'X' || e.Tid == 0 {
			continue
		}
		if prev, ok := byID[e.Tid]; ok && prev.ev.Dur >= e.Dur {
			continue // duplicate lane id: keep the longer span
		}
		ev := e
		byID[e.Tid] = &span{ev: ev}
	}
	var root *span
	for _, s := range byID {
		if s.ev.Parent != 0 {
			if p, ok := byID[s.ev.Parent]; ok {
				p.kids = append(p.kids, s)
				continue
			}
		}
		// Parentless (or orphaned) span: candidate root if it is a finish.
		if strings.HasPrefix(s.ev.Name, "finish.") {
			if root == nil || s.ev.Dur > root.ev.Dur {
				root = s
			}
		}
	}
	if root == nil || root.ev.Dur <= 0 {
		return nil
	}
	w := &walker{buckets: make(map[string]int64), places: make(map[int]int64), visited: make(map[*span]bool)}
	w.attribute(root, root.start(), root.end())
	// Count the message edges that landed on the walked spans: flow-end
	// ('f') events whose lane is a visited span show where the path was
	// stitched together by cross-place messages.
	visitedTid := make(map[uint64]bool, len(w.visited))
	for s := range w.visited {
		visitedTid[s.ev.Tid] = true
	}
	flowRecvs := 0
	for _, e := range events {
		if e.Ph == 'f' && visitedTid[e.Tid] {
			flowRecvs++
		}
	}
	rep := &CritPathReport{
		Root:      root.ev.Name,
		WallNs:    root.ev.Dur,
		Buckets:   w.buckets,
		Spans:     w.spans,
		PlaceNs:   w.places,
		FlowRecvs: flowRecvs,
	}
	var sum int64
	for _, ns := range w.buckets {
		sum += ns
	}
	rep.Coverage = float64(sum) / float64(rep.WallNs)
	return rep
}

type walker struct {
	buckets map[string]int64
	places  map[int]int64
	visited map[*span]bool
	spans   int
}

// attribute charges the window [lo, hi) of span n to buckets, descending
// into children along the latest-ending-overlap chain.
func (w *walker) attribute(n *span, lo, hi int64) {
	if hi <= lo || w.visited[n] {
		return
	}
	w.visited[n] = true
	w.spans++
	own := bucketFor(n.ev.Name)
	isFinish := own == BucketFinishControl
	kids := n.kids
	sort.Slice(kids, func(i, j int) bool { return kids[i].end() > kids[j].end() })
	cur := hi
	for _, k := range kids {
		if cur <= lo {
			break
		}
		if k.start() >= cur || k.end() <= lo {
			continue // no overlap with the remaining window
		}
		e := k.end()
		if e > cur {
			e = cur
		}
		s := k.start()
		if s < lo {
			s = lo
		}
		if gap := cur - e; gap > 0 {
			b := own
			if isFinish && k.ev.Pid != n.ev.Pid {
				// A finish idling after a remote child finished: the
				// completion credit was in flight.
				b = BucketTransport
			}
			w.buckets[b] += gap
			// Waiting time belongs to the place doing the waiting.
			w.places[n.ev.Pid] += gap
		}
		w.attribute(k, s, e)
		cur = s
	}
	if cur > lo {
		w.buckets[own] += cur - lo
		w.places[n.ev.Pid] += cur - lo
	}
}
