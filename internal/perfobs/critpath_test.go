package perfobs

import (
	"strings"
	"testing"

	"apgas/internal/harness"
	"apgas/internal/obs"
)

// span is a test helper building a complete ('X') event.
func mkSpan(name string, pid int, tid, parent uint64, start, end int64) obs.Event {
	return obs.Event{Name: name, Cat: "t", Ph: 'X', TS: start, Dur: end - start,
		Pid: pid, Tid: tid, Parent: parent, Edge: obs.EdgeChild}
}

// TestCriticalPathBuckets checks the full attribution of a hand-built
// finish tree:
//
//	finish.default [0,1000) at place 0
//	└── async [100,800) at place 1 (remote)
//	    └── glb.steal [300,400)
//
// Walking backward from 1000: the 200ns after the remote child ended is
// transport (completion credit in flight); inside the async, 400ns after
// the steal plus 200ns before it are user compute and the steal itself
// is 100ns; the leading 100ns before the async spawned is finish
// control. The partition is exact, so coverage is 1.
func TestCriticalPathBuckets(t *testing.T) {
	events := []obs.Event{
		mkSpan("finish.default", 0, 1, 0, 0, 1000),
		mkSpan("async", 1, 2, 1, 100, 800),
		mkSpan("glb.steal", 1, 3, 2, 300, 400),
		{Name: "finish.ctl", Cat: "finish", Ph: 'i', TS: 950, Pid: 0, Edge: obs.EdgeCredit},
	}
	rep := CriticalPath(events)
	if rep == nil {
		t.Fatal("no report")
	}
	if rep.Root != "finish.default" || rep.WallNs != 1000 {
		t.Fatalf("root: %+v", rep)
	}
	want := map[string]int64{
		BucketTransport:     200,
		BucketUserCompute:   600,
		BucketSteal:         100,
		BucketFinishControl: 100,
	}
	for b, ns := range want {
		if rep.Buckets[b] != ns {
			t.Errorf("bucket %s = %d, want %d (all: %v)", b, rep.Buckets[b], ns, rep.Buckets)
		}
	}
	if rep.Coverage < 0.999 || rep.Coverage > 1.001 {
		t.Errorf("coverage = %v, want 1.0", rep.Coverage)
	}
	if rep.Spans != 3 {
		t.Errorf("spans = %d, want 3", rep.Spans)
	}
}

// TestCriticalPathLocalChildGapIsFinishControl: when the finish's child
// ran at the same place, the tail after it is finish control, not
// transport.
func TestCriticalPathLocalChildGap(t *testing.T) {
	events := []obs.Event{
		mkSpan("finish.spmd", 0, 1, 0, 0, 1000),
		mkSpan("async", 0, 2, 1, 0, 900),
	}
	rep := CriticalPath(events)
	if rep == nil {
		t.Fatal("no report")
	}
	if rep.Buckets[BucketFinishControl] != 100 {
		t.Errorf("finish-control = %d, want 100 (%v)", rep.Buckets[BucketFinishControl], rep.Buckets)
	}
	if rep.Buckets[BucketTransport] != 0 {
		t.Errorf("transport = %d, want 0", rep.Buckets[BucketTransport])
	}
}

// TestCriticalPathPicksLongestRoot: with two parentless finishes the
// walk starts from the longer one.
func TestCriticalPathPicksLongestRoot(t *testing.T) {
	events := []obs.Event{
		mkSpan("finish.here", 0, 1, 0, 0, 100),
		mkSpan("finish.dense", 0, 2, 0, 200, 5200),
	}
	rep := CriticalPath(events)
	if rep == nil || rep.Root != "finish.dense" {
		t.Fatalf("root: %+v", rep)
	}
}

// TestCriticalPathOverlappingChildren: children overlapping each other
// and the parent's window clamp instead of double counting.
func TestCriticalPathOverlappingChildren(t *testing.T) {
	events := []obs.Event{
		mkSpan("finish.default", 0, 1, 0, 0, 1000),
		mkSpan("async", 0, 2, 1, 0, 700),
		mkSpan("async", 0, 3, 1, 500, 1000),
	}
	rep := CriticalPath(events)
	if rep == nil {
		t.Fatal("no report")
	}
	var sum int64
	for _, ns := range rep.Buckets {
		sum += ns
	}
	if sum != rep.WallNs {
		t.Fatalf("partition not exact: sum %d, wall %d (%v)", sum, rep.WallNs, rep.Buckets)
	}
	// Both asyncs are fully on the path: [500,1000) from tid 3, [0,500)
	// from tid 2 (clamped).
	if rep.Buckets[BucketUserCompute] != 1000 {
		t.Errorf("user-compute = %d, want 1000 (%v)", rep.Buckets[BucketUserCompute], rep.Buckets)
	}
}

func TestCriticalPathLifelineAndCollective(t *testing.T) {
	events := []obs.Event{
		mkSpan("finish.dense", 0, 1, 0, 0, 1000),
		mkSpan("glb.lifeline.wait", 1, 2, 1, 600, 900),
		mkSpan("team.allreduce", 0, 3, 1, 100, 400),
	}
	rep := CriticalPath(events)
	if rep == nil {
		t.Fatal("no report")
	}
	if rep.Buckets[BucketLifelineWait] != 300 {
		t.Errorf("lifeline-wait = %d, want 300 (%v)", rep.Buckets[BucketLifelineWait], rep.Buckets)
	}
	if rep.Buckets[BucketCollective] != 300 {
		t.Errorf("collective = %d, want 300 (%v)", rep.Buckets[BucketCollective], rep.Buckets)
	}
}

func TestCriticalPathNoRoot(t *testing.T) {
	if rep := CriticalPath(nil); rep != nil {
		t.Fatalf("empty trace: %+v", rep)
	}
	events := []obs.Event{mkSpan("async", 0, 1, 0, 0, 100)}
	if rep := CriticalPath(events); rep != nil {
		t.Fatalf("no finish root: %+v", rep)
	}
}

// TestCriticalPathSPMDBroadcast walks the trace of a real run: the SPMD
// broadcast sweep at tiny scale, whose bodies are empty, so its path is
// rooted at a finish, made of finish control, and fully covered.
func TestCriticalPathSPMDBroadcast(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real runtimes")
	}
	o := obs.NewTracing()
	prev := obs.Global()
	obs.SetGlobal(o) // the harness builds its runtimes over the global layer
	defer obs.SetGlobal(prev)
	if _, err := harness.SPMDBroadcastSeries(harness.Tiny); err != nil {
		t.Fatal(err)
	}
	cp := CriticalPath(o.Trace.Events())
	if cp == nil {
		t.Fatal("no critical path")
	}
	if !strings.HasPrefix(cp.Root, "finish.") {
		t.Errorf("root %q, want a finish span", cp.Root)
	}
	if cp.Buckets[BucketFinishControl] <= 0 {
		t.Errorf("finish-control bucket = %d, want > 0 (%v)", cp.Buckets[BucketFinishControl], cp.Buckets)
	}
	if cp.Coverage < 0.9 {
		t.Errorf("coverage = %v, want >= 0.9", cp.Coverage)
	}
}

func TestCritPathReportWriteText(t *testing.T) {
	rep := &CritPathReport{
		Root: "finish.default", WallNs: 1000, Coverage: 1, Spans: 2,
		Buckets: map[string]int64{BucketUserCompute: 800, BucketFinishControl: 200},
	}
	var sb strings.Builder
	rep.WriteText(&sb)
	out := sb.String()
	for _, want := range []string{"finish.default", "user-compute", "finish-control", "80.0%"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in:\n%s", want, out)
		}
	}
	var nilRep *CritPathReport
	sb.Reset()
	nilRep.WriteText(&sb)
	if !strings.Contains(sb.String(), "no trace") {
		t.Errorf("nil report: %q", sb.String())
	}
}
