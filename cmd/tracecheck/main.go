// Command tracecheck validates the diagnostic file formats the runtime
// emits:
//
//   - Chrome trace_event JSON, written by the -trace flag of apgas-bench
//     and uts (loadable in chrome://tracing or Perfetto);
//   - flight recorder dumps (JSON Lines headed by
//     {"type":"apgas-flight",...}), written by -flight-dump, the stall
//     watchdog, and failed runs;
//   - with -wire, wire observatory dumps ({"type":"apgas-wire",...})
//     written by apgas-bench -wire-dump or fetched from the /wire debug
//     endpoint, checked for row ordering, compression sanity, and the
//     sum-equality between the ledger and the transport counters;
//   - with -profile, pprof profiles, summarized by the runtime's
//     activity labels and checked against sample and label thresholds.
//
// Trace vs flight dump is auto-detected. Errors name the offending
// location (line for JSONL, event index for traces) and the reason; the
// exit code is nonzero. It backs the `make trace`, `make telemetry`,
// `make dtrace`, `make wire`, and `make profile-smoke` targets.
//
// Usage:
//
//	tracecheck /tmp/apgas-uts-trace.json
//	tracecheck /tmp/apgas-flight.jsonl
//	tracecheck -wire /tmp/apgas-wire.json
//	tracecheck -profile /tmp/apgas-profile.pb.gz
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
)

func main() {
	wireMode := flag.Bool("wire", false,
		"validate a wire observatory dump (apgas-bench -wire-dump or the /wire endpoint)")
	profileMode := flag.Bool("profile", false,
		"validate and summarize a pprof profile by its APGAS activity labels")
	profileKeys := flag.String("profile-keys", "place,pattern,kind",
		"with -profile: comma-separated label keys to partition by")
	minSamples := flag.Int64("min-samples", 0,
		"with -profile: fail unless the profile holds at least this many samples")
	minLabeled := flag.Float64("min-labeled", 0,
		"with -profile: fail unless at least this fraction (0..1) of the profile value is labeled")
	minDistinct := distinctFlag{}
	flag.Var(minDistinct, "min-distinct",
		"with -profile: key=N, fail unless label key has at least N distinct values (repeatable)")
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: tracecheck [-wire | -profile] <trace.json | flight.jsonl | wire.json | profile.pb.gz>")
		os.Exit(2)
	}
	path := flag.Arg(0)
	var (
		summary string
		err     error
	)
	switch {
	case *wireMode:
		summary, err = checkWireFile(path)
	case *profileMode:
		summary, err = checkProfileFile(path, *profileKeys, *minSamples, *minLabeled, minDistinct)
	default:
		summary, err = checkFile(path)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "tracecheck: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(summary)
}

// checkFile validates path as whichever diagnostic format it holds and
// returns a one-line summary.
func checkFile(path string) (string, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return "", err
	}
	if isFlightDump(data) {
		n, err := checkFlightDump(data)
		if err != nil {
			return "", fmt.Errorf("%s: %w", path, err)
		}
		return fmt.Sprintf("tracecheck: %s: flight dump, %d events OK", path, n), nil
	}
	n, err := checkChromeTrace(data)
	if err != nil {
		return "", fmt.Errorf("%s: %w", path, err)
	}
	return fmt.Sprintf("tracecheck: %s: %d events OK", path, n), nil
}

// isFlightDump sniffs the first line for the flight dump header.
func isFlightDump(data []byte) bool {
	line := data
	if i := bytes.IndexByte(data, '\n'); i >= 0 {
		line = data[:i]
	}
	var head struct {
		Type string `json:"type"`
	}
	return json.Unmarshal(line, &head) == nil && head.Type == "apgas-flight"
}

// checkFlightDump validates a flight recorder JSON Lines dump and returns
// the number of events. Errors name the 1-based line and the reason.
func checkFlightDump(data []byte) (int, error) {
	sc := bufio.NewScanner(bytes.NewReader(data))
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	if !sc.Scan() {
		return 0, fmt.Errorf("line 1: empty flight dump")
	}
	var head struct {
		Type     string `json:"type"`
		Version  int    `json:"version"`
		Events   int    `json:"events"`
		Recorded uint64 `json:"recorded"`
		Dropped  uint64 `json:"dropped"`
	}
	if err := json.Unmarshal(sc.Bytes(), &head); err != nil {
		return 0, fmt.Errorf("line 1: bad header: %v", err)
	}
	if head.Type != "apgas-flight" {
		return 0, fmt.Errorf("line 1: header type %q, want \"apgas-flight\"", head.Type)
	}
	if head.Version != 1 {
		return 0, fmt.Errorf("line 1: unsupported flight dump version %d", head.Version)
	}
	if head.Recorded < uint64(head.Events) || head.Dropped != head.Recorded-uint64(head.Events) {
		return 0, fmt.Errorf("line 1: inconsistent header: events=%d recorded=%d dropped=%d",
			head.Events, head.Recorded, head.Dropped)
	}
	var (
		n      int
		lastSq uint64
		lastTS int64
		kills  int
	)
	for line := 2; sc.Scan(); line++ {
		text := strings.TrimSpace(sc.Text())
		if text == "" {
			continue
		}
		var ev struct {
			Seq  uint64           `json:"seq"`
			TS   int64            `json:"ts"`
			Dur  int64            `json:"dur"`
			Ph   string           `json:"ph"`
			Pid  int64            `json:"pid"`
			Name string           `json:"name"`
			Cat  string           `json:"cat"`
			Args map[string]int64 `json:"args"`
		}
		if err := json.Unmarshal([]byte(text), &ev); err != nil {
			return 0, fmt.Errorf("line %d: bad event JSON: %v", line, err)
		}
		if ev.Seq == 0 {
			return 0, fmt.Errorf("line %d: event seq 0 (unwritten slot leaked into dump)", line)
		}
		if n > 0 && ev.Seq <= lastSq {
			return 0, fmt.Errorf("line %d: seq %d not above previous %d (ring order violated)",
				line, ev.Seq, lastSq)
		}
		if ev.TS < 0 {
			return 0, fmt.Errorf("line %d: negative timestamp %d", line, ev.TS)
		}
		if n > 0 && ev.TS < lastTS {
			return 0, fmt.Errorf("line %d: timestamp %d before previous %d (not monotonic)",
				line, ev.TS, lastTS)
		}
		if ev.Ph == "" || ev.Name == "" {
			return 0, fmt.Errorf("line %d: event lacks ph/name", line)
		}
		// Chaos fault-decision records carry replay-critical structure on
		// top of the generic flight shape; a dump that misnames a fault or
		// drops the victim would replay as a different run, so reject it
		// here rather than at replay time.
		if ev.Cat == "chaos" {
			if err := checkChaosEvent(ev.Name, ev.Ph, ev.Dur, ev.Pid, ev.Args, &kills); err != nil {
				return 0, fmt.Errorf("line %d: %v", line, err)
			}
		}
		lastSq, lastTS = ev.Seq, ev.TS
		n++
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	if n != head.Events {
		return 0, fmt.Errorf("header says %d events, body has %d", head.Events, n)
	}
	return n, nil
}

// chaosFaultNames are the fault-decision record names internal/chaos
// emits (FaultKind.String()); main_test.go pins this list against the
// package so the two cannot drift.
var chaosFaultNames = map[string]bool{
	"chaos.delay":     true,
	"chaos.reorder":   true,
	"chaos.dup":       true,
	"chaos.drop":      true,
	"chaos.partition": true,
	"chaos.slow":      true,
	"chaos.hold":      true,
	"chaos.kill":      true,
}

// checkChaosEvent validates one cat="chaos" fault-decision record. The
// contract comes from chaos.Log.WriteDump: an instant event with zero
// duration, a known fault name, a source place as pid, and args naming
// dst/id/param. A kill additionally marks the victim in both dst and
// param, and a run kills at most once (the chaos transport freezes
// after its single KillPlan fires).
func checkChaosEvent(name, ph string, dur, pid int64, args map[string]int64, kills *int) error {
	if !chaosFaultNames[name] {
		return fmt.Errorf("unknown chaos fault %q", name)
	}
	if ph != "i" || dur != 0 {
		return fmt.Errorf("chaos record %s must be an instant event (ph=%q dur=%d)", name, ph, dur)
	}
	if pid < 0 {
		return fmt.Errorf("chaos record %s: negative source place %d", name, pid)
	}
	for _, key := range []string{"dst", "id", "param"} {
		if _, ok := args[key]; !ok {
			return fmt.Errorf("chaos record %s lacks args.%s", name, key)
		}
	}
	if args["dst"] < 0 || args["id"] < 0 {
		return fmt.Errorf("chaos record %s: negative dst/id (%d/%d)", name, args["dst"], args["id"])
	}
	if name == "chaos.kill" {
		if args["param"] != args["dst"] {
			return fmt.Errorf("chaos.kill names victim %d in param but destination %d (trigger must die with its destination)",
				args["param"], args["dst"])
		}
		if *kills++; *kills > 1 {
			return fmt.Errorf("second chaos.kill record (a chaos run freezes after one kill)")
		}
	}
	return nil
}

// chromeEvent is the subset of a trace_event record the validator
// inspects.
type chromeEvent struct {
	Name string  `json:"name"`
	Cat  string  `json:"cat"`
	Ph   string  `json:"ph"`
	TS   float64 `json:"ts"`
	Pid  int64   `json:"pid"`
	Tid  uint64  `json:"tid"`
	ID   uint64  `json:"id"`
	BP   string  `json:"bp"`
}

// flowEnd is one side of a flow pairing check.
type flowSide struct {
	index int
	name  string
	cat   string
	ts    float64
}

// checkChromeTrace validates a Chrome trace_event JSON document —
// including merged distributed traces — and returns the number of
// events. Beyond basic shape, it enforces the flow-event contract the
// trace merger guarantees:
//
//   - every flow-begin ('s') has at least one flow-end ('f') with the
//     same id, name, and cat (Chrome binds arrows by all three), and
//     every 'f' has exactly one originating 's';
//   - no flow arrow goes backwards: each 'f' timestamp is at or after
//     its 's' (duplicate deliveries share the send's flow id, so
//     multiple 'f' per 's' are legal; multiple 's' per id are not);
//   - per-track ((pid, tid) lane) timestamps are non-decreasing in
//     file order, so the merged timeline renders without reshuffling.
//
// Metadata events (ph "M") carry no timestamp semantics and are
// skipped by the ordering checks.
func checkChromeTrace(data []byte) (int, error) {
	var doc struct {
		TraceEvents []chromeEvent `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		return 0, fmt.Errorf("invalid JSON: %v", err)
	}
	if len(doc.TraceEvents) == 0 {
		return 0, fmt.Errorf("no trace events")
	}
	type track struct {
		pid int64
		tid uint64
	}
	lastTS := make(map[track]float64)
	sends := make(map[uint64]flowSide)
	var ends []chromeEvent
	endIdx := make(map[int]int) // event index for error messages
	for i, ev := range doc.TraceEvents {
		if ev.Name == "" || ev.Ph == "" {
			return 0, fmt.Errorf("event %d lacks name/ph", i)
		}
		if ev.Ph == "M" {
			continue
		}
		if ev.TS < 0 {
			return 0, fmt.Errorf("event %d (%s): negative timestamp %v", i, ev.Name, ev.TS)
		}
		tk := track{ev.Pid, ev.Tid}
		if prev, ok := lastTS[tk]; ok && ev.TS < prev {
			return 0, fmt.Errorf("event %d (%s): pid %d tid %d timestamp %v before previous %v (track not monotone)",
				i, ev.Name, ev.Pid, ev.Tid, ev.TS, prev)
		}
		lastTS[tk] = ev.TS
		switch ev.Ph {
		case "s":
			if ev.ID == 0 {
				return 0, fmt.Errorf("event %d (%s): flow-begin with id 0", i, ev.Name)
			}
			if prev, dup := sends[ev.ID]; dup {
				return 0, fmt.Errorf("event %d (%s): flow id %d already begun at event %d",
					i, ev.Name, ev.ID, prev.index)
			}
			sends[ev.ID] = flowSide{index: i, name: ev.Name, cat: ev.Cat, ts: ev.TS}
		case "f":
			if ev.ID == 0 {
				return 0, fmt.Errorf("event %d (%s): flow-end with id 0", i, ev.Name)
			}
			if ev.BP != "e" {
				return 0, fmt.Errorf("event %d (%s): flow-end lacks bp=\"e\"", i, ev.Name)
			}
			endIdx[len(ends)] = i
			ends = append(ends, ev)
		}
	}
	matched := make(map[uint64]bool)
	for j, ev := range ends {
		s, ok := sends[ev.ID]
		if !ok {
			return 0, fmt.Errorf("event %d (%s): flow-end id %d has no flow-begin", endIdx[j], ev.Name, ev.ID)
		}
		if s.name != ev.Name || s.cat != ev.Cat {
			return 0, fmt.Errorf("event %d: flow id %d bound as %s/%s at begin but %s/%s at end (Chrome will not draw it)",
				endIdx[j], ev.ID, s.name, s.cat, ev.Name, ev.Cat)
		}
		if ev.TS < s.ts {
			return 0, fmt.Errorf("event %d (%s): flow id %d ends at %v before its begin at %v (arrow goes backwards)",
				endIdx[j], ev.Name, ev.ID, ev.TS, s.ts)
		}
		matched[ev.ID] = true
	}
	for id, s := range sends {
		if !matched[id] {
			return 0, fmt.Errorf("event %d (%s): flow-begin id %d has no flow-end", s.index, s.name, id)
		}
	}
	return len(doc.TraceEvents), nil
}
