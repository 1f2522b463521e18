package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"
	"time"

	"apgas/internal/core"
)

// TestSpecMatchesBenchmarkJSON holds BENCHMARK.json and the program to
// the same workloads and metrics: names, units, directions, bounds.
func TestSpecMatchesBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var file benchmarkJSON
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&file); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	if want := declaredSpec(); !reflect.DeepEqual(file, want) {
		t.Errorf("BENCHMARK.json differs from the program's declaration; regenerate it with `bash bench/run.sh -spec`\nfile:    %+v\nprogram: %+v", file, want)
	}
	if len(workloads) != len(workloadSpecs) {
		t.Fatalf("%d workloads implemented, %d declared", len(workloads), len(workloadSpecs))
	}
	for i, w := range workloads {
		if w.name != workloadSpecs[i].Name {
			t.Errorf("workload %d is %q in the program and %q in the declaration", i, w.name, workloadSpecs[i].Name)
		}
	}
}

// TestSpecWithinContract checks the limits the driver refuses a
// benchmark for.
func TestSpecWithinContract(t *testing.T) {
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(n string) {
		if !name.MatchString(n) {
			t.Errorf("name %q is outside the contract's alphabet or length", n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	for _, w := range workloadSpecs {
		check(w.Name)
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	setup := false
	for _, m := range endToEnd {
		check(m.Name)
		if !unit.MatchString(m.Unit) {
			t.Errorf("metric %s: unit %q", m.Name, m.Unit)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("metric %s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		setup = setup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == lower)
	}
	if !setup {
		t.Error("end-to-end metrics lack setup_s in s, lower is better")
	}
	if len(perLayer) < 1 || len(perLayer) > 128 {
		t.Errorf("%d per-layer metrics, contract allows 1 to 128", len(perLayer))
	}
	for _, m := range perLayer {
		check(m.Name)
		if !unit.MatchString(m.Unit) {
			t.Errorf("metric %s: unit %q", m.Name, m.Unit)
		}
		if m.Bound != 0 {
			t.Errorf("per-layer metric %s has a bound", m.Name)
		}
	}
	if len(workloadSpecs) < 2 || len(workloadSpecs) > 8 || runSeconds < 1 || runSeconds > 60 {
		t.Errorf("%d workloads, run_seconds %d", len(workloadSpecs), runSeconds)
	}
}

// TestWorkloadsRunAndVerify runs every workload's protocol for a short
// window: set-up with warm-ups, then the closed loop, every solve
// verified.
func TestWorkloadsRunAndVerify(t *testing.T) {
	d := 3 * time.Second
	if testing.Short() {
		d = time.Second
	}
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			inst, err := setUp(w, 1, false)
			if err != nil {
				t.Fatal(err)
			}
			defer inst.close()
			samples, _ := window(inst, d, nil, nil)
			var res result
			verified := res.count(samples)
			if res.Failed != 0 || len(verified) == 0 {
				t.Fatalf("%d solves attempted, %d failed", res.Attempted, res.Failed)
			}
			for _, s := range verified {
				if s.work <= 0 || s.timedNs <= 0 {
					t.Fatalf("verified solve reports work %v in %v ns", s.work, s.timedNs)
				}
			}
			if r := inst.baseline(); !(r > 0) {
				t.Errorf("Class-1 rate %v", r)
			}
		})
	}
}

// corrupt damages the result an instance kept from its last solve, the
// way a wrong answer from the program would look.
func corrupt(t *testing.T, inst instance) {
	switch in := inst.(type) {
	case *utsInstance:
		in.last.Nodes++
	case *kmeansInstance:
		in.last.Centroids[7] += 1e-3 // one centroid coordinate
	case *fftInstance:
		in.last.MaxErr = 1
	case *raInstance:
		in.last.Errors = in.last.TableWords/100 + 1 // just past HPCC's 1%
	case *finishInstance:
		in.last[core.PatternSPMD][1]-- // one activity never completed
	case *wireSmallInstance:
		in.tcp.ep[0].round.Load().got ^= 1 // one bit of a sequence checksum
	case *wireLargeInstance:
		in.ep[1].arena[3*largeBytes+12345] ^= 0x40 // one bit of a landed put
	default:
		t.Fatalf("no corruption for %T", inst)
	}
}

// TestCorruptedResultCountsAsFailed: a wrong result is a failed solve
// that contributes no work, not a sample.
func TestCorruptedResultCountsAsFailed(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			inst, err := w.setup(1, false)
			if err != nil {
				t.Fatal(err)
			}
			defer inst.close()
			good := solveOnce(inst)
			if good.err != nil {
				t.Fatal(good.err)
			}
			var bad solveSample
			if _, bad.err = inst.run(); bad.err != nil {
				t.Fatal(bad.err)
			}
			corrupt(t, inst)
			bad.work, bad.err = inst.verify()
			if bad.err == nil {
				t.Fatal("verify accepted a corrupted result")
			}
			var res result
			verified := res.count([]solveSample{good, bad})
			if res.Attempted != 2 || res.Failed != 1 || len(verified) != 1 || bad.work != 0 {
				t.Errorf("attempted %d failed %d verified %d, failed solve's work %v", res.Attempted, res.Failed, len(verified), bad.work)
			}
		})
	}
}

// fingerprint summarises the input an instance generated from its seed.
func fingerprint(t *testing.T, inst instance) string {
	switch in := inst.(type) {
	case *utsInstance:
		return fmt.Sprint(in.tree)
	case *kmeansInstance:
		return fmt.Sprint(in.cfg.Seed, in.wantCent[:4])
	case *fftInstance:
		return fmt.Sprint(in.cfg.Seed)
	case *finishInstance:
		return fmt.Sprint(in.order, in.targets)
	case *wireSmallInstance:
		return fmt.Sprint(in.tcp.ep[0].want, in.tcp.ep[1].want)
	case *wireLargeInstance:
		return fmt.Sprint(in.ep[0].want, in.ep[1].want)
	}
	t.Fatalf("no fingerprint for %T", inst)
	return ""
}

// TestSeedChangesInput: the same seed gives the same input, another
// seed another, for every workload that has a seed (ra has none: the
// HPCC update stream is fixed).
func TestSeedChangesInput(t *testing.T) {
	for _, w := range workloads {
		if w.name == "ra" {
			continue
		}
		t.Run(w.name, func(t *testing.T) {
			var prints []string
			for _, seed := range []uint64{1, 1, 2} {
				inst, err := w.setup(seed, false)
				if err != nil {
					t.Fatal(err)
				}
				prints = append(prints, fingerprint(t, inst))
				inst.close()
			}
			if prints[0] != prints[1] {
				t.Errorf("seed 1 gave two different inputs")
			}
			if prints[0] == prints[2] {
				t.Errorf("seeds 1 and 2 gave the same input %s", prints[0])
			}
		})
	}
}

// TestUTSRootsAreSizeMatched recounts a few of the table's trees.
func TestUTSRootsAreSizeMatched(t *testing.T) {
	step := 1
	if testing.Short() {
		step = len(utsRoots) / 3
	}
	for i := 0; i < len(utsRoots); i += step {
		n, _ := utsTree(uint64(i)).CountSequential()
		if n < utsNodesLow || n > utsNodesHigh {
			t.Errorf("root seed %d: %d nodes, outside [%d, %d]", utsRoots[i], n, utsNodesLow, utsNodesHigh)
		}
	}
}

// TestTracedRun: the traced run reports every declared per-layer
// metric, a budget that covers the solve, the layer separation the
// workloads were chosen for, and a Chrome trace that parses.
func TestTracedRun(t *testing.T) {
	for _, name := range []string{"uts", "wire-small"} {
		t.Run(name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "trace.json")
			res, err := runTraced(findWorkload(name), 1, 3, path)
			if err != nil {
				t.Fatal(err)
			}
			if res.Failed != 0 {
				t.Errorf("%d of %d solves failed", res.Failed, res.Attempted)
			}
			for _, m := range perLayer {
				if _, ok := res.Metrics[m.Name]; !ok {
					t.Errorf("per-layer metric %s missing", m.Name)
				}
			}
			m := res.Metrics
			if m["collectives.ops"] != 0 {
				t.Errorf("collectives.ops = %v, want 0", m["collectives.ops"])
			}
			if name == "uts" {
				if m["glb.steal_attempts"] <= 0 || m["bench.budget_coverage"] < 0.9 || m["x10rt.encode_ns_per_msg"] != 0 {
					t.Errorf("uts: steal attempts %v, budget coverage %v, encode ns %v",
						m["glb.steal_attempts"], m["bench.budget_coverage"], m["x10rt.encode_ns_per_msg"])
				}
			} else if m["glb.steal_attempts"] != 0 || m["x10rt.encode_ns_per_msg"] <= 0 || m["x10rt.msgs_per_frame"] <= 1 {
				t.Errorf("wire-small: steal attempts %v, encode ns %v, msgs per frame %v",
					m["glb.steal_attempts"], m["x10rt.encode_ns_per_msg"], m["x10rt.msgs_per_frame"])
			}
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			var doc struct {
				TraceEvents []map[string]any `json:"traceEvents"`
			}
			if err := json.Unmarshal(data, &doc); err != nil || len(doc.TraceEvents) == 0 {
				t.Errorf("trace does not load: %v, %d events", err, len(doc.TraceEvents))
			}
		})
	}
}

// TestCompare: quartiles are Python's statistics.quantiles(n=4), a
// stable pair of sets passes, a worsened one fails, and result files
// from different machine shapes are refused.
func TestCompare(t *testing.T) {
	q1, q2, q3 := quartiles([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles of 1..10 = %v %v %v, Python gives 2.75 5.5 8.25", q1, q2, q3)
	}
	dir := t.TempDir()
	write := func(file string, nproc int, scale float64) string {
		path := filepath.Join(dir, file)
		for _, w := range workloadSpecs {
			for i := 0; i < 4; i++ {
				r := &result{Env: envInfo{NProc: nproc, GoMaxProcs: nproc}, Workload: w.Name, Metrics: map[string]float64{}}
				for _, m := range endToEnd {
					r.Metrics[m.Name] = 1 + 0.001*float64(i)
				}
				r.Metrics["solve_s"] *= scale
				if err := appendResult(path, r); err != nil {
					t.Fatal(err)
				}
			}
		}
		return path
	}
	a, same, slower, other := write("a", 2, 1), write("same", 2, 1), write("slower", 2, 1.2), write("other", 4, 1)
	var out bytes.Buffer
	if err := compareSets(&out, []string{a, same}); err != nil {
		t.Errorf("identical sets: %v", err)
	}
	if err := compareSets(&out, []string{a, slower}); err == nil {
		t.Error("a 20% slower solve_s passed a 10% bound")
	}
	if err := compareSets(&out, []string{a, other}); err == nil || !strings.Contains(err.Error(), "machine shapes") {
		t.Errorf("comparison across nproc 2 and 4: %v", err)
	}
}
