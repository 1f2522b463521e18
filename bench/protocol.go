package main

import (
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"time"

	"apgas/internal/x10rt"
)

// An instance is one set-up of a workload: the runtime or mesh is
// built, the inputs are generated from the seed and the reference
// answer is known. One solve is run followed by verify; the two are
// separate calls so the protocol can time and trace them apart.
type instance interface {
	// run performs one solve through the program and keeps its result.
	// timed is the solve's timed section: what the program itself reports
	// as its time (the kernels' Result.Seconds, which leave out their own
	// input generation and in-call verification), else the wall time of
	// the call.
	run() (timed time.Duration, err error)
	// verify checks the kept result against the reference and returns
	// the number of verified work units.
	verify() (work float64, err error)
	// baseline runs the same problem once as Class-1 code — no places,
	// no finish, no transport — and returns work units per second.
	baseline() float64
	// stats sums the egress traffic counters of the instance's
	// transport endpoints.
	stats() x10rt.Stats
	// ledger is the instance's wire ledger, nil unless it was set up
	// traced.
	ledger() *x10rt.WireLedger
	close()
}

type workload struct {
	name string
	// places is the workload's place count; the layer probes of a
	// traced run use the same count.
	places int
	// workUnit names what work_per_s counts.
	workUnit string
	// setup builds an instance. With traced set, obs.Global() is a
	// tracing Obs and the instance also turns the wire ledger on.
	setup func(seed uint64, traced bool) (instance, error)
}

// Protocol constants (see README.md, "Protocol").
const (
	setupReps      = 3   // set-ups per run; setup_s is their median
	warmupSolves   = 2   // untimed solves at the end of each set-up
	class1Share    = 0.2 // Class-1 passes interleaved with the window, as a share of its length
	rssAtSolve     = 30  // peak_rss_mb is VmHWM when this window solve is verified
	minWindowCount = 30  // a window with fewer solves is reported on stderr
)

// solveSample is one window solve.
type solveSample struct {
	timedNs  int64 // the solve's timed section (instance.run)
	runNs    int64 // wall time of the run call
	verifyNs int64 // wall time of the verify call
	work     float64
	err      error
}

// window is the closed loop: one solve at a time on inst until the
// solves have taken d. after, when non-nil, is called after every solve
// with the solve and the number completed so far; returning true ends
// the window early.
//
// With class1 non-nil the loop also runs the Class-1 baseline, one pass
// at a time between solves, so that the passes take class1Share of the
// window's length in all. Interleaving them — rather than running them
// before and after — exposes both to the same stretches of a slow
// machine, which is what lets class1_ratio cancel machine speed. Their
// time is not part of elapsed.
func window(inst instance, d time.Duration, class1 *[]float64, after func(s solveSample, solved int) (stop bool)) (samples []solveSample, elapsed time.Duration) {
	var class1Wall time.Duration
	for elapsed < d {
		t0 := time.Now()
		s := solveOnce(inst)
		samples = append(samples, s)
		elapsed += time.Since(t0)
		if after != nil && after(s, len(samples)) {
			break
		}
		if class1 != nil && float64(class1Wall) < class1Share*float64(elapsed) {
			t0 = time.Now()
			*class1 = append(*class1, inst.baseline())
			class1Wall += time.Since(t0)
		}
	}
	return samples, elapsed
}

// harmonicMean of per-pass rates is total work over total time when
// every pass does the same work.
func harmonicMean(rates []float64) float64 {
	var inv float64
	for _, r := range rates {
		inv += 1 / r
	}
	return float64(len(rates)) / inv
}

func solveOnce(inst instance) solveSample {
	var s solveSample
	t0 := time.Now()
	timed, err := inst.run()
	t1 := time.Now()
	s.timedNs, s.runNs, s.err = int64(timed), int64(t1.Sub(t0)), err
	if s.err == nil {
		s.work, s.err = inst.verify()
		s.verifyNs = int64(time.Since(t1))
	}
	if s.err != nil {
		s.work = 0 // a failed solve contributes no work
	}
	// Collect between solves so that every solve starts from a swept
	// heap: where a background collection happens to fall otherwise
	// moves a 25 ms timed section by a third. The collection is inside
	// the window, so work_per_s pays for it.
	runtime.GC()
	return s
}

// setUp builds an instance and runs the warm-up solves; a warm-up that
// fails to verify is an error, not a sample.
func setUp(w *workload, seed uint64, traced bool) (instance, error) {
	inst, err := w.setup(seed, traced)
	if err != nil {
		return nil, err
	}
	for i := 0; i < warmupSolves; i++ {
		if s := solveOnce(inst); s.err != nil {
			inst.close()
			return nil, fmt.Errorf("warm-up solve %d: %w", i, s.err)
		}
	}
	return inst, nil
}

// result is what one run reports.
type result struct {
	Env       envInfo            `json:"env"`
	Workload  string             `json:"workload"`
	Trace     bool               `json:"trace"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Metrics   map[string]float64 `json:"metrics"`
}

// count books samples into the run's attempted and failed totals and
// returns the verified ones. A solve that errored or failed to verify
// is a failure, never a sample.
func (res *result) count(samples []solveSample) (verified []solveSample) {
	for _, s := range samples {
		res.Attempted++
		if s.err != nil {
			res.Failed++
			fmt.Fprintf(os.Stderr, "solve failed: %v\n", s.err)
			continue
		}
		verified = append(verified, s)
	}
	return verified
}

// runEndToEnd is the untraced run: set-up three times, then the window
// with the Class-1 baseline interleaved, then the five end-to-end
// metrics.
func runEndToEnd(w *workload, seed uint64, seconds float64) (*result, error) {
	var inst instance
	var setupS []float64
	goroutines := runtime.NumGoroutine()
	for i := 0; i < setupReps; i++ {
		if inst != nil {
			// Give the discarded instance's memory back before building
			// the next, so that every set-up starts like the first and
			// the resident high-water mark is one instance's. Transports
			// close without waiting for their reader and dispatcher
			// goroutines, which keep the instance reachable until they
			// exit; without the wait peak_rss_mb on wire-small took one
			// of three values, for one, two or three instances alive.
			inst.close()
			inst = nil
			for wait := time.Now(); runtime.NumGoroutine() > goroutines && time.Since(wait) < time.Second; {
				time.Sleep(time.Millisecond)
			}
			debug.FreeOSMemory()
		}
		t0 := time.Now()
		var err error
		if inst, err = setUp(w, seed, false); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setupS = append(setupS, time.Since(t0).Seconds())
	}
	defer inst.close()

	var class1 []float64
	rss := 0.0
	samples, elapsed := window(inst, time.Duration(seconds*float64(time.Second)), &class1, func(_ solveSample, solved int) bool {
		if solved == rssAtSolve {
			rss = peakRSSMB()
		}
		return false
	})
	if rss == 0 {
		rss = peakRSSMB()
	}

	res := &result{Workload: w.name, Metrics: map[string]float64{}}
	var solveS []float64
	var work float64
	for _, s := range res.count(samples) {
		solveS = append(solveS, float64(s.timedNs)/1e9)
		work += s.work
	}
	if len(solveS) == 0 {
		return res, fmt.Errorf("no solve verified")
	}
	if len(samples) < minWindowCount {
		fmt.Fprintf(os.Stderr, "warning: window held %d solves, protocol wants >= %d\n", len(samples), minWindowCount)
	}
	workPerS := work / elapsed.Seconds()
	res.Metrics["setup_s"] = median(setupS)
	res.Metrics["solve_s"] = median(solveS)
	res.Metrics["work_per_s"] = workPerS
	res.Metrics["class1_ratio"] = workPerS / harmonicMean(class1)
	res.Metrics["peak_rss_mb"] = rss
	fmt.Printf("solves_attempted=%d solves_failed=%d solve_s_samples=%d window_s=%.3f work_unit=%s class1_samples=%d class1_per_s=%.6g\n",
		res.Attempted, res.Failed, len(solveS), elapsed.Seconds(), w.workUnit, len(class1), harmonicMean(class1))
	return res, nil
}

// peakRSSMB reads the process's resident-set high-water mark.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) > 0 {
				kb, _ := strconv.ParseFloat(f[0], 64)
				return kb / 1024
			}
		}
	}
	return 0
}

// quantile returns the q-quantile of v by linear interpolation between
// order statistics; 0 for an empty slice.
func quantile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(v []float64) float64 { return quantile(v, 0.5) }

// envInfo is the machine shape a result was recorded on.
type envInfo struct {
	NProc      int     `json:"nproc"`
	GoMaxProcs int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	CPUModel   string  `json:"cpu_model"`
	Seed       uint64  `json:"seed"`
	RunSeconds float64 `json:"run_seconds"`
	Commit     string  `json:"commit"`
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if strings.HasPrefix(line, "model name") {
			if _, v, ok := strings.Cut(line, ":"); ok {
				return strings.TrimSpace(v)
			}
		}
	}
	return "unknown"
}

// applyProtocolProcs pins GOMAXPROCS to min(nproc, 4) and returns the
// machine shape.
func applyProtocolProcs() (nproc, procs int) {
	nproc = runtime.NumCPU()
	procs = nproc
	if procs > 4 {
		procs = 4
	}
	runtime.GOMAXPROCS(procs)
	return nproc, procs
}
