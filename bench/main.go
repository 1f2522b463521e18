// Command bench is the repository's benchmark: it runs one named
// workload for a fixed window from a seed, verifies every solve, and
// prints every declared metric by name and unit. See README.md.
//
//	bash bench/run.sh --workload uts --seed 1 --seconds 10 --trace 0
//
// With --trace 0 it measures the end-to-end metrics with observability
// off; with --trace 1 it measures the per-layer metrics from a traced
// window, counter deltas and layer probes, and writes a Chrome trace.
// The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": 62, "failed": 0, "metrics": {"solve_s": {"value": 0.1612, "unit": "s"}, …}}
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
)

var workloads = []*workload{
	{name: "uts", places: utsPlaces, workUnit: "nodes", setup: setupUTS},
	{name: "kmeans", places: kmeansPlaces, workUnit: "point-iterations", setup: setupKMeans},
	{name: "fft", places: fftPlaces, workUnit: "flops", setup: setupFFT},
	{name: "ra", places: raPlaces, workUnit: "updates", setup: setupRA},
	{name: "finish", places: finishPlaces, workUnit: "finishes+broadcasts", setup: setupFinish},
	{name: "wire-small", places: wirePlaces, workUnit: "messages", setup: setupWireSmall},
	{name: "wire-large", places: wirePlaces, workUnit: "payload-bytes", setup: setupWireLarge},
}

func findWorkload(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

func main() {
	var (
		name     = flag.String("workload", "", "workload to run: uts, kmeans, fft, ra, finish, wire-small, wire-large")
		seed     = flag.Uint64("seed", 1, "seed the workload's inputs are generated from")
		seconds  = flag.Float64("seconds", runSeconds, "length of the measurement window")
		trace    = flag.Int("trace", 0, "0: end-to-end metrics, observability off; 1: per-layer metrics from a traced run")
		traceOut = flag.String("trace-out", "", "Chrome trace file of a traced run (default .bench_build/trace-<workload>.json)")
		out      = flag.String("out", "", "append the run's result to this file as one JSON line")
		compare  = flag.Bool("compare", false, "compare the result files named as arguments, one file per set of runs")
		spec     = flag.Bool("spec", false, "print the declaration BENCHMARK.json must match and exit")
	)
	flag.Parse()

	switch {
	case *spec:
		data, err := json.MarshalIndent(declaredSpec(), "", "  ")
		if err != nil {
			fatal(err)
		}
		fmt.Println(string(data))
		return
	case *compare:
		if err := compareSets(os.Stdout, flag.Args()); err != nil {
			fatal(err)
		}
		return
	}

	w := findWorkload(*name)
	if w == nil {
		fatal(fmt.Errorf("unknown workload %q", *name))
	}
	nproc, procs := applyProtocolProcs()
	env := envInfo{
		NProc:      nproc,
		GoMaxProcs: procs,
		GoVersion:  runtime.Version(),
		CPUModel:   cpuModel(),
		Seed:       *seed,
		RunSeconds: *seconds,
		Commit:     commit(),
	}
	fmt.Printf("env: nproc=%d gomaxprocs=%d go=%s cpu=%q seed=%d run_seconds=%g commit=%s workload=%s trace=%d\n",
		env.NProc, env.GoMaxProcs, env.GoVersion, env.CPUModel, env.Seed, env.RunSeconds, env.Commit, w.name, *trace)
	if w.places == wirePlaces {
		fmt.Println("note: TCP traffic crosses the loopback interface only")
	}

	var res *result
	var err error
	var declared []metricSpec
	if *trace == 0 {
		declared = endToEnd
		res, err = runEndToEnd(w, *seed, *seconds)
	} else {
		declared = perLayer
		path := *traceOut
		if path == "" {
			path = filepath.Join(".bench_build", "trace-"+w.name+".json")
		}
		res, err = runTraced(w, *seed, *seconds, path)
	}
	if err != nil {
		fatal(fmt.Errorf("%s: %w", w.name, err))
	}
	res.Env = env
	res.Trace = *trace != 0

	type metricOut struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	final := struct {
		Correct   bool                 `json:"correct"`
		Attempted int                  `json:"attempted"`
		Failed    int                  `json:"failed"`
		Metrics   map[string]metricOut `json:"metrics"`
	}{res.Failed == 0, res.Attempted, res.Failed, map[string]metricOut{}}
	for _, m := range declared {
		v, ok := res.Metrics[m.Name]
		if !ok {
			fatal(fmt.Errorf("%s: declared metric %s was not measured", w.name, m.Name))
		}
		fmt.Printf("%-34s %16.6g %s\n", m.Name, v, m.Unit)
		final.Metrics[m.Name] = metricOut{v, m.Unit}
	}
	if *out != "" {
		if err := appendResult(*out, res); err != nil {
			fatal(err)
		}
	}
	line, err := json.Marshal(final)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
	if res.Failed > 0 {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(2)
}

// commit is the VCS revision the binary was built from, when the build
// ran inside a git checkout.
func commit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}

// appendResult adds res to path as one JSON line.
func appendResult(path string, res *result) error {
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
