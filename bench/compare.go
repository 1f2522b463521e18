package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
)

// Compare mode: each argument is a result file written with -out, one
// JSON line per run, holding one set of runs (several seeds of every
// workload). For every (workload, end-to-end metric) it prints each
// set's median and spread, the largest relative difference between two
// sets' medians, and PASS or FAIL against the metric's bound — the
// check the driver applies to the benchmark, and the one a later change
// is judged by.

// readSet loads one result file's end-to-end runs.
func readSet(path string) ([]result, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var set []result
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var r result
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		if !r.Trace {
			set = append(set, r)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(set) == 0 {
		return nil, fmt.Errorf("%s: no end-to-end result", path)
	}
	return set, nil
}

// quartiles are the cut points of Python's statistics.quantiles(v, n=4),
// which the driver uses; v needs at least two values.
func quartiles(v []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	cut := func(i int) float64 {
		m := len(s) + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > len(s)-1 {
			j = len(s) - 1
		}
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3)
}

// worsening is how much worse b is than a, as a share of a, for a
// metric of the given direction; negative when b is better.
func worsening(a, b float64, better string) float64 {
	if better == higher {
		return (a - b) / a
	}
	return (b - a) / a
}

func compareSets(w io.Writer, paths []string) error {
	if len(paths) < 2 {
		return fmt.Errorf("compare needs at least two result files")
	}
	sets := make([][]result, len(paths))
	for i, p := range paths {
		var err error
		if sets[i], err = readSet(p); err != nil {
			return err
		}
	}
	shape := sets[0][0].Env
	for i, set := range sets {
		for _, r := range set {
			if r.Env.NProc != shape.NProc || r.Env.GoMaxProcs != shape.GoMaxProcs {
				return fmt.Errorf("refusing to compare across machine shapes: %s has nproc=%d gomaxprocs=%d, %s has nproc=%d gomaxprocs=%d",
					paths[0], shape.NProc, shape.GoMaxProcs, paths[i], r.Env.NProc, r.Env.GoMaxProcs)
			}
		}
	}
	fmt.Fprintf(w, "machine: nproc=%d gomaxprocs=%d %s %q; %d sets\n\n",
		shape.NProc, shape.GoMaxProcs, shape.GoVersion, shape.CPUModel, len(sets))
	fmt.Fprintln(w, "| workload | metric | bound | runs per set | set medians | spread (IQR/median) per set | max median worsening | verdict |")
	fmt.Fprintln(w, "|---|---|---|---|---|---|---|---|")
	failed := 0
	for _, ws := range workloadSpecs {
		for _, ms := range endToEnd {
			var medians, spreads []float64
			var runs []int
			for _, set := range sets {
				var v []float64
				for _, r := range set {
					if r.Workload == ws.Name {
						v = append(v, r.Metrics[ms.Name])
					}
				}
				runs = append(runs, len(v))
				switch len(v) {
				case 0:
					medians, spreads = append(medians, math.NaN()), append(spreads, math.NaN())
				case 1:
					medians, spreads = append(medians, v[0]), append(spreads, 0)
				default:
					q1, q2, q3 := quartiles(v)
					medians, spreads = append(medians, q2), append(spreads, (q3-q1)/q2)
				}
			}
			worst := 0.0
			for i := range medians {
				for j := range medians {
					if i != j {
						worst = math.Max(worst, worsening(medians[i], medians[j], ms.Better))
					}
				}
			}
			verdict := "PASS"
			if !(worst <= ms.Bound) {
				verdict = "FAIL"
			}
			// The driver does not hold set-up time to a spread.
			for _, s := range spreads {
				if ms.Name != "setup_s" && !(s <= ms.Bound) {
					verdict = "FAIL"
				}
			}
			if verdict == "FAIL" {
				failed++
			}
			fmt.Fprintf(w, "| %s | %s | %.2f | %v | %s | %s | %.4f | %s |\n",
				ws.Name, ms.Name, ms.Bound, runs, formatList(medians, "%.6g"), formatList(spreads, "%.4f"), worst, verdict)
		}
	}
	if failed > 0 {
		return fmt.Errorf("%d (workload, metric) pairs outside their bound", failed)
	}
	return nil
}

func formatList(v []float64, verb string) string {
	s := ""
	for i, x := range v {
		if i > 0 {
			s += " / "
		}
		s += fmt.Sprintf(verb, x)
	}
	return s
}
