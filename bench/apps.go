package main

import (
	"fmt"
	"math"
	"time"

	"apgas/internal/apps/fftbench"
	"apgas/internal/apps/kmeans"
	"apgas/internal/apps/randomaccess"
	"apgas/internal/apps/uts"
	"apgas/internal/baseline"
	"apgas/internal/collectives"
	"apgas/internal/core"
	"apgas/internal/glb"
	"apgas/internal/kernels/fft"
	"apgas/internal/kernels/sha1rng"
	"apgas/internal/x10rt"
)

// The four kernel workloads. Each runs its app's exported Run on one
// runtime over the default chan transport. Input sizes are fixed here
// (README.md, "Workloads") so that one solve takes 0.1–0.4 s on the
// reference box and a 10 s window holds at least 30 of them.

// newAppRuntime builds the runtime of a kernel workload. Two emulated
// hosts (PlacesPerHost = places/2) give FINISH_DENSE's software routing
// a master hop to take.
func newAppRuntime(places int, traced bool) (*core.Runtime, error) {
	return core.NewRuntime(core.Config{
		Places:        places,
		PlacesPerHost: places / 2,
		WireLedger:    traced,
	})
}

// rtInstance is the part every runtime-backed instance shares.
type rtInstance struct {
	rt *core.Runtime
}

func (r *rtInstance) stats() x10rt.Stats        { return r.rt.Transport().Stats() }
func (r *rtInstance) ledger() *x10rt.WireLedger { return r.rt.WireLedger() }
func (r *rtInstance) close()                    { r.rt.Close() }

// seconds converts an app's Result.Seconds.
func seconds(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

// ---- uts ----------------------------------------------------------------

const (
	utsPlaces = 4
	utsDepth  = 14
)

type utsInstance struct {
	rtInstance
	tree sha1rng.Geometric
	want uint64
	last uts.Result
}

// utsTree maps the seed to a tree. Geometric trees of one shape differ
// in size by a factor of ten from root seed to root seed, so the seed
// picks from utsRoots, root seeds whose trees all hold within 0.5% of
// 1.6 M nodes: solve_s stays comparable across seeds.
func utsTree(seed uint64) sha1rng.Geometric {
	return sha1rng.Geometric{B0: 4, Depth: utsDepth, Seed: utsRoots[seed%uint64(len(utsRoots))]}
}

func setupUTS(seed uint64, traced bool) (instance, error) {
	rt, err := newAppRuntime(utsPlaces, traced)
	if err != nil {
		return nil, err
	}
	in := &utsInstance{rtInstance: rtInstance{rt}, tree: utsTree(seed)}
	in.want, _ = in.tree.CountSequential()
	return in, nil
}

func (in *utsInstance) run() (timed time.Duration, err error) {
	in.last, err = uts.Run(in.rt, uts.Config{Tree: in.tree, GLB: glb.Config{DenseFinish: true}})
	return seconds(in.last.Seconds), err
}

func (in *utsInstance) verify() (float64, error) {
	if in.last.Nodes != in.want {
		return 0, fmt.Errorf("uts: counted %d nodes, sequential count is %d", in.last.Nodes, in.want)
	}
	return float64(in.last.Nodes), nil
}

func (in *utsInstance) baseline() float64 {
	mnodes, _ := baseline.UTS(in.tree)
	return mnodes * 1e6
}

// ---- kmeans -------------------------------------------------------------

const kmeansPlaces = 8

type kmeansInstance struct {
	rtInstance
	cfg kmeans.Config
	// reference: a sequential Lloyd run of the same input, and the
	// distortion under the initial centroids (the first iteration's).
	wantCent    []float64
	wantDist    float64
	initialDist float64
	last        kmeans.Result
}

func kmeansConfig(seed uint64) kmeans.Config {
	return kmeans.Config{
		PointsPerPlace: 8000,
		Clusters:       64,
		Dim:            12,
		Iterations:     5,
		Seed:           seed,
		Mode:           collectives.ModeEmulated,
	}
}

func setupKMeans(seed uint64, traced bool) (instance, error) {
	rt, err := newAppRuntime(kmeansPlaces, traced)
	if err != nil {
		return nil, err
	}
	in := &kmeansInstance{rtInstance: rtInstance{rt}, cfg: kmeansConfig(seed)}
	in.wantCent, in.wantDist = kmeans.Sequential(in.cfg, kmeansPlaces)
	first := in.cfg
	first.Iterations = 1
	_, in.initialDist = kmeans.Sequential(first, kmeansPlaces)
	return in, nil
}

func (in *kmeansInstance) run() (timed time.Duration, err error) {
	in.last, err = kmeans.Run(in.rt, in.cfg)
	return seconds(in.last.Seconds), err
}

// kmeansTol absorbs the different summation order of the distributed
// all-reduce; a flipped centroid coordinate is orders of magnitude out.
const kmeansTol = 1e-9

func (in *kmeansInstance) verify() (float64, error) {
	r := in.last
	if !(r.Distortion <= in.initialDist) {
		return 0, fmt.Errorf("kmeans: distortion rose from %g to %g", in.initialDist, r.Distortion)
	}
	if math.Abs(r.Distortion-in.wantDist) > kmeansTol*in.wantDist {
		return 0, fmt.Errorf("kmeans: distortion %g, sequential run gives %g", r.Distortion, in.wantDist)
	}
	if len(r.Centroids) != len(in.wantCent) {
		return 0, fmt.Errorf("kmeans: %d centroid coordinates, want %d", len(r.Centroids), len(in.wantCent))
	}
	for i, c := range r.Centroids {
		if math.Abs(c-in.wantCent[i]) > kmeansTol {
			return 0, fmt.Errorf("kmeans: centroid coordinate %d is %g, sequential run gives %g", i, c, in.wantCent[i])
		}
	}
	return float64(in.cfg.PointsPerPlace * kmeansPlaces * in.cfg.Iterations), nil
}

func (in *kmeansInstance) baseline() float64 {
	n := in.cfg.PointsPerPlace * kmeansPlaces
	itersPerS := baseline.KMeansIterationsPerSec(n, in.cfg.Clusters, in.cfg.Dim, in.cfg.Iterations, in.cfg.Seed)
	return itersPerS * float64(n)
}

// ---- fft ----------------------------------------------------------------

const (
	fftPlaces = 4
	fftLog2N  = 19
)

type fftInstance struct {
	rtInstance
	cfg  fftbench.Config
	last fftbench.Result
}

func setupFFT(seed uint64, traced bool) (instance, error) {
	rt, err := newAppRuntime(fftPlaces, traced)
	if err != nil {
		return nil, err
	}
	// fftbench.Run computes its own reference (a sequential transform
	// of the same input) inside every call; set-up has none to add.
	return &fftInstance{
		rtInstance: rtInstance{rt},
		cfg:        fftbench.Config{Log2N: fftLog2N, Mode: collectives.ModeEmulated, Seed: seed},
	}, nil
}

func (in *fftInstance) run() (timed time.Duration, err error) {
	in.last, err = fftbench.Run(in.rt, in.cfg)
	return seconds(in.last.Seconds), err
}

func (in *fftInstance) verify() (float64, error) {
	r := in.last
	// The acceptance rule of harness.Fig1FFT.
	if !(r.MaxErr >= 0 && r.MaxErr <= 1e-6*float64(r.N)) {
		return 0, fmt.Errorf("fft: max error %g against the sequential transform", r.MaxErr)
	}
	return fft.Flops(r.N), nil
}

func (in *fftInstance) baseline() float64 {
	return baseline.FFT(fftLog2N, in.cfg.Seed) * 1e9
}

// ---- ra -----------------------------------------------------------------

const (
	raPlaces       = 4
	raLog2PerPlace = 18
)

type raInstance struct {
	rtInstance
	cfg  randomaccess.Config
	last randomaccess.Result
}

// setupRA ignores the seed: the HPCC update stream is fixed by the
// benchmark's rules and randomaccess.Config has no seed.
func setupRA(_ uint64, traced bool) (instance, error) {
	rt, err := newAppRuntime(raPlaces, traced)
	if err != nil {
		return nil, err
	}
	return &raInstance{
		rtInstance: rtInstance{rt},
		cfg:        randomaccess.Config{Log2TablePerPlace: raLog2PerPlace, Verify: true},
	}, nil
}

// run's timed section is the update pass; the verification pass that
// replays it is outside, as in HPCC.
func (in *raInstance) run() (timed time.Duration, err error) {
	in.last, err = randomaccess.Run(in.rt, in.cfg)
	return seconds(in.last.Seconds), err
}

func (in *raInstance) verify() (float64, error) {
	r := in.last
	if !r.Verified {
		return 0, fmt.Errorf("ra: run did not verify")
	}
	// HPCC allows up to 1% of the table to be wrong.
	if r.Errors*100 > r.TableWords {
		return 0, fmt.Errorf("ra: %d of %d table words wrong, HPCC allows 1%%", r.Errors, r.TableWords)
	}
	// The verification pass replays the whole update stream through the
	// same lane, so a solve performs the updates twice.
	return float64(2 * r.Updates), nil
}

// baseline is one worker, like the other kernels' Class-1 passes (two
// would race on the table by design, as HPCC allows).
func (in *raInstance) baseline() float64 {
	return baseline.GUPS(raLog2PerPlace+2, 4, 1) * 1e9 // 4 places: log2 table = per-place + 2
}
