package integration

import (
	"runtime"
	"testing"

	"apgas/internal/apps/fftbench"
	"apgas/internal/apps/kmeans"
	"apgas/internal/collectives"
	"apgas/internal/core"
)

// TestRunsReleaseWhatTheyRegister: a kernel's Run builds a team and a
// place-local per call; both must be gone when it returns, and the team's
// windows must be taken over by the next Run's team. On one runtime the
// live heap after the 30th run stays within 10% of the heap after the 5th.
func TestRunsReleaseWhatTheyRegister(t *testing.T) {
	kernels := map[string]func(*core.Runtime) error{
		"kmeans": func(rt *core.Runtime) error {
			_, err := kmeans.Run(rt, kmeans.Config{
				PointsPerPlace: 2000, Clusters: 16, Dim: 8, Iterations: 3, Seed: 7,
				Mode: collectives.ModeEmulated,
			})
			return err
		},
		"fft": func(rt *core.Runtime) error {
			_, err := fftbench.Run(rt, fftbench.Config{Log2N: 14, Seed: 7, Mode: collectives.ModeEmulated})
			return err
		},
	}
	for name, run := range kernels {
		t.Run(name, func(t *testing.T) {
			rt, err := core.NewRuntime(core.Config{Places: 4})
			if err != nil {
				t.Fatal(err)
			}
			defer rt.Close()
			live := func() uint64 {
				runtime.GC()
				var ms runtime.MemStats
				runtime.ReadMemStats(&ms)
				return ms.HeapAlloc
			}
			var at5 uint64
			for i := 1; i <= 30; i++ {
				if err := run(rt); err != nil {
					t.Fatal(err)
				}
				if h := live(); i == 5 {
					at5 = h
				} else if i == 30 && float64(h) > 1.1*float64(at5) {
					t.Errorf("live heap %d B after run 30, %d B after run 5: more than 10%% growth", h, at5)
				}
			}
		})
	}
}
