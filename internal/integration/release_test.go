package integration

import (
	"reflect"
	"testing"

	"apgas/internal/apps/fftbench"
	"apgas/internal/apps/kmeans"
	"apgas/internal/collectives"
	"apgas/internal/core"
)

// TestRunsReleaseWhatTheyRegister: a kernel's Run builds a team and a
// place-local per call; both must be gone when it returns, and the team's
// windows must be taken over by the next Run's team. On one runtime the
// registrations after the 30th run equal those after the 5th exactly: the
// runtime's place-local handles and, per place, the one-sided windows in
// its arena table.
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
			type registered struct {
				locals int
				arenas []int // per place
			}
			now := func() registered {
				r := registered{locals: rt.NumPlaceLocals()}
				for p := 0; p < rt.NumPlaces(); p++ {
					r.arenas = append(r.arenas, rt.Arenas().Len(p))
				}
				return r
			}
			var at5 registered
			for i := 1; i <= 30; i++ {
				if err := run(rt); err != nil {
					t.Fatal(err)
				}
				switch i {
				case 5:
					at5 = now()
				case 30:
					if got := now(); !reflect.DeepEqual(got, at5) {
						t.Errorf("registered after run 30: %+v; after run 5: %+v", got, at5)
					}
				}
			}
		})
	}
}
