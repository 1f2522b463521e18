package fftbench

import (
	"testing"

	"apgas/internal/collectives"
	"apgas/internal/core"
)

func runFFT(t *testing.T, places int, cfg Config) Result {
	t.Helper()
	rt, err := core.NewRuntime(core.Config{Places: places, CheckPatterns: true})
	if err != nil {
		t.Fatalf("NewRuntime: %v", err)
	}
	defer rt.Close()
	res, err := Run(rt, cfg)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	return res
}

func TestDistributedFFTCorrect(t *testing.T) {
	for _, c := range []struct{ places, log2n int }{
		{1, 6}, {1, 9}, {2, 8}, {4, 8}, {4, 12}, {8, 10},
	} {
		res := runFFT(t, c.places, Config{Log2N: c.log2n, Seed: 11})
		tol := 1e-8 * float64(int(1)<<c.log2n)
		if res.MaxErr > tol {
			t.Errorf("places=%d log2n=%d: err %g > %g", c.places, c.log2n, res.MaxErr, tol)
		}
		if res.Gflops <= 0 {
			t.Errorf("places=%d: gflops %v", c.places, res.Gflops)
		}
	}
}

func TestDistributedFFTEmulatedCollectives(t *testing.T) {
	res := runFFT(t, 4, Config{Log2N: 10, Seed: 3, Mode: collectives.ModeEmulated})
	if res.MaxErr > 1e-5 {
		t.Errorf("emulated: err %g", res.MaxErr)
	}
}

// TestTwiddleTableAccuracy: with step 3's factors taken from the two-level
// table, the benchmark's acceptance rule (harness.Fig1FFT) holds at every
// size the experiments use.
func TestTwiddleTableAccuracy(t *testing.T) {
	top := 20
	if testing.Short() {
		top = 16
	}
	for log2n := 10; log2n <= top; log2n++ {
		res := runFFT(t, 4, Config{Log2N: log2n, Seed: 9, Mode: collectives.ModeEmulated})
		if tol := 1e-6 * float64(res.N); !(res.MaxErr >= 0 && res.MaxErr <= tol) {
			t.Errorf("log2n=%d: max error %g, want <= %g", log2n, res.MaxErr, tol)
		}
	}
}

func TestOddLogSizes(t *testing.T) {
	// Odd Log2N: R != C exercises the rectangular path.
	res := runFFT(t, 2, Config{Log2N: 9, Seed: 5})
	if res.MaxErr > 1e-6 {
		t.Errorf("odd size: err %g", res.MaxErr)
	}
}

func TestRunValidation(t *testing.T) {
	rt, err := core.NewRuntime(core.Config{Places: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	if _, err := Run(rt, Config{Log2N: 8}); err == nil {
		t.Error("non-power-of-two places accepted")
	}
	rt2, _ := core.NewRuntime(core.Config{Places: 8})
	defer rt2.Close()
	if _, err := Run(rt2, Config{Log2N: 4}); err == nil {
		t.Error("too many places for tiny transform accepted")
	}
}

func TestMaxPlaces(t *testing.T) {
	if MaxPlaces(10) != 32 || MaxPlaces(9) != 16 || MaxPlaces(4) != 4 {
		t.Errorf("MaxPlaces wrong: %d %d %d", MaxPlaces(10), MaxPlaces(9), MaxPlaces(4))
	}
}
