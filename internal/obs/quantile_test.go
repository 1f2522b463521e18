package obs

import "testing"

// TestHistogramQuantileExactPowersOfTwo pins the quantile readout on
// observations that are exact powers of two: each lands alone in its
// bucket, whose lower bound is the observed value, so the readout is
// exact at every rank.
func TestHistogramQuantileExactPowersOfTwo(t *testing.T) {
	h := new(Histogram)
	values := []uint64{1, 2, 4, 8, 16, 32, 64, 128}
	for _, v := range values {
		h.Observe(v)
	}
	cases := []struct {
		q    float64
		want uint64
	}{
		{0, 1},       // rank clamps to the first observation
		{0.125, 1},   // rank 1 of 8
		{0.25, 2},    // rank 2
		{0.5, 8},     // rank 4
		{0.75, 32},   // rank 6
		{1.0, 128},   // rank 8
		{1.5, 128},   // q clamps to 1
		{-0.5, 1},    // q clamps to 0
		{0.874, 64},  // nearest rank: ceil(0.874*8)=7
		{0.999, 128}, // nearest rank: ceil(0.999*8)=8
	}
	for _, c := range cases {
		if got := h.Quantile(c.q); got != c.want {
			t.Errorf("Quantile(%v) = %d, want %d", c.q, got, c.want)
		}
	}
}

func TestHistogramQuantileDegenerate(t *testing.T) {
	var nilH *Histogram
	if got := nilH.Quantile(0.5); got != 0 {
		t.Errorf("nil histogram Quantile = %d, want 0", got)
	}
	empty := new(Histogram)
	if got := empty.Quantile(0.5); got != 0 {
		t.Errorf("empty histogram Quantile = %d, want 0", got)
	}
	zeros := new(Histogram)
	zeros.Observe(0)
	zeros.Observe(0)
	if got := zeros.Quantile(1.0); got != 0 {
		t.Errorf("all-zero histogram Quantile = %d, want 0", got)
	}
	if (Value{}).Quantile(0.5) != 0 {
		t.Error("non-histogram Value Quantile should be 0")
	}
}

// TestQuantileAfterMergeAndSub checks the Value.Quantile readout on the
// two derived bucket forms the attribution tables consume: a cross-place
// merged histogram, and a snapshot delta (Sub) after the merge's inputs
// advanced.
func TestQuantileAfterMergeAndSub(t *testing.T) {
	r0, r1 := NewRegistry(), NewRegistry()
	h0, h1 := r0.Histogram("lat.us"), r1.Histogram("lat.us")
	h0.Observe(4)
	h0.Observe(4)
	h1.Observe(64)
	h1.Observe(64)

	merged := MergeSnapshots(map[int]Snapshot{0: r0.Snapshot(), 1: r1.Snapshot()})
	mv := merged["lat.us"]
	if got := mv.Sum.Quantile(0.5); got != 4 {
		t.Errorf("merged p50 = %d, want 4", got)
	}
	if got := mv.Sum.Quantile(1.0); got != 64 {
		t.Errorf("merged p100 = %d, want 64", got)
	}

	// Delta view: observations recorded after a baseline snapshot.
	base := r0.Snapshot()
	h0.Observe(1024)
	h0.Observe(1024)
	h0.Observe(1024)
	delta := r0.Snapshot().Sub(base)
	dv := delta["lat.us"]
	if dv.Count != 3 {
		t.Fatalf("delta count = %d, want 3", dv.Count)
	}
	if got := dv.Quantile(0.5); got != 1024 {
		t.Errorf("delta p50 = %d, want 1024 (the 4s were subtracted away)", got)
	}
}
