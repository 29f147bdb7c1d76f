package metrics

import (
	"encoding/json"
	"math"
	"math/rand"
	"sort"
	"sync"
	"testing"
)

func TestHistogramBucketBoundaries(t *testing.T) {
	h := NewHistogram([]float64{1, 10, 100})
	// A value exactly on a bound lands in that bucket (le semantics).
	h.Observe(1)    // bucket 0 (<=1)
	h.Observe(1.01) // bucket 1 (<=10)
	h.Observe(10)   // bucket 1
	h.Observe(99)   // bucket 2 (<=100)
	h.Observe(100)  // bucket 2
	h.Observe(101)  // +Inf bucket
	h.Observe(0)    // bucket 0
	s := h.Snapshot()
	want := []uint64{2, 2, 2, 1}
	for i, w := range want {
		if s.Counts[i] != w {
			t.Errorf("bucket %d: got %d, want %d (counts %v)", i, s.Counts[i], w, s.Counts)
		}
	}
	if s.Count != 7 {
		t.Errorf("count: got %d, want 7", s.Count)
	}
	if s.Max != 101 {
		t.Errorf("max: got %g, want 101", s.Max)
	}
	if got, want := s.Sum, 1+1.01+10+99+100+101+0.0; math.Abs(got-want) > 1e-9 {
		t.Errorf("sum: got %g, want %g", got, want)
	}
}

func TestHistogramTrailingInfDropped(t *testing.T) {
	h := NewHistogram([]float64{1, 2, math.Inf(1)})
	if len(h.upper) != 2 {
		t.Fatalf("trailing +Inf should be dropped: upper=%v", h.upper)
	}
	h.Observe(5)
	if got := h.Snapshot().Counts[2]; got != 1 {
		t.Fatalf("value above all bounds should land in implicit +Inf bucket, counts=%v", h.Snapshot().Counts)
	}
}

func TestExpBuckets(t *testing.T) {
	b := ExpBuckets(1e-6, 2, 5)
	want := []float64{1e-6, 2e-6, 4e-6, 8e-6, 1.6e-5}
	for i := range want {
		if math.Abs(b[i]-want[i])/want[i] > 1e-12 {
			t.Errorf("bucket %d: got %g, want %g", i, b[i], want[i])
		}
	}
	if len(LatencyBuckets) != 30 || len(SizeBuckets) != 14 {
		t.Errorf("default layouts changed: latency=%d size=%d", len(LatencyBuckets), len(SizeBuckets))
	}
}

// TestHistogramQuantileErrorBound checks the documented accuracy: with
// factor-f log buckets, Quantile(q) is within one bucket of the true
// quantile, i.e. estimate/true ∈ [1/f, f].
func TestHistogramQuantileErrorBound(t *testing.T) {
	const factor = 2.0
	h := NewHistogram(LatencyBuckets)
	rng := rand.New(rand.NewSource(42))
	values := make([]float64, 0, 20000)
	for i := 0; i < 20000; i++ {
		// Log-uniform over 2µs .. 2s, the realistic RPC latency range.
		v := math.Exp(math.Log(2e-6) + rng.Float64()*(math.Log(2.0)-math.Log(2e-6)))
		values = append(values, v)
		h.Observe(v)
	}
	s := h.Snapshot()
	sorted := append([]float64(nil), values...)
	sort.Float64s(sorted)
	for _, q := range []float64{0.5, 0.9, 0.99} {
		truth := sorted[int(q*float64(len(sorted)))-1]
		est := s.Quantile(q)
		ratio := est / truth
		if ratio < 1/factor-1e-9 || ratio > factor+1e-9 {
			t.Errorf("q=%g: estimate %g vs true %g (ratio %g, want within [%g,%g])",
				q, est, truth, ratio, 1/factor, factor)
		}
	}
	if s.Quantile(1) > s.Max || s.Quantile(1) <= 0 {
		t.Errorf("q=1: got %g, want in (0, max=%g]", s.Quantile(1), s.Max)
	}
}

func TestHistogramQuantileEdgeCases(t *testing.T) {
	h := NewHistogram([]float64{1, 2, 4})
	s := h.Snapshot()
	if got := s.Quantile(0.5); got != 0 {
		t.Errorf("empty histogram quantile: got %g, want 0", got)
	}
	h.Observe(100) // only the +Inf bucket
	s = h.Snapshot()
	if got := s.Quantile(0.5); got != 100 {
		t.Errorf("+Inf-bucket quantile should report the max: got %g, want 100", got)
	}
	if got := s.Mean(); got != 100 {
		t.Errorf("mean: got %g, want 100", got)
	}
}

// TestHistogramConcurrentRecording hammers one histogram from many
// goroutines; run under -race this is the concurrency regression test,
// and the final counts must be exact (atomic increments lose nothing).
func TestHistogramConcurrentRecording(t *testing.T) {
	h := NewHistogram(LatencyBuckets)
	const (
		workers = 8
		perW    = 5000
	)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < perW; i++ {
				h.Observe(rng.Float64())
				if i%100 == 0 {
					_ = h.Snapshot() // concurrent reads too
				}
			}
		}(int64(w))
	}
	wg.Wait()
	s := h.Snapshot()
	if s.Count != workers*perW {
		t.Errorf("count: got %d, want %d", s.Count, workers*perW)
	}
	var total uint64
	for _, c := range s.Counts {
		total += c
	}
	if total != s.Count {
		t.Errorf("bucket sum %d != count %d", total, s.Count)
	}
}

func TestHistogramSnapshotMerge(t *testing.T) {
	h1 := NewHistogram([]float64{1, 2, 4})
	h2 := NewHistogram([]float64{1, 2, 4})
	h1.Observe(0.5)
	h1.Observe(3)
	h2.Observe(1.5)
	h2.Observe(8)
	s := h1.Snapshot()
	if err := s.Merge(h2.Snapshot()); err != nil {
		t.Fatal(err)
	}
	if s.Count != 4 {
		t.Errorf("merged count: got %d, want 4", s.Count)
	}
	if s.Max != 8 {
		t.Errorf("merged max: got %g, want 8", s.Max)
	}
	if got, want := s.Sum, 0.5+3+1.5+8; math.Abs(got-want) > 1e-9 {
		t.Errorf("merged sum: got %g, want %g", got, want)
	}
	bad := NewHistogram([]float64{1, 3}).Snapshot()
	if err := s.Merge(bad); err == nil {
		t.Error("merge of mismatched layouts should fail")
	}
}

func TestHistogramMinEmptyAndSingle(t *testing.T) {
	h := NewHistogram([]float64{1, 2, 4})
	if s := h.Snapshot(); s.Min != 0 || s.Max != 0 || s.Count != 0 {
		t.Fatalf("empty snapshot: min %g max %g count %d", s.Min, s.Max, s.Count)
	}
	h.Observe(3)
	if s := h.Snapshot(); s.Min != 3 || s.Max != 3 {
		t.Fatalf("single value: min %g max %g, want 3 and 3", s.Min, s.Max)
	}
	h.Observe(0.5)
	h.Observe(9)
	if s := h.Snapshot(); s.Min != 0.5 || s.Max != 9 {
		t.Fatalf("three values: min %g max %g, want 0.5 and 9", s.Min, s.Max)
	}
}

// TestHistogramMinMerge checks that an empty snapshot on either side
// of a merge never drags the minimum down to its zero value.
func TestHistogramMinMerge(t *testing.T) {
	bounds := []float64{1, 2, 4}
	empty := func() *HistogramSnapshot { return NewHistogram(bounds).Snapshot() }
	of := func(vs ...float64) *HistogramSnapshot {
		h := NewHistogram(bounds)
		for _, v := range vs {
			h.Observe(v)
		}
		return h.Snapshot()
	}
	for _, tc := range []struct {
		name     string
		parts    []*HistogramSnapshot
		min, max float64
	}{
		{"empty into empty", []*HistogramSnapshot{empty(), empty()}, 0, 0},
		{"values into empty", []*HistogramSnapshot{empty(), of(3, 1.5)}, 1.5, 3},
		{"empty into values", []*HistogramSnapshot{of(3, 1.5), empty()}, 1.5, 3},
		{"lower min wins", []*HistogramSnapshot{of(2.5), empty(), of(0.25, 8), of(1)}, 0.25, 8},
	} {
		s := tc.parts[0]
		for _, p := range tc.parts[1:] {
			if err := s.Merge(p); err != nil {
				t.Fatal(err)
			}
		}
		if s.Min != tc.min || s.Max != tc.max {
			t.Errorf("%s: min %g max %g, want %g and %g", tc.name, s.Min, s.Max, tc.min, tc.max)
		}
	}
}

// TestHistogramMinFederationRoundTrip sends a registry snapshot through
// JSON, the encoding node snapshots travel in, and merges the decoded
// copy back: min and max survive both steps.
func TestHistogramMinFederationRoundTrip(t *testing.T) {
	reg := NewRegistry()
	reg.Histogram("rt_seconds", "round trip", LatencyBuckets, "rpc").With("echo").Observe(0.003)
	reg.Histogram("rt_seconds", "round trip", LatencyBuckets, "rpc").With("echo").Observe(0.0005)
	raw, err := json.Marshal(reg.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	var decoded []FamilySnapshot
	if err := json.Unmarshal(raw, &decoded); err != nil {
		t.Fatal(err)
	}
	h := decoded[0].Series[0].Hist
	if h.Min != 0.0005 || h.Max != 0.003 {
		t.Fatalf("decoded min %g max %g, want 0.0005 and 0.003", h.Min, h.Max)
	}
	other := NewRegistry()
	other.Histogram("rt_seconds", "round trip", LatencyBuckets, "rpc").With("echo").Observe(0.0001)
	merged, err := MergeSnapshots(decoded, other.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	if h := merged[0].Series[0].Hist; h.Min != 0.0001 || h.Max != 0.003 || h.Count != 3 {
		t.Fatalf("merged min %g max %g count %d", h.Min, h.Max, h.Count)
	}
}

func BenchmarkHistogramObserve(b *testing.B) {
	h := NewHistogram(LatencyBuckets)
	b.RunParallel(func(pb *testing.PB) {
		v := 1e-6
		for pb.Next() {
			h.Observe(v)
			v *= 1.001
			if v > 1 {
				v = 1e-6
			}
		}
	})
}
