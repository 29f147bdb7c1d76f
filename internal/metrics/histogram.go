package metrics

import (
	"fmt"
	"math"
	"sort"
	"sync/atomic"
)

// Histogram is a fixed-bucket latency/size distribution with atomic,
// lock-free recording. Buckets are cumulative upper bounds (Prometheus
// style), with an implicit +Inf bucket at the end. The intended bucket
// layouts are log-spaced (LatencyBuckets, SizeBuckets): with a factor-f
// geometric ladder a quantile estimate is off by at most one bucket,
// i.e. a relative error bounded by f.
type Histogram struct {
	upper  []float64 // sorted upper bounds, excluding +Inf
	counts []atomic.Uint64
	count  atomic.Uint64
	sum    atomic.Uint64 // float64 bits
	min    atomic.Uint64 // float64 bits, +Inf until the first Observe
	max    atomic.Uint64 // float64 bits
	// exemplars is allocated lazily by SetExemplar (exemplar.go); nil
	// for the overwhelming majority of histograms, costing Observe
	// nothing and Snapshot one atomic load.
	exemplars atomic.Pointer[exemplarStore]
}

// NewHistogram creates a histogram over the given bucket upper bounds
// (which must be sorted and strictly increasing; +Inf is implicit).
func NewHistogram(buckets []float64) *Histogram {
	if len(buckets) == 0 {
		buckets = LatencyBuckets
	}
	for i := 1; i < len(buckets); i++ {
		if buckets[i] <= buckets[i-1] {
			panic(fmt.Sprintf("metrics: buckets not strictly increasing at %d: %v", i, buckets))
		}
	}
	// Drop a trailing +Inf: it is implicit.
	if math.IsInf(buckets[len(buckets)-1], +1) {
		buckets = buckets[:len(buckets)-1]
	}
	h := &Histogram{
		upper:  append([]float64(nil), buckets...),
		counts: make([]atomic.Uint64, len(buckets)+1),
	}
	h.min.Store(math.Float64bits(math.Inf(1)))
	return h
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	// min and max are published before the bucket count, and Snapshot
	// reads the buckets first: a snapshot that counts v sees it in
	// min and max too.
	atomicMinFloat(&h.min, v)
	atomicMaxFloat(&h.max, v)
	// Binary search for the first bucket whose upper bound holds v.
	i := sort.SearchFloat64s(h.upper, v)
	h.counts[i].Add(1)
	h.count.Add(1)
	atomicAddFloat(&h.sum, v)
}

// ObserveSeconds records a duration given in seconds; convenience for
// call sites holding a time.Duration.
func (h *Histogram) ObserveSeconds(seconds float64) { h.Observe(seconds) }

// Count returns the number of observations so far.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sum.Load()) }

// Snapshot returns a consistent-enough copy for export: bucket counts
// are read individually (recording continues concurrently), so the
// snapshot may be mid-update by at most the in-flight observations —
// acceptable for monitoring, and what Prometheus clients do too.
func (h *Histogram) Snapshot() *HistogramSnapshot {
	s := &HistogramSnapshot{
		Upper:  h.upper, // immutable after construction
		Counts: make([]uint64, len(h.counts)),
	}
	var total uint64
	for i := range h.counts {
		c := h.counts[i].Load()
		s.Counts[i] = c
		total += c
	}
	// Derive the count from the buckets so count == sum(buckets) holds
	// within the snapshot even under concurrent recording.
	s.Count = total
	s.Sum = h.Sum()
	s.Max = math.Float64frombits(h.max.Load())
	if total > 0 {
		s.Min = math.Float64frombits(h.min.Load())
	}
	s.Exemplars = h.exemplarSnapshot()
	return s
}

// HistogramSnapshot is an immutable, mergeable view of a histogram.
// It is JSON-serializable so snapshots can travel over RPC and be
// aggregated across processes (the rebalancer's view of the service).
type HistogramSnapshot struct {
	Upper  []float64 `json:"upper"`
	Counts []uint64  `json:"counts"` // len(Upper)+1; last is +Inf
	Count  uint64    `json:"count"`
	Sum    float64   `json:"sum"`
	// Min is the smallest observed value; 0 when Count is 0.
	Min float64 `json:"min"`
	Max float64 `json:"max"`
	// Exemplars, when present, link buckets to trace IDs (at most one
	// per bucket, bucket-ordered). Merges keep the newest per bucket.
	Exemplars []Exemplar `json:"exemplars,omitempty"`
}

// Clone returns a deep copy, so a cached snapshot survives callers
// that merge into it (federation relabels then merges node snapshots).
func (s *HistogramSnapshot) Clone() *HistogramSnapshot {
	c := *s
	c.Counts = append([]uint64(nil), s.Counts...)
	c.Exemplars = append([]Exemplar(nil), s.Exemplars...)
	return &c
}

// Merge adds other into s. The bucket layouts must match exactly.
func (s *HistogramSnapshot) Merge(other *HistogramSnapshot) error {
	if len(s.Upper) != len(other.Upper) {
		return fmt.Errorf("metrics: merge of mismatched histograms (%d vs %d buckets)", len(s.Upper), len(other.Upper))
	}
	for i := range s.Upper {
		if s.Upper[i] != other.Upper[i] {
			return fmt.Errorf("metrics: merge of mismatched histograms (bound %d: %g vs %g)", i, s.Upper[i], other.Upper[i])
		}
	}
	if other.Count > 0 && (s.Count == 0 || other.Min < s.Min) {
		s.Min = other.Min
	}
	for i := range s.Counts {
		s.Counts[i] += other.Counts[i]
	}
	s.Count += other.Count
	s.Sum += other.Sum
	if other.Max > s.Max {
		s.Max = other.Max
	}
	s.Exemplars = mergeExemplars(s.Exemplars, other.Exemplars)
	return nil
}

// Quantile estimates the q-quantile (0 < q <= 1) by linear
// interpolation inside the bucket holding the target rank. With
// log-spaced buckets of factor f the estimate's relative error is
// bounded by f (the true value lies in the same bucket). Returns 0
// when the histogram is empty. Values landing in the +Inf bucket are
// reported as the observed maximum.
func (s *HistogramSnapshot) Quantile(q float64) float64 {
	if s.Count == 0 {
		return 0
	}
	if q <= 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(s.Count)
	var cum uint64
	for i, c := range s.Counts {
		if c == 0 {
			cum += c
			continue
		}
		if float64(cum+c) >= rank {
			lower := 0.0
			if i > 0 {
				lower = s.Upper[i-1]
			}
			if i == len(s.Upper) {
				// +Inf bucket: the best upper estimate is the max.
				return s.Max
			}
			upper := s.Upper[i]
			frac := (rank - float64(cum)) / float64(c)
			v := lower + (upper-lower)*frac
			// Never report beyond the observed maximum.
			if s.Max > 0 && v > s.Max {
				return s.Max
			}
			return v
		}
		cum += c
	}
	return s.Max
}

// P50, P90, P99 are convenience accessors for the common quantiles.
func (s *HistogramSnapshot) P50() float64 { return s.Quantile(0.50) }
func (s *HistogramSnapshot) P90() float64 { return s.Quantile(0.90) }
func (s *HistogramSnapshot) P99() float64 { return s.Quantile(0.99) }

// Mean returns the average observed value (0 when empty).
func (s *HistogramSnapshot) Mean() float64 {
	if s.Count == 0 {
		return 0
	}
	return s.Sum / float64(s.Count)
}

// ExpBuckets returns count log-spaced bucket upper bounds starting at
// start and multiplying by factor (> 1) each step.
func ExpBuckets(start, factor float64, count int) []float64 {
	if start <= 0 || factor <= 1 || count < 1 {
		panic("metrics: ExpBuckets wants start > 0, factor > 1, count >= 1")
	}
	out := make([]float64, count)
	v := start
	for i := range out {
		out[i] = v
		v *= factor
	}
	return out
}

// LatencyBuckets spans 1µs to ~537s in factor-2 steps: fine enough for
// RPC latencies at HPC scale, coarse enough for 30 atomic counters.
var LatencyBuckets = ExpBuckets(1e-6, 2, 30)

// SizeBuckets spans 64B to ~4GiB in factor-4 steps, for payload and
// bulk-transfer sizes.
var SizeBuckets = ExpBuckets(64, 4, 14)

func atomicAddFloat(bits *atomic.Uint64, v float64) {
	for {
		old := bits.Load()
		new := math.Float64bits(math.Float64frombits(old) + v)
		if bits.CompareAndSwap(old, new) {
			return
		}
	}
}

func atomicMinFloat(bits *atomic.Uint64, v float64) {
	for {
		old := bits.Load()
		if math.Float64frombits(old) <= v {
			return
		}
		if bits.CompareAndSwap(old, math.Float64bits(v)) {
			return
		}
	}
}

func atomicMaxFloat(bits *atomic.Uint64, v float64) {
	for {
		old := bits.Load()
		if math.Float64frombits(old) >= v {
			return
		}
		if bits.CompareAndSwap(old, math.Float64bits(v)) {
			return
		}
	}
}
