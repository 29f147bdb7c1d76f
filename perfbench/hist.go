package main

import (
	"math/bits"
	"sync/atomic"
	"time"
)

// hist is a fixed-size log-linear latency histogram in nanoseconds:
// exact below 128 ns, then 64 sub-buckets per power of two (under 1.6%
// bucket width). Recording is a few atomic adds and never allocates,
// so it is safe from hooks on any goroutine and adds nothing to the
// allocation and heap metrics it sits next to. Quantiles interpolate
// linearly inside the bucket.
type hist struct {
	counts [histBuckets]atomic.Uint64
	n      atomic.Uint64
	sum    atomic.Uint64
}

const (
	histLinear  = 128
	histSub     = 64
	histMaxExp  = 36
	histBuckets = histLinear + histMaxExp*histSub
	histMax     = 1<<(histMaxExp+7) - 1
)

func histIndex(v uint64) int {
	if v < histLinear {
		return int(v)
	}
	if v > histMax {
		v = histMax
	}
	shift := bits.Len64(v) - 7
	return histLinear + (shift-1)*histSub + int(v>>shift) - histSub
}

// histBounds returns bucket i's lower bound and width.
func histBounds(i int) (lower, width float64) {
	if i < histLinear {
		return float64(i), 1
	}
	j := i - histLinear
	shift := j/histSub + 1
	m := uint64(j%histSub + histSub)
	return float64(m << shift), float64(uint64(1) << shift)
}

func (h *hist) record(d time.Duration) {
	v := uint64(0)
	if d > 0 {
		v = uint64(d)
	}
	h.counts[histIndex(v)].Add(1)
	h.n.Add(1)
	h.sum.Add(v)
}

func (h *hist) count() uint64 { return h.n.Load() }

// mean returns the mean in nanoseconds (0 when empty).
func (h *hist) mean() float64 {
	n := h.n.Load()
	if n == 0 {
		return 0
	}
	return float64(h.sum.Load()) / float64(n)
}

// quantile returns the q-quantile in nanoseconds (0 when empty).
func (h *hist) quantile(q float64) float64 {
	n := h.n.Load()
	if n == 0 {
		return 0
	}
	rank := q * float64(n)
	if rank < 0.5 {
		rank = 0.5
	}
	var cum float64
	for i := range h.counts {
		c := float64(h.counts[i].Load())
		if c == 0 {
			continue
		}
		if cum+c >= rank {
			lower, width := histBounds(i)
			return lower + width*(rank-cum)/c
		}
		cum += c
	}
	lower, width := histBounds(histBuckets - 1)
	return lower + width
}

// merge adds o's samples into h.
func (h *hist) merge(o *hist) {
	for i := range o.counts {
		if c := o.counts[i].Load(); c != 0 {
			h.counts[i].Add(c)
		}
	}
	h.n.Add(o.n.Load())
	h.sum.Add(o.sum.Load())
}

// us converts nanoseconds to microseconds.
func us(ns float64) float64 { return ns / 1e3 }

// ms converts nanoseconds to milliseconds.
func ms(ns float64) float64 { return ns / 1e6 }
