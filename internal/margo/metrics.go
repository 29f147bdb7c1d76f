package margo

import (
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"mochi/internal/mercury"
	"mochi/internal/metrics"
	"mochi/internal/resilience"
)

// aggLabel is the catch-all series of the per-RPC histogram vectors:
// it aggregates every RPC regardless of name/provider, exists from
// instance startup (so the first scrape already shows the families),
// and gives operators a total-traffic distribution without summing
// per-RPC series client-side.
const aggLabel = "_all"

// instMetrics is the accounting surface of one margo instance. Every
// RPC is recorded once, by forwarded on the origin side and handled on
// the target side, into the cached series of its (name, provider)
// pair: the Prometheus histograms, the _all aggregate, the error
// counter and, while monitoring is enabled, the Listing-1 cell of the
// RPC's parent and peer. The Listing-1 document is a view over those
// cells (listing1).
type instMetrics struct {
	reg *metrics.Registry

	fwdLatency *metrics.HistogramVec // mochi_rpc_forward_latency_seconds{rpc,provider}
	queueDelay *metrics.HistogramVec // mochi_rpc_handler_queue_seconds{rpc,provider}
	handlerRun *metrics.HistogramVec // mochi_rpc_handler_runtime_seconds{rpc,provider}
	fwdErrors  *metrics.CounterVec   // mochi_rpc_forward_errors_total{rpc}
	inflight   *metrics.Gauge        // mochi_rpc_inflight

	// Resilience series. These fire on the retry/breaker slow paths
	// only, so plain With lookups are fine.
	retries    *metrics.CounterVec // mochi_rpc_retries_total{rpc}
	brkState   *metrics.GaugeVec   // mochi_rpc_breaker_state{peer}
	brkRejects *metrics.CounterVec // mochi_rpc_breaker_rejections_total{peer}

	// The _all aggregate series, resolved at construction so every
	// family has concrete (zero-valued) series from the first scrape.
	aggFwd   *metrics.Histogram
	aggQueue *metrics.Histogram
	aggRun   *metrics.Histogram

	// Resolving a vec series costs a variadic slice plus a joined
	// label-key string, so each (name, provider) pair is resolved once
	// and cached under a struct key.
	seriesMu sync.RWMutex
	series   map[seriesKey]*rpcSeries

	// monitoring gates the Listing-1 cells (EnableMonitoring).
	monitoring atomic.Bool
	cellsMu    sync.RWMutex
	cells      map[cellKey]*cell
}

// seriesKey identifies one (rpc, provider) label pair without string
// concatenation.
type seriesKey struct {
	name     string
	provider uint16
}

// rpcSeries holds everything recorded for one (rpc, provider) pair.
type rpcSeries struct {
	name     string
	id       mercury.RPCID
	provider uint16

	fwd   *metrics.Histogram
	queue *metrics.Histogram
	run   *metrics.Histogram
	errs  *metrics.Counter
}

// cellKey identifies one Listing-1 cell of a series: the origin side
// per (parent, peer), the target side per peer under the sentinel
// parent, since the wire does not carry the remote parent.
type cellKey struct {
	series         *rpcSeries
	target         bool
	parent         mercury.RPCID
	parentProvider uint16
	peer           string
}

// cell is one Listing-1 "sent to"/"received from" entry. queued is
// nil on the origin side.
type cell struct {
	queued *metrics.Histogram
	dur    *metrics.Histogram
	bytes  *metrics.Histogram
	errs   atomic.Int64
}

func newInstMetrics(reg *metrics.Registry) *instMetrics {
	im := &instMetrics{
		reg: reg,
		fwdLatency: reg.Histogram("mochi_rpc_forward_latency_seconds",
			"Round-trip latency of forwarded RPCs (origin side), by RPC name and target provider.",
			metrics.LatencyBuckets, "rpc", "provider"),
		queueDelay: reg.Histogram("mochi_rpc_handler_queue_seconds",
			"Time an incoming RPC waited in its pool before the handler ULT started (target side).",
			metrics.LatencyBuckets, "rpc", "provider"),
		handlerRun: reg.Histogram("mochi_rpc_handler_runtime_seconds",
			"Execution time of RPC handler ULTs (target side).",
			metrics.LatencyBuckets, "rpc", "provider"),
		fwdErrors: reg.Counter("mochi_rpc_forward_errors_total",
			"Forwarded RPCs that returned an error, by RPC name.", "rpc"),
		retries: reg.Counter("mochi_rpc_retries_total",
			"Retry attempts made by the resilience layer, by RPC name.", "rpc"),
		brkState: reg.Gauge("mochi_rpc_breaker_state",
			"Circuit-breaker state per destination (0 closed, 1 half-open, 2 open).", "peer"),
		brkRejects: reg.Counter("mochi_rpc_breaker_rejections_total",
			"Forwards rejected without a network attempt because the destination's breaker was open.", "peer"),
		inflight: reg.Gauge("mochi_rpc_inflight",
			"RPCs forwarded by this process still awaiting a response.").With(),
		series: map[seriesKey]*rpcSeries{},
		cells:  map[cellKey]*cell{},
	}
	im.aggFwd = im.fwdLatency.With(aggLabel, aggLabel)
	im.aggQueue = im.queueDelay.With(aggLabel, aggLabel)
	im.aggRun = im.handlerRun.With(aggLabel, aggLabel)
	return im
}

// seriesFor returns the cached series for (name, provider), resolving
// and caching it on first sight of the pair. The fast path is a
// read-locked struct-keyed map hit: no allocation, no label join.
func (im *instMetrics) seriesFor(info RPCInfo) *rpcSeries {
	k := seriesKey{info.Name, info.Provider}
	im.seriesMu.RLock()
	s := im.series[k]
	im.seriesMu.RUnlock()
	if s != nil {
		return s
	}
	im.seriesMu.Lock()
	if s = im.series[k]; s == nil {
		pl := providerLabel(info.Provider)
		s = &rpcSeries{
			name:     info.Name,
			id:       info.ID,
			provider: info.Provider,
			fwd:      im.fwdLatency.With(info.Name, pl),
			queue:    im.queueDelay.With(info.Name, pl),
			run:      im.handlerRun.With(info.Name, pl),
			errs:     im.fwdErrors.With(info.Name),
		}
		im.series[k] = s
	}
	im.seriesMu.Unlock()
	return s
}

// cellFor returns the Listing-1 cell for k, creating it on first
// sight.
func (im *instMetrics) cellFor(k cellKey) *cell {
	im.cellsMu.RLock()
	c := im.cells[k]
	im.cellsMu.RUnlock()
	if c != nil {
		return c
	}
	im.cellsMu.Lock()
	defer im.cellsMu.Unlock()
	if c = im.cells[k]; c == nil {
		c = &cell{
			dur:   metrics.NewHistogram(metrics.LatencyBuckets),
			bytes: metrics.NewHistogram(metrics.SizeBuckets),
		}
		if k.target {
			c.queued = metrics.NewHistogram(metrics.LatencyBuckets)
		}
		im.cells[k] = c
	}
	return c
}

func providerLabel(p uint16) string {
	if p == noParent16 {
		return "any"
	}
	return strconv.Itoa(int(p))
}

// forwarded records one completed forward on the origin side and
// returns its series, on which the caller pins exemplars.
func (im *instMetrics) forwarded(info RPCInfo, d time.Duration, err error) *rpcSeries {
	im.inflight.Dec()
	s := im.seriesFor(info)
	sec := d.Seconds()
	s.fwd.Observe(sec)
	im.aggFwd.Observe(sec)
	if err != nil {
		s.errs.Inc()
	}
	if im.monitoring.Load() {
		c := im.cellFor(cellKey{series: s, parent: info.ParentID, parentProvider: info.ParentProvider, peer: info.Peer})
		c.dur.Observe(sec)
		c.bytes.Observe(float64(info.Bytes))
		if err != nil {
			c.errs.Add(1)
		}
	}
	return s
}

// handled records one RPC on the target side, when its handler
// responds (or returns without responding).
func (im *instMetrics) handled(info RPCInfo, queued, ran time.Duration) {
	s := im.seriesFor(info)
	q, r := queued.Seconds(), ran.Seconds()
	s.queue.Observe(q)
	im.aggQueue.Observe(q)
	s.run.Observe(r)
	im.aggRun.Observe(r)
	if im.monitoring.Load() {
		c := im.cellFor(cellKey{series: s, target: true, parent: noParent32, parentProvider: noParent16, peer: info.Peer})
		c.queued.Observe(q)
		c.dur.Observe(r)
		c.bytes.Observe(float64(info.Bytes))
	}
}

// listing1 builds the Listing-1 "rpcs" object from the recorded cells,
// keyed "parent_rpc_id:parent_provider_id:rpc_id:provider_id".
func (im *instMetrics) listing1() map[string]*RPCStats {
	out := map[string]*RPCStats{}
	im.cellsMu.RLock()
	defer im.cellsMu.RUnlock()
	for k, c := range im.cells {
		s := k.series
		key := fmt.Sprintf("%d:%d:%d:%d", uint32(k.parent), k.parentProvider, uint32(s.id), s.provider)
		st := out[key]
		if st == nil {
			st = &RPCStats{
				RPCID:            uint32(s.id),
				ProviderID:       s.provider,
				ParentRPCID:      uint32(k.parent),
				ParentProviderID: k.parentProvider,
				Name:             s.name,
				Origin:           map[string]*OriginStats{},
				Target:           map[string]*TargetStats{},
			}
			out[key] = st
		}
		if k.target {
			ts := &TargetStats{Bytes: sizeStats(c.bytes)}
			ts.ULT.Queued = durationStats(c.queued)
			ts.ULT.Duration = durationStats(c.dur)
			st.Target["received from "+k.peer] = ts
		} else {
			st.Origin["sent to "+k.peer] = &OriginStats{Duration: durationStats(c.dur), Bytes: sizeStats(c.bytes), Errors: c.errs.Load()}
		}
	}
	return out
}

// retried counts one retry attempt for the named RPC.
func (im *instMetrics) retried(name string) {
	im.retries.With(name).Inc()
}

// breakerState publishes a destination's breaker state transition
// (0 closed, 1 half-open, 2 open), matching resilience.State order.
func (im *instMetrics) breakerState(peer string, st resilience.State) {
	im.brkState.With(peer).Set(float64(st))
}

// breakerRejected counts a forward shed by an open breaker.
func (im *instMetrics) breakerRejected(peer string) {
	im.brkRejects.With(peer).Inc()
}

// Metrics returns the instance's metrics registry: RPC latency/queue/
// runtime histograms, in-flight gauge, pool and xstream gauges, and
// bulk-transfer sizes. Callers may register their own families on it;
// bedrock serves it over the GetMetrics RPC and the /metrics endpoint.
func (m *Instance) Metrics() *metrics.Registry {
	return m.metrics.reg
}
