package margo

import (
	"encoding/json"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"mochi/internal/mercury"
	"mochi/internal/metrics"
)

// The paper's Listing 1 uses 65535 as the "no parent" sentinel for
// both RPC and provider IDs.
const (
	noParent32 = 0xFFFFFFFF
	noParent16 = 0xFFFF
)

// RPCInfo describes one RPC event at a hook point.
type RPCInfo struct {
	Name           string
	ID             mercury.RPCID
	Provider       uint16
	ParentID       mercury.RPCID
	ParentProvider uint16
	Peer           string
	Bytes          int
}

// Hook is a set of user callbacks injected into the RPC lifecycle
// (§4). Nil members are skipped. Callbacks must be fast and must not
// block; they run on the RPC paths.
type Hook struct {
	// OnForwardStart fires when this process sends a request.
	OnForwardStart func(RPCInfo)
	// OnForwardEnd fires when the response arrives (or fails).
	OnForwardEnd func(RPCInfo, time.Duration, error)
	// OnHandlerQueued fires when an incoming RPC is submitted as a ULT.
	OnHandlerQueued func(RPCInfo)
	// OnHandlerStart fires when the ULT begins, with its queueing delay.
	OnHandlerStart func(RPCInfo, time.Duration)
	// OnHandlerEnd fires when the ULT completes, with its run time.
	OnHandlerEnd func(RPCInfo, time.Duration)
}

// hookSet holds the hooks added through AddHook as a copy-on-write
// slice: the RPC paths read it with one atomic load and no lock.
type hookSet struct {
	mu    sync.Mutex // serializes writers
	hooks atomic.Pointer[hookList]
}

// hookList is an immutable snapshot of the registered hooks.
type hookList []*Hook

func (s *hookSet) load() hookList {
	if l := s.hooks.Load(); l != nil {
		return *l
	}
	return nil
}

func (s *hookSet) add(h *Hook) func() {
	s.mu.Lock()
	next := append(append(hookList(nil), s.load()...), h)
	s.hooks.Store(&next)
	s.mu.Unlock()
	return func() {
		s.mu.Lock()
		defer s.mu.Unlock()
		var next hookList
		for _, x := range s.load() {
			if x != h {
				next = append(next, x)
			}
		}
		s.hooks.Store(&next)
	}
}

func (l hookList) forwardStart(i RPCInfo) {
	for _, h := range l {
		if h.OnForwardStart != nil {
			h.OnForwardStart(i)
		}
	}
}

func (l hookList) forwardEnd(i RPCInfo, d time.Duration, err error) {
	for _, h := range l {
		if h.OnForwardEnd != nil {
			h.OnForwardEnd(i, d, err)
		}
	}
}

func (l hookList) handlerQueued(i RPCInfo) {
	for _, h := range l {
		if h.OnHandlerQueued != nil {
			h.OnHandlerQueued(i)
		}
	}
}

func (l hookList) handlerStart(i RPCInfo, d time.Duration) {
	for _, h := range l {
		if h.OnHandlerStart != nil {
			h.OnHandlerStart(i, d)
		}
	}
}

func (l hookList) handlerEnd(i RPCInfo, d time.Duration) {
	for _, h := range l {
		if h.OnHandlerEnd != nil {
			h.OnHandlerEnd(i, d)
		}
	}
}

// DurationStats summarizes a series of durations as num/avg/min/max/sum
// (seconds, like Listing 1).
type DurationStats struct {
	Num int64   `json:"num"`
	Avg float64 `json:"avg"`
	Min float64 `json:"min"`
	Max float64 `json:"max"`
	Sum float64 `json:"sum"`
}

// durationStats summarizes a Listing-1 cell's duration histogram.
func durationStats(h *metrics.Histogram) DurationStats {
	hs := h.Snapshot()
	return DurationStats{Num: int64(hs.Count), Avg: hs.Mean(), Min: hs.Min, Max: hs.Max, Sum: hs.Sum}
}

// SizeStats summarizes message sizes in bytes.
type SizeStats struct {
	Num int64 `json:"num"`
	Avg int64 `json:"avg"`
	Min int64 `json:"min"`
	Max int64 `json:"max"`
	Sum int64 `json:"sum"`
}

// sizeStats summarizes a Listing-1 cell's size histogram.
func sizeStats(h *metrics.Histogram) SizeStats {
	hs := h.Snapshot()
	return SizeStats{Num: int64(hs.Count), Avg: int64(hs.Mean()), Min: int64(hs.Min), Max: int64(hs.Max), Sum: int64(hs.Sum)}
}

// OriginStats is the origin-side view of one (rpc, peer) pair.
type OriginStats struct {
	Duration DurationStats `json:"duration"` // forward round-trip
	Bytes    SizeStats     `json:"bytes"`
	Errors   int64         `json:"errors"`
}

// TargetStats is the target-side view of one (rpc, peer) pair;
// "ult" matches the nesting of Listing 1.
type TargetStats struct {
	ULT struct {
		Queued   DurationStats `json:"queued"`
		Duration DurationStats `json:"duration"`
	} `json:"ult"`
	Bytes SizeStats `json:"bytes"`
}

// RPCStats aggregates one RPC key, following Listing 1's fields.
type RPCStats struct {
	RPCID            uint32                  `json:"rpc_id"`
	ProviderID       uint16                  `json:"provider_id"`
	ParentRPCID      uint32                  `json:"parent_rpc_id"`
	ParentProviderID uint16                  `json:"parent_provider_id"`
	Name             string                  `json:"name"`
	Origin           map[string]*OriginStats `json:"origin"`
	Target           map[string]*TargetStats `json:"target"`
}

// ProgressSample is one periodic sample of runtime gauges (§4: "It
// periodically tracks the number of in-flight RPCs and the sizes of
// user-level thread pools").
type ProgressSample struct {
	TimestampMS int64          `json:"timestamp_ms"`
	InFlight    int64          `json:"in_flight_rpcs"`
	PoolSizes   map[string]int `json:"pool_sizes"`
}

// BulkStats aggregates RDMA-like bulk transfers with one peer; the
// mercury class counts them.
type BulkStats = mercury.BulkStats

// StatsSnapshot is the JSON-ready monitor state (Listing 1 schema:
// a top-level "rpcs" object keyed by
// "parent_rpc_id:parent_provider_id:rpc_id:provider_id").
type StatsSnapshot struct {
	Address string                `json:"address"`
	RPCs    map[string]*RPCStats  `json:"rpcs"`
	Bulk    map[string]*BulkStats `json:"bulk,omitempty"`
	Samples []ProgressSample      `json:"progress_samples,omitempty"`
}

// MarshalJSON is the standard encoding; method present for clarity.
func (s *StatsSnapshot) JSON() ([]byte, error) {
	return json.MarshalIndent(s, "", "  ")
}

// Monitor is the default monitoring implementation (§4). The per-RPC
// statistics are the Listing-1 cells that margo's single record step
// fills while monitoring is enabled; the monitor adds the periodic
// sampler, the bulk-transfer window, and the Listing-1 JSON view.
type Monitor struct {
	inst   *Instance
	period time.Duration

	mu      sync.Mutex
	enabled bool
	samples []ProgressSample
	// The class counts bulk transfers per peer all the time; the
	// Listing-1 "bulk" section is what it counted while monitoring was
	// enabled: bulkKept from earlier enabled windows, plus the growth
	// since bulkBase while enabled.
	bulkBase map[string]BulkStats
	bulkKept map[string]BulkStats

	stop   chan struct{}
	stopWG sync.WaitGroup
}

func newMonitor(inst *Instance, period time.Duration) *Monitor {
	return &Monitor{
		inst:     inst,
		period:   period,
		bulkKept: map[string]BulkStats{},
	}
}

func (mo *Monitor) enable() {
	mo.mu.Lock()
	defer mo.mu.Unlock()
	if mo.enabled {
		return
	}
	mo.enabled = true
	mo.stop = make(chan struct{})
	mo.bulkBase = mo.inst.class.BulkPeers()
	mo.inst.metrics.monitoring.Store(true)
	mo.stopWG.Add(1)
	go mo.sampleLoop(mo.stop)
}

func (mo *Monitor) sampleLoop(stop <-chan struct{}) {
	defer mo.stopWG.Done()
	tick := mo.inst.clk.NewTicker(mo.period)
	defer tick.Stop()
	for {
		select {
		case <-tick.C():
			mo.sampleOnce()
		case <-stop:
			return
		}
	}
}

func (mo *Monitor) sampleOnce() {
	rt := mo.inst.Runtime()
	sizes := map[string]int{}
	for _, name := range rt.PoolNames() {
		if p, ok := rt.FindPool(name); ok {
			sizes[name] = p.Len()
		}
	}
	mo.mu.Lock()
	mo.samples = append(mo.samples, ProgressSample{
		TimestampMS: mo.inst.clk.Now().UnixMilli(),
		InFlight:    int64(mo.inst.metrics.inflight.Value()),
		PoolSizes:   sizes,
	})
	// Bound memory: keep the most recent 10k samples.
	if len(mo.samples) > 10000 {
		mo.samples = mo.samples[len(mo.samples)-10000:]
	}
	mo.mu.Unlock()
}

func (mo *Monitor) disable() {
	mo.mu.Lock()
	if !mo.enabled {
		mo.mu.Unlock()
		return
	}
	mo.enabled = false
	mo.inst.metrics.monitoring.Store(false)
	addBulkGrowth(mo.bulkKept, mo.inst.class.BulkPeers(), mo.bulkBase)
	stop := mo.stop
	mo.mu.Unlock()
	close(stop)
	mo.stopWG.Wait()
}

// addBulkGrowth adds to dst, per peer, what the totals in now grew by
// since base.
func addBulkGrowth(dst, now, base map[string]BulkStats) {
	for peer, n := range now {
		b, d := base[peer], dst[peer]
		if n == b {
			continue
		}
		d.Pulls += n.Pulls - b.Pulls
		d.Pushes += n.Pushes - b.Pushes
		d.BytesIn += n.BytesIn - b.BytesIn
		d.BytesOut += n.BytesOut - b.BytesOut
		dst[peer] = d
	}
}

// snapshot renders the Listing-1 document from the recorded cells.
func (mo *Monitor) snapshot() *StatsSnapshot {
	out := &StatsSnapshot{
		Address: mo.inst.Addr(),
		RPCs:    mo.inst.metrics.listing1(),
	}
	bulk := map[string]BulkStats{}
	mo.mu.Lock()
	addBulkGrowth(bulk, mo.bulkKept, nil)
	if mo.enabled {
		addBulkGrowth(bulk, mo.inst.class.BulkPeers(), mo.bulkBase)
	}
	out.Samples = append([]ProgressSample(nil), mo.samples...)
	mo.mu.Unlock()
	if len(bulk) > 0 {
		out.Bulk = make(map[string]*BulkStats, len(bulk))
		for peer, n := range bulk {
			out.Bulk[peer] = &n
		}
	}
	return out
}

// Keys returns the sorted stat keys in the snapshot, convenience for
// tests and tools.
func (s *StatsSnapshot) Keys() []string {
	keys := make([]string, 0, len(s.RPCs))
	for k := range s.RPCs {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// FindByName returns the first RPCStats entry with the given RPC name
// and a true flag, or nil and false.
func (s *StatsSnapshot) FindByName(name string) (*RPCStats, bool) {
	for _, k := range s.Keys() {
		if s.RPCs[k].Name == name {
			return s.RPCs[k], true
		}
	}
	return nil, false
}
