package main

import (
	"runtime"
	"sort"
	"sync/atomic"
	"time"

	"mochi/internal/margo"
	"mochi/internal/mercury"
	"mochi/internal/metrics"
	"mochi/internal/trace"
)

// Operation roles: the client-facing RPC an op turns into, whatever the
// workload. Per-RPC layer metrics are named by role so every workload
// prints the same metric names.
const (
	roleGet = iota
	rolePut
	roleOther
)

func roleOf(rpc string) int {
	switch rpc {
	case "yokan_get", "raft_read", "xkv_get":
		return roleGet
	case "yokan_put", "raft_apply", "xkv_put":
		return rolePut
	}
	return roleOther
}

var roleNames = [2]string{"get", "put"}

// layers is the traced run's measurement from outside the program:
// timing decorators, margo hooks, a mercury monitor on the client
// classes, the program's own spans, and deltas of its metric
// registries. Nothing is recorded until begin.
type layers struct {
	on atomic.Bool

	db    dbTimes    // the yokan provider's database
	fsm   dbTimes    // raft state-machine databases
	store storeTimes // raft log stores

	// Server-side hooks, by role.
	queue, handler [2]hist
	appendEntries  hist // raft_append_entries handler
	remiBegin      hist // remi_begin handler on the destination
	// Origin-side forwards of the reshard protocol.
	stageFwd, prepareFwd, remiFwd, promoteFwd hist

	reqBytes, respBytes atomic.Uint64

	insts   []*margo.Instance
	clients []*mercury.Class
	hooks   []func()
	before  [][]metrics.FamilySnapshot
	after   [][]metrics.FamilySnapshot
	mem0    runtime.MemStats
	mem1    runtime.MemStats
}

func newLayers() *layers {
	l := &layers{}
	l.db.on, l.fsm.on, l.store.on = &l.on, &l.on, &l.on
	return l
}

// spanRing is each instance's span ring size in a traced run; sampling
// stops once any ring is half full, so ops in flight at that moment
// still fit and no span is ever evicted.
const spanRing = 1 << 16

// watch registers the instances whose hooks, tracers and registries
// the traced run reads, and the client classes whose wire bytes it
// counts. Call before begin.
func (l *layers) watch(insts []*margo.Instance, clients []*margo.Instance) {
	l.insts = append(l.insts, insts...)
	for _, c := range clients {
		l.insts = append(l.insts, c)
		l.clients = append(l.clients, c.Class())
	}
	for _, in := range l.insts {
		in.Tracer().SetCapacity(spanRing)
		in.Tracer().Reset()
	}
}

func (l *layers) hook() *margo.Hook {
	return &margo.Hook{
		OnHandlerStart: func(info margo.RPCInfo, queued time.Duration) {
			if r := roleOf(info.Name); r != roleOther {
				l.queue[r].record(queued)
			}
		},
		OnHandlerEnd: func(info margo.RPCInfo, d time.Duration) {
			switch info.Name {
			case "raft_append_entries":
				l.appendEntries.record(d)
			case "remi_begin":
				l.remiBegin.record(d)
			default:
				if r := roleOf(info.Name); r != roleOther {
					l.handler[r].record(d)
				}
			}
		},
		OnForwardEnd: func(info margo.RPCInfo, d time.Duration, _ error) {
			switch info.Name {
			case "xkv_mig_stage":
				l.stageFwd.record(d)
			case "xkv_mig_prepare":
				l.prepareFwd.record(d)
			case "remi_begin":
				l.remiFwd.record(d)
			case "xkv_mig_promote":
				l.promoteFwd.record(d)
			}
		},
	}
}

// begin starts recording: hooks, monitor, decorators, registry and
// allocation baselines, and head sampling at rate 1.0.
func (l *layers) begin() {
	for _, in := range l.insts {
		l.hooks = append(l.hooks, in.AddHook(l.hook()))
		l.before = append(l.before, in.Metrics().Snapshot())
		in.Tracer().SetSampleRate(1)
	}
	for _, c := range l.clients {
		c.SetMonitor(wireBytes{l})
	}
	l.on.Store(true)
	runtime.ReadMemStats(&l.mem0)
}

// end stops recording and takes the closing snapshots.
func (l *layers) end() {
	runtime.ReadMemStats(&l.mem1)
	l.on.Store(false)
	l.stopSampling()
	for _, c := range l.clients {
		c.SetMonitor(nil)
	}
	for _, rm := range l.hooks {
		rm()
	}
	for _, in := range l.insts {
		l.after = append(l.after, in.Metrics().Snapshot())
	}
}

func (l *layers) stopSampling() {
	for _, in := range l.insts {
		in.Tracer().SetSampleRate(0)
	}
}

// ringsHalfFull reports whether any tracer ring is at least half full.
func (l *layers) ringsHalfFull() bool {
	for _, in := range l.insts {
		if in.Tracer().Len() >= spanRing/2 {
			return true
		}
	}
	return false
}

func (l *layers) evicted() uint64 {
	var n uint64
	for _, in := range l.insts {
		n += in.Tracer().Evicted()
	}
	return n
}

// registryDelta sums one histogram family over all series and watched
// instances, between begin and end.
func (l *layers) registryDelta(family string) *metrics.HistogramSnapshot {
	out := &metrics.HistogramSnapshot{}
	for i := range l.after {
		before := familyHist(l.before[i], family)
		after := familyHist(l.after[i], family)
		if after == nil {
			continue
		}
		if out.Counts == nil {
			out.Upper, out.Counts = after.Upper, make([]uint64, len(after.Counts))
		}
		for j, c := range after.Counts {
			out.Counts[j] += c
			if before != nil {
				out.Counts[j] -= before.Counts[j]
			}
		}
		out.Count += after.Count
		out.Sum += after.Sum
		if before != nil {
			out.Count -= before.Count
			out.Sum -= before.Sum
		}
		out.Max = max(out.Max, after.Max)
	}
	return out
}

// familyHist sums the histogram series of one family in a registry
// snapshot (nil when it has none).
func familyHist(fams []metrics.FamilySnapshot, family string) *metrics.HistogramSnapshot {
	var out *metrics.HistogramSnapshot
	for _, f := range fams {
		if f.Name != family {
			continue
		}
		for _, s := range f.Series {
			if s.Hist == nil {
				continue
			}
			if out == nil {
				out = &metrics.HistogramSnapshot{Upper: s.Hist.Upper, Counts: make([]uint64, len(s.Hist.Counts))}
			}
			for j, c := range s.Hist.Counts {
				out.Counts[j] += c
			}
			out.Count += s.Hist.Count
			out.Sum += s.Hist.Sum
			out.Max = max(out.Max, s.Hist.Max)
		}
	}
	return out
}

// wireBytes is a mercury.Monitor counting request and response bytes
// on the client classes.
type wireBytes struct{ l *layers }

func (w wireBytes) SentRequest(_ mercury.RPCID, _ uint16, _ string, n int) {
	w.l.reqBytes.Add(uint64(n))
}
func (w wireBytes) ReceivedRequest(mercury.RPCID, uint16, string, int) {}
func (w wireBytes) SentResponse(mercury.RPCID, uint16, string, int)    {}
func (w wireBytes) ReceivedResponse(_ mercury.RPCID, _ uint16, _ string, n int) {
	w.l.respBytes.Add(uint64(n))
}
func (w wireBytes) BulkTransferred(mercury.BulkOp, string, int) {}

// Layers a sampled op's time is attributed to, by span kind. The root
// span is the benchmark's own, around the client library call.
const (
	layerClient   = iota // root self time: client library, codec
	layerMercury         // client span minus server span: wire, transport, codec
	layerDispatch        // server span minus queue and handler
	layerQueue           // margo queue wait
	layerHandler         // handler self time: the provider
	layerBulk            // bulk transfers issued by handlers
	nLayers
)

func layerOf(k trace.Kind) int {
	switch k {
	case trace.KindServer:
		return layerDispatch
	case trace.KindQueue:
		return layerQueue
	case trace.KindHandler:
		return layerHandler
	case trace.KindBulk:
		return layerBulk
	}
	return layerMercury
}

// spanTree indexes every committed span by its parent.
type spanTree map[trace.ID][]trace.Span

func (l *layers) spanTree() spanTree {
	t := spanTree{}
	for _, in := range l.insts {
		for _, s := range in.Tracer().Spans() {
			t[s.Parent] = append(t[s.Parent], s)
		}
	}
	return t
}

// attribute adds the self time of span id, clipped to [lo, hi], to
// out[layer], after recursing into its children. Children are clipped
// to [lo, hi] and, in start order, to the end of the previous child:
// span starts are wall-clock readings and durations monotonic ones, so
// on a loaded host adjacent spans can overlap by microseconds (the
// trimmed time is added to *trimmed). Self time is the clipped
// interval minus the children's, so the layers of one op sum to its
// root span unless a span is reached twice.
func (t spanTree) attribute(layer int, id trace.ID, lo, hi int64, out *[nLayers]int64, trimmed *int64) {
	kids := append([]trace.Span(nil), t[id]...)
	sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
	covered, end := int64(0), lo
	for _, k := range kids {
		a, b := max(k.Start, lo), min(k.Start+k.Duration, hi)
		if a < end {
			*trimmed += min(end, b) - a
			a = end
		}
		if b <= a {
			continue
		}
		t.attribute(layerOf(k.Kind), k.SpanID, a, b, out, trimmed)
		covered += b - a
		end = b
	}
	out[layer] += hi - lo - covered
}

// waterfall is the per-role self-time breakdown over sampled ops.
type waterfall struct {
	self       [2][nLayers]hist
	ops        int
	rootNanos  int64
	trimmed    int64 // overlap trimmed between sibling spans
	violations int   // ops whose layer self times exceed their root span
}

func (l *layers) waterfall(sessions []*session) *waterfall {
	t := l.spanTree()
	w := &waterfall{}
	for _, s := range sessions {
		for _, r := range s.roots {
			var out [nLayers]int64
			t.attribute(layerClient, r.span, r.start, r.start+r.dur, &out, &w.trimmed)
			role := roleGet
			if r.put {
				role = rolePut
			}
			var sum int64
			for i, v := range out {
				sum += v
				w.self[role][i].record(time.Duration(v))
			}
			if sum > r.dur {
				w.violations++
			}
			w.ops++
			w.rootNanos += r.dur
		}
	}
	return w
}
