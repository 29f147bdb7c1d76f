package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"mochi/internal/trace"
)

// kv is the client surface every workload drives.
type kv interface {
	Get(ctx context.Context, key []byte) ([]byte, error)
	Put(ctx context.Context, key, value []byte) error
}

// The driver records each op into the slot current when the op
// started: a measured sub-window, or one of these.
const (
	slotWarm = -1 // caches fill, lazy set-up finishes; not recorded
	slotStop = -2
)

// slotStats is what one slot records, per session.
type slotStats struct {
	get, put hist
	// overlap holds ops that overlapped a migration window.
	overlap hist
	ops     uint64
	failed  uint64
}

// rootSpan is one sampled op's benchmark-side root span.
type rootSpan struct {
	trace, span trace.ID
	start, dur  int64
	put         bool
}

// rateTick is the resolution of the throughput series. Throughput is
// the interquartile mean over ticks: a 100 ms tick isolates a GC cycle
// or a host hiccup in a few ticks, where a one-second slot would
// average it in.
const rateTick = 100 * time.Millisecond

// maxRoots bounds the sampled ops a session keeps per run.
const maxRoots = 1 << 15

// session is one closed-loop client: it sends its next op only after
// the previous one returns, like an HPC rank blocking on each reply.
type session struct {
	id     int
	cli    kv
	tracer *trace.Tracer // opens root spans while sampling is on
	gen    *opStream
	keys   [][]byte
	val    []byte

	// ledger[k] is the write sequence of the last acked put of key k
	// by this session (0: none). maybe[k] lists sequences of puts that
	// failed and so may or may not have applied.
	ledger []uint64
	maybe  map[int][]uint64
	seq    uint64

	stats []slotStats // by slot
	// done[i] counts ops completed in the i-th rateTick of the window
	// (untraced runs only).
	done  []uint32
	roots []rootSpan
	wrong int // gets that returned another key's value or none
	err   error
}

// driver runs the sessions through the slots.
type driver struct {
	sessions []*session
	slot     atomic.Int32
	t0       atomic.Int64 // window start, Unix ns
	// While sampling is set, ops in tracedSlot open sampled root spans.
	tracedSlot int32
	sampling   atomic.Bool
	// migActive/migGen let an op tell, at its end, whether a migration
	// was in progress at any point while it ran.
	migActive atomic.Int32
	migGen    atomic.Uint64
	wg        sync.WaitGroup
}

func (d *driver) start(ctx context.Context) {
	for _, s := range d.sessions {
		d.wg.Add(1)
		go func(s *session) {
			defer d.wg.Done()
			d.loop(ctx, s)
		}(s)
	}
}

// stop ends the load and waits for the sessions, or gives up after
// limit so a hung operation fails the run instead of hanging it.
func (d *driver) stop(limit time.Duration) error {
	d.slot.Store(slotStop)
	done := make(chan struct{})
	go func() { d.wg.Wait(); close(done) }()
	select {
	case <-done:
		return nil
	case <-time.After(limit):
		return errors.New("sessions did not stop: an operation hung")
	}
}

func (d *driver) loop(ctx context.Context, s *session) {
	for {
		sl := d.slot.Load()
		if sl == slotStop {
			return
		}
		o := s.gen.next()
		opCtx := ctx
		var root rootSpan
		sampled := sl == d.tracedSlot && d.sampling.Load() && len(s.roots) < maxRoots
		if sampled {
			root = rootSpan{trace: s.tracer.NewID(), span: s.tracer.NewID(), put: o.put}
			opCtx = trace.NewContext(ctx, trace.SpanContext{TraceID: root.trace, Parent: root.span, Flags: trace.FlagSampled})
		}
		migGen := d.migGen.Load()
		migActive := d.migActive.Load() != 0
		start := time.Now()
		var err error
		if o.put {
			s.seq++
			fillValue(s.val, o.key, byte('0'+s.id), s.seq)
			if err = s.cli.Put(opCtx, s.keys[o.key], s.val); err == nil {
				s.ledger[o.key] = s.seq
			} else {
				s.maybe[o.key] = append(s.maybe[o.key], s.seq)
			}
		} else {
			var v []byte
			v, err = s.cli.Get(opCtx, s.keys[o.key])
			if err == nil && !valueHasKey(v, o.key) {
				s.wrong++
			}
		}
		lat := time.Since(start)
		if sl < 0 {
			continue
		}
		st := &s.stats[sl]
		st.ops++
		if err != nil {
			st.failed++
			if s.err == nil {
				s.err = err
			}
			continue
		}
		if o.put {
			st.put.record(lat)
		} else {
			st.get.record(lat)
		}
		if i := (start.Add(lat).UnixNano() - d.t0.Load()) / int64(rateTick); i >= 0 && i < int64(len(s.done)) {
			s.done[i]++
		}
		if migActive || d.migActive.Load() != 0 || d.migGen.Load() != migGen {
			st.overlap.record(lat)
		}
		if sampled {
			root.start, root.dur = start.UnixNano(), int64(lat)
			s.roots = append(s.roots, root)
		}
	}
}

// migration brackets one reconfiguration for the overlap accounting.
func (d *driver) migration(run func() error) error {
	d.migActive.Add(1)
	d.migGen.Add(1)
	defer func() {
		d.migGen.Add(1)
		d.migActive.Add(-1)
	}()
	return run()
}

// merged folds every session's stats for slots [lo, hi) together.
func (d *driver) merged(lo, hi int) *slotStats {
	out := &slotStats{}
	for _, s := range d.sessions {
		for i := lo; i < hi; i++ {
			st := &s.stats[i]
			out.get.merge(&st.get)
			out.put.merge(&st.put)
			out.overlap.merge(&st.overlap)
			out.ops += st.ops
			out.failed += st.failed
		}
	}
	return out
}

// verify reads back every key each session wrote, through reader, and
// counts values that are not the last acked write (or one of the
// failed writes that may have landed after it). workers bounds the
// concurrent reads.
func verify(ctx context.Context, reader kv, sessions []*session, workers int) (checked, lost int, err error) {
	type item struct {
		s   *session
		key int
	}
	var items []item
	for _, s := range sessions {
		for k, seq := range s.ledger {
			if seq != 0 || len(s.maybe[k]) > 0 {
				items = append(items, item{s, k})
			}
		}
	}
	var (
		next    atomic.Int64
		nlost   atomic.Int64
		errOnce sync.Once
		wg      sync.WaitGroup
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			want := make([]byte, len(sessions[0].val))
			for {
				i := int(next.Add(1)) - 1
				if i >= len(items) {
					return
				}
				it := items[i]
				v, gerr := reader.Get(ctx, it.s.keys[it.key])
				if gerr != nil {
					errOnce.Do(func() { err = fmt.Errorf("read back %s: %w", it.s.keys[it.key], gerr) })
					return
				}
				if !matchesLedger(v, want, it.s, it.key) {
					nlost.Add(1)
				}
			}
		}()
	}
	wg.Wait()
	return len(items), int(nlost.Load()), err
}

func matchesLedger(v, want []byte, s *session, key int) bool {
	cands := append([]uint64{s.ledger[key]}, s.maybe[key]...)
	for _, seq := range cands {
		if seq == 0 {
			fillValue(want, key, 'p', 0)
		} else {
			fillValue(want, key, byte('0'+s.id), seq)
		}
		if bytes.Equal(v, want) {
			return true
		}
	}
	return false
}
