package main

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"mochi/internal/core"
	"mochi/internal/margo"
	"mochi/internal/mercury"
	"mochi/internal/raft"
	"mochi/internal/yokan"
	"mochi/internal/yokan/router"
)

// workload is one benchmark input: a deployment and a traffic mix.
type workload struct {
	name      string
	why       string
	keys      int
	valueSize int
	readFrac  float64
	setup     func(r *run, dir string) (*deployment, error)
}

// The rationale recorded with every run, so later changes can cite it.
const (
	loadShape = "one process holds the servers and the load generator; closed loop of 2 client sessions, " +
		"each with its own margo instance; default margo/argobots configuration (one pool, one xstream); " +
		"TCP pool default min(4, GOMAXPROCS) connections per destination; YCSB zipfian keys (theta 0.99, " +
		"scrambled) from the --seed argument; keys preloaded through yokan PutMulti where the API has it"
	flushPolicy = "sync off: raft FileStore nosync=true, so its write syscalls and the counts fsync would " +
		"multiply (raft appends/op, entries/append) are measured but not the shared virtual disk; router " +
		"shards use the map backend, since log-backend file churn on that disk swung reshard ops/s 12k-22k"
	smDelay = "none: the sm fabric runs with its zero-cost model, so sm latency is processor time"
)

var workloads = []*workload{
	{
		name: "yokan-tcp-ycsb-b",
		why: "per-message path: codec, mercury TCP framing and margo dispatch dominate, storage is a map " +
			"lookup; raft, router and remi are bypassed, so their optimisations must show no change here",
		keys: 100_000, valueSize: 128, readFrac: 0.95,
		setup: setupYokan,
	},
	{
		name: "raft-sm-ycsb-a",
		why: "replication path: leader append, AppendEntries, commit, batched apply and ReadIndex dominate, " +
			"transport is almost free; writes and reads take different raft paths in one run",
		keys: 10_000, valueSize: 128, readFrac: 0.5,
		setup: setupRaft,
	},
	{
		name: "reshard-tcp-ycsb-a",
		why: "per-byte, write-heavy path with 4 KiB values, and the only workload with router " +
			"dual-writes, redirects and remi migration of 2.5 MB shard snapshots (one reshard every 3 s)",
		keys: 5_000, valueSize: 4096, readFrac: 0.5,
		setup: setupReshard,
	},
}

func findWorkload(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// prediction says which end-to-end metric a per-layer metric should
// move, and on which workloads.
type prediction struct {
	Layer     string   `json:"layer"`
	Moves     string   `json:"moves"`
	Workloads []string `json:"workloads"`
}

var predictions = []prediction{
	{"mercury.wire_us.*, mercury.frames_per_writev, mercury.req_bytes, mercury.resp_bytes",
		"get_p50_us, cpu_us_per_op, ops_per_s", []string{"yokan-tcp-ycsb-b"}},
	{"margo.queue_wait_p50_us.*, margo.queue_wait_p99_us.*, margo.handler_us.*",
		"get_p99_us", []string{"yokan-tcp-ycsb-b", "reshard-tcp-ycsb-a"}},
	{"yokan.db_get_us, yokan.db_put_us, yokan.provider_us",
		"get_p50_us, only up to storage's small share", []string{"yokan-tcp-ycsb-b"}},
	{"raft.appends_per_op, raft.entries_per_append, raft.store_append_us, raft.append_entries_handler_us, " +
		"raft.fsm_apply_us, raft.fsm_read_us, raft.commit_latency_us, raft.readindex_batch",
		"put_p50_us, get_p50_us, cpu_us_per_op, ops_per_s, allocs_per_op", []string{"raft-sm-ycsb-a"}},
	{"router.redirects_per_kop, router.dual_writes_per_kop, router.stage_fwd_us, router.phase_ms.*",
		"put_p99_us, reshard.migration_op_p99_us", []string{"reshard-tcp-ycsb-a"}},
	{"remi.begin_handler_ms, remi.mb_per_s", "reshard.migration_p50_ms", []string{"reshard-tcp-ycsb-a"}},
	{"go.bytes_per_op, go.gc_per_kop, trace.overhead_frac", "cpu_us_per_op, ops_per_s",
		[]string{"yokan-tcp-ycsb-b", "raft-sm-ycsb-a", "reshard-tcp-ycsb-a"}},
}

func predictionsFor(name string) []prediction {
	var out []prediction
	for _, p := range predictions {
		for _, w := range p.Workloads {
			if w == name {
				out = append(out, p)
			}
		}
	}
	return out
}

// closers releases a deployment's parts in reverse order.
type closers []func()

func (c closers) close() {
	for i := len(c) - 1; i >= 0; i-- {
		c[i]()
	}
}

func newTCPInstance(cl *closers) (*margo.Instance, error) {
	cls, err := mercury.NewTCPClass("127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	inst, err := margo.New(cls, nil)
	if err != nil {
		cls.Close()
		return nil, err
	}
	*cl = append(*cl, inst.Finalize)
	return inst, nil
}

// preloadPairs calls put with the preloaded value of every key, in
// batches of at most batch pairs.
func preloadPairs(r *run, batch int, put func([]yokan.KeyValue) error) error {
	slab := make([]byte, batch*r.w.valueSize)
	pairs := make([]yokan.KeyValue, 0, batch)
	for k := 0; k < len(r.keys); k += batch {
		pairs = pairs[:0]
		for i := k; i < len(r.keys) && i < k+batch; i++ {
			v := slab[(i-k)*r.w.valueSize : (i-k+1)*r.w.valueSize]
			fillValue(v, i, 'p', 0)
			pairs = append(pairs, yokan.KeyValue{Key: r.keys[i], Value: v})
		}
		if err := put(pairs); err != nil {
			return err
		}
	}
	return nil
}

const yokanProvider = 1

// setupYokan: one yokan provider (map backend) on its own TCP
// endpoint; each session talks to it through a yokan client handle.
func setupYokan(r *run, _ string) (dep *deployment, err error) {
	var cl closers
	defer func() {
		if err != nil {
			cl.close()
		}
	}()
	srv, err := newTCPInstance(&cl)
	if err != nil {
		return nil, err
	}
	cfg := yokan.Config{Type: "map"}
	db, err := yokan.Open(cfg)
	if err != nil {
		return nil, err
	}
	if r.layers != nil {
		db = wrapDB(db, &r.layers.db)
	}
	p, err := yokan.NewProviderWithDatabase(srv, yokanProvider, nil, db, cfg)
	if err != nil {
		db.Close()
		return nil, err
	}
	cl = append(cl, func() { p.Close() })

	dep = &deployment{servers: []*margo.Instance{srv}}
	var handles []*yokan.DatabaseHandle
	for i := 0; i < sessions; i++ {
		inst, err := newTCPInstance(&cl)
		if err != nil {
			return nil, err
		}
		h := yokan.NewClient(inst).Handle(srv.Addr(), yokanProvider)
		handles = append(handles, h)
		dep.clients = append(dep.clients, h)
		dep.clientInsts = append(dep.clientInsts, inst)
	}
	ctx := context.Background()
	if err := preloadPairs(r, 1000, func(p []yokan.KeyValue) error { return handles[0].PutMulti(ctx, p) }); err != nil {
		return nil, fmt.Errorf("preload: %w", err)
	}
	dep.reader = func(context.Context) (kv, int, error) { return handles[0], 4, nil }
	dep.close = cl.close
	return dep, nil
}

const raftGroup = "kv"

// setupRaft: a 3-member RaftKV group on the sm fabric with FileStore
// logs; each session is its own RaftKVClient (its own at-most-once
// session). Every member's state machine is preloaded identically
// through yokan PutMulti before the group starts.
func setupRaft(r *run, dir string) (dep *deployment, err error) {
	var cl closers
	defer func() {
		if err != nil {
			cl.close()
		}
	}()
	fabric := mercury.NewFabric()
	var insts []*margo.Instance
	var addrs []string
	for i := 0; i < 3; i++ {
		cls, err := fabric.NewClass(fmt.Sprintf("member-%d", i))
		if err != nil {
			return nil, err
		}
		inst, err := margo.New(cls, nil)
		if err != nil {
			return nil, err
		}
		cl = append(cl, inst.Finalize)
		insts = append(insts, inst)
		addrs = append(addrs, inst.Addr())
	}
	var nodes []*raft.Node
	for i, inst := range insts {
		fs, err := raft.NewFileStore(filepath.Join(dir, fmt.Sprintf("member-%d", i)), true)
		if err != nil {
			return nil, err
		}
		cl = append(cl, func() { fs.Close() })
		var store raft.Store = fs
		db, err := yokan.Open(yokan.Config{Type: "map"})
		if err != nil {
			return nil, err
		}
		cl = append(cl, func() { db.Close() })
		bw, ok := db.(yokan.BatchWriter)
		if !ok {
			return nil, errors.New("map backend lost its PutMulti")
		}
		if err := preloadPairs(r, 1000, bw.PutMulti); err != nil {
			return nil, fmt.Errorf("preload: %w", err)
		}
		if r.layers != nil {
			store = &timedStore{Store: fs, t: &r.layers.store}
			db = wrapDB(db, &r.layers.fsm)
		}
		node, err := core.NewRaftKVNode(inst, raftGroup, addrs, store, db, raft.Config{})
		if err != nil {
			return nil, err
		}
		cl = append(cl, node.Stop)
		nodes = append(nodes, node)
	}

	dep = &deployment{servers: insts}
	var kvs []*core.RaftKVClient
	for i := 0; i < sessions; i++ {
		cls, err := fabric.NewClass(fmt.Sprintf("client-%d", i))
		if err != nil {
			return nil, err
		}
		inst, err := margo.New(cls, nil)
		if err != nil {
			return nil, err
		}
		cl = append(cl, inst.Finalize)
		c := core.NewRaftKVClient(inst, raftGroup, addrs)
		kvs = append(kvs, c)
		dep.clients = append(dep.clients, c)
		dep.clientInsts = append(dep.clientInsts, inst)
	}
	// The group is up once a leader commits a write: rewrite key 0
	// with its preloaded value.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	v := make([]byte, r.w.valueSize)
	fillValue(v, 0, 'p', 0)
	if err := kvs[0].Put(ctx, r.keys[0], v); err != nil {
		return nil, fmt.Errorf("first write: %w", err)
	}
	dep.reader = func(context.Context) (kv, int, error) { return kvs[0], 4, nil }
	dep.compact = func() error {
		for _, n := range nodes {
			if err := n.TakeSnapshot(); err != nil {
				return err
			}
		}
		return nil
	}
	dep.close = cl.close
	return dep, nil
}

const (
	reshardShards   = 8
	reshardProvider = 40
	// reshardEvery paces migrations. While REMI's begin handler writes
	// a snapshot file it holds the destination's only handler xstream,
	// so each migration stalls every op routed there for as long as the
	// shared disk takes. At one migration every 250 ms, throughput lost
	// a third and swung 14.7k-23.6k ops/s over 5 runs; at one a second
	// it still swung 18.8k-28.4k over 10 runs; at one every 3 s it held
	// within 28.0k-29.6k over 5.
	reshardEvery = 3 * time.Second
)

// setupReshard: three yokan/router nodes over TCP sharing 8 shards on
// the map backend; each session routes through its own router. The
// background task moves one shard to the next node every 3 s.
func setupReshard(r *run, dir string) (dep *deployment, err error) {
	var cl closers
	defer func() {
		if err != nil {
			cl.close()
		}
	}()
	var nodes []*router.Node
	var insts []*margo.Instance
	var addrs []string
	var owners []router.Owner
	for i := 0; i < 3; i++ {
		inst, err := newTCPInstance(&cl)
		if err != nil {
			return nil, err
		}
		ndir := filepath.Join(dir, fmt.Sprintf("node-%d", i))
		if err := os.MkdirAll(ndir, 0o755); err != nil {
			return nil, err
		}
		nd, err := router.NewNode(inst, router.Options{
			ProviderID: reshardProvider,
			Dir:        ndir,
			Backend:    yokan.Config{Type: "map"},
		})
		if err != nil {
			return nil, err
		}
		cl = append(cl, func() { nd.Close() })
		nodes = append(nodes, nd)
		insts = append(insts, inst)
		addrs = append(addrs, inst.Addr())
		owners = append(owners, nd.Self())
	}
	seed, err := router.NewMap(reshardShards, owners, 0)
	if err != nil {
		return nil, err
	}
	for _, nd := range nodes {
		if err := nd.Adopt(seed); err != nil {
			return nil, err
		}
	}

	dep = &deployment{servers: insts}
	var routers []*router.Router
	for i := 0; i < sessions; i++ {
		inst, err := newTCPInstance(&cl)
		if err != nil {
			return nil, err
		}
		rt := router.NewRouter(inst, seed)
		routers = append(routers, rt)
		dep.clients = append(dep.clients, rt)
		dep.clientInsts = append(dep.clientInsts, inst)
	}
	// The router API has no batch put: preload pair by pair, eight
	// puts in flight.
	if err := preloadPairs(r, 8, func(p []yokan.KeyValue) error {
		errs := make([]error, len(p))
		var wg sync.WaitGroup
		for i := range p {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				errs[i] = routers[i%len(routers)].Put(context.Background(), p[i].Key, p[i].Value)
			}(i)
		}
		wg.Wait()
		return errors.Join(errs...)
	}); err != nil {
		return nil, fmt.Errorf("preload: %w", err)
	}

	dep.background = func(ctx context.Context, d *driver) error { return migrate(ctx, r, d, nodes) }
	dep.counters = func() map[string]float64 {
		var red, dual uint64
		for _, nd := range nodes {
			st := nd.Stats()
			red += st.Redirects
			dual += st.DualWrites
		}
		return map[string]float64{"redirects": float64(red), "dual_writes": float64(dual)}
	}
	// The final state is read through a router bootstrapped after the
	// last flip, from a fresh client instance.
	dep.reader = func(ctx context.Context) (kv, int, error) {
		inst, err := newTCPInstance(&cl)
		if err != nil {
			return nil, 0, err
		}
		rt, err := router.Bootstrap(ctx, inst, addrs, reshardProvider)
		if err != nil {
			return nil, 0, err
		}
		return rt, 4, nil
	}
	dep.close = func() { cl.close() }
	return dep, nil
}

// migrate moves shard k%8 from its owner to the next node every
// reshardEvery until ctx ends. A migration that has started always
// runs to completion. Durations of migrations started in a measured
// slot go to r.migs. A failed migration ends the task with its error:
// the protocol must not fail on a healthy cluster.
func migrate(ctx context.Context, r *run, d *driver, nodes []*router.Node) error {
	tick := time.NewTicker(reshardEvery)
	defer tick.Stop()
	for k := 0; ; k++ {
		select {
		case <-ctx.Done():
			return nil
		case <-tick.C:
		}
		shard := uint32(k % reshardShards)
		src := -1
		var newest *router.Map
		for _, nd := range nodes {
			if m := nd.CurrentMap(); newest == nil || m.Epoch > newest.Epoch {
				newest = m
			}
		}
		for i, nd := range nodes {
			if newest.Owners[shard] == nd.Self() {
				src = i
			}
		}
		if src < 0 {
			return fmt.Errorf("shard %d has no owner among the nodes", shard)
		}
		dst := nodes[(src+1)%len(nodes)].Self()
		measured := d.slot.Load() >= 0
		start := time.Now()
		err := d.migration(func() error {
			mctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			return nodes[src].Reshard(mctx, shard, dst)
		})
		if err != nil {
			return fmt.Errorf("reshard shard %d: %w", shard, err)
		}
		if measured {
			r.migs.record(time.Since(start))
		}
	}
}
