package experiments

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"mochi/internal/argobots"
	"mochi/internal/core"
	"mochi/internal/margo"
	"mochi/internal/mercury"
	"mochi/internal/raft"
	"mochi/internal/yokan"
)

// RaftBenchOptions configures the replicated-KV hot-path sweep
// (EXPERIMENTS.md E15). Each cell drives a fresh 3-member RaftKV group
// over the sm fabric with N concurrent client sessions, before
// (single-entry appends, gets through the log) vs after (group commit
// + batched apply, ReadIndex gets).
type RaftBenchOptions struct {
	// Clients is the concurrent-session counts to sweep (default 1, 8, 64).
	Clients []int
	// Stores selects the log persistence: "file" (fsync enabled) and/or
	// "mem" (default both).
	Stores []string
	// ReadFracs is the workload mixes to sweep (default 0 = write-heavy
	// and 0.9 = read-heavy).
	ReadFracs []float64
	// Duration each cell runs (default 1s).
	Duration time.Duration
	// ValueSize in bytes (default 64).
	ValueSize int
	// Keyspace is the number of distinct keys (default 128).
	Keyspace int
	// Dir is where FileStore logs go (default os.TempDir()).
	Dir string
}

func (o *RaftBenchOptions) fill() {
	if len(o.Clients) == 0 {
		o.Clients = []int{1, 8, 64}
	}
	if len(o.Stores) == 0 {
		o.Stores = []string{"file", "mem"}
	}
	if len(o.ReadFracs) == 0 {
		o.ReadFracs = []float64{0, 0.9}
	}
	if o.Duration <= 0 {
		o.Duration = time.Second
	}
	if o.ValueSize <= 0 {
		o.ValueSize = 64
	}
	if o.Keyspace <= 0 {
		o.Keyspace = 128
	}
	if o.Dir == "" {
		o.Dir = os.TempDir()
	}
}

// raftBenchCfg returns the node config for one mode. Before restores
// the pre-optimization behavior: every proposal pays its own append
// and fsync (MaxBatchEntries 1) and the applier drains one entry per
// wakeup.
func raftBenchCfg(before bool) raft.Config {
	cfg := raft.Config{
		ElectionTimeoutMin: 100 * time.Millisecond,
		ElectionTimeoutMax: 200 * time.Millisecond,
		HeartbeatInterval:  25 * time.Millisecond,
	}
	if before {
		cfg.MaxBatchEntries = 1
	}
	return cfg
}

// benchMargoConfig builds a member configuration with es execution
// streams draining one RPC pool. The default margo config has a single
// xstream, which runs handler ULTs one at a time — faithful modeling,
// but a concurrency sweep against it would measure the runtime
// configuration rather than the raft hot path. Sizing the xstream set
// for the workload is exactly the paper's methodology.
func benchMargoConfig(es int) []byte {
	cfg := margo.Config{
		Argobots: argobots.Config{
			Pools: []argobots.PoolConfig{{
				Name: "rpc", Kind: string(argobots.PoolFIFOWait), Access: string(argobots.AccessMPMC),
			}},
		},
		ProgressPool: "rpc",
		RPCPool:      "rpc",
	}
	for i := 0; i < es; i++ {
		cfg.Argobots.Xstreams = append(cfg.Argobots.Xstreams, argobots.XstreamConfig{
			Name: fmt.Sprintf("es%d", i),
			Scheduler: argobots.SchedConfig{
				Kind: string(argobots.SchedBasicWait), Pools: []string{"rpc"},
			},
		})
	}
	raw, err := json.Marshal(cfg)
	if err != nil {
		panic(err) // static configuration; cannot fail
	}
	return raw
}

// raftBenchCluster is one disposable 3-member group plus its client
// fabric endpoints.
type raftBenchCluster struct {
	fabric *mercury.Fabric
	insts  []*margo.Instance
	nodes  []*raft.Node
	files  map[string]*raft.FileStore // by member address
	addrs  []string
	dirs   []string
}

func newRaftBenchCluster(storeType string, before bool, dir string) (*raftBenchCluster, error) {
	c := &raftBenchCluster{fabric: mercury.NewFabric(), files: map[string]*raft.FileStore{}}
	for i := 0; i < 3; i++ {
		cls, err := c.fabric.NewClass(fmt.Sprintf("raftbench-%d", i))
		if err != nil {
			return nil, err
		}
		inst, err := margo.New(cls, benchMargoConfig(16))
		if err != nil {
			return nil, err
		}
		c.insts = append(c.insts, inst)
		c.addrs = append(c.addrs, inst.Addr())
	}
	for _, inst := range c.insts {
		var store raft.Store
		if storeType == "file" {
			d, err := os.MkdirTemp(dir, "mochi-raftbench-")
			if err != nil {
				return nil, err
			}
			c.dirs = append(c.dirs, d)
			fs, err := raft.NewFileStore(d, false) // sync enabled
			if err != nil {
				return nil, err
			}
			c.files[inst.Addr()] = fs
			store = fs
		} else {
			store = raft.NewMemoryStore()
		}
		db, err := yokan.Open(yokan.Config{Type: "map"})
		if err != nil {
			return nil, err
		}
		node, err := core.NewRaftKVNode(inst, "bench", c.addrs, store, db, raftBenchCfg(before))
		if err != nil {
			return nil, err
		}
		c.nodes = append(c.nodes, node)
	}
	return c, nil
}

func (c *raftBenchCluster) leaderStore() *raft.FileStore {
	for i, n := range c.nodes {
		if n.IsLeader() {
			return c.files[c.addrs[i]]
		}
	}
	return nil
}

func (c *raftBenchCluster) close() {
	for _, n := range c.nodes {
		n.Stop()
	}
	for _, inst := range c.insts {
		inst.Finalize()
	}
	for _, d := range c.dirs {
		os.RemoveAll(d)
	}
}

// runRaftCell measures one (store, mode, clients, mix) cell: ops/s and
// leader fsyncs per op (0 for MemoryStore).
func runRaftCell(opts *RaftBenchOptions, storeType string, before bool, clients int, readFrac float64) (float64, float64, error) {
	c, err := newRaftBenchCluster(storeType, before, opts.Dir)
	if err != nil {
		if c != nil {
			c.close()
		}
		return 0, 0, err
	}
	defer c.close()

	// One client instance per worker: each RaftKVClient is its own
	// at-most-once session with one outstanding op, like real callers.
	kvs := make([]*core.RaftKVClient, clients)
	for i := 0; i < clients; i++ {
		cls, err := c.fabric.NewClass(fmt.Sprintf("raftbench-cli%d", i))
		if err != nil {
			return 0, 0, err
		}
		inst, err := margo.New(cls, nil)
		if err != nil {
			return 0, 0, err
		}
		defer inst.Finalize()
		kv := core.NewRaftKVClient(inst, "bench", c.addrs)
		kv.LogReads = before // before: gets serialize through the log
		kvs[i] = kv
	}

	value := make([]byte, opts.ValueSize)
	keys := make([][]byte, opts.Keyspace)
	for i := range keys {
		keys[i] = []byte(fmt.Sprintf("rb-%05d", i))
	}
	warm, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	for _, k := range keys {
		if err := kvs[0].Put(warm, k, value); err != nil {
			return 0, 0, fmt.Errorf("warmup put: %w", err)
		}
	}

	ls := c.leaderStore()
	var syncBase uint64
	if ls != nil {
		syncBase = ls.Syncs()
	}

	var stop atomic.Bool
	var total, failed atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < clients; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)*6271 + 11))
			kv := kvs[w]
			ops := int64(0)
			for !stop.Load() {
				k := keys[rng.Intn(len(keys))]
				ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
				var err error
				if rng.Float64() < readFrac {
					_, err = kv.Get(ctx, k)
				} else {
					err = kv.Put(ctx, k, value)
				}
				cancel()
				if err == nil {
					ops++
				} else {
					failed.Add(1)
					if os.Getenv("MOCHI_RAFT_BENCH_DEBUG") != "" {
						fmt.Fprintf(os.Stderr, "raftbench: op error: %v\n", err)
					}
				}
			}
			total.Add(ops)
		}()
	}
	time.Sleep(opts.Duration)
	stop.Store(true)
	wg.Wait()
	elapsed := time.Since(start)
	if os.Getenv("MOCHI_RAFT_BENCH_DEBUG") != "" {
		fmt.Fprintf(os.Stderr, "raftbench: %s before=%v c=%d rf=%.1f: %d ok %d failed\n",
			storeType, before, clients, readFrac, total.Load(), failed.Load())
		for i, n := range c.nodes {
			if n.IsLeader() {
				for _, line := range bytes.Split(c.insts[i].Metrics().PrometheusText(), []byte("\n")) {
					if bytes.Contains(line, []byte("mochi_raft")) && !bytes.HasPrefix(line, []byte("#")) {
						fmt.Fprintf(os.Stderr, "  %s\n", line)
					}
				}
			}
		}
	}

	opsTotal := float64(total.Load())
	opsPerSec := opsTotal / elapsed.Seconds()
	syncsPerOp := 0.0
	if ls != nil && opsTotal > 0 {
		syncsPerOp = float64(ls.Syncs()-syncBase) / opsTotal
	}
	return opsPerSec, syncsPerOp, nil
}

// RunRaftBench sweeps (store × mix × clients) for both modes and
// tabulates ops/s, speedup, and leader fsyncs per op.
func RunRaftBench(opts RaftBenchOptions) (*Table, error) {
	opts.fill()
	t := &Table{
		ID:    "E15",
		Title: "raft hot path: group commit + batched apply + ReadIndex reads (3-member RaftKV group)",
		Columns: []string{"store", "read frac", "clients",
			"before ops/s", "after ops/s", "speedup", "fsync/op before", "fsync/op after"},
	}
	t.Note("before = MaxBatchEntries 1 (single-entry appends, one fsync per proposal) with gets through the log; after = group commit (MaxBatchEntries 64) + batched apply with ReadIndex gets; FileStore runs with sync enabled; value %dB, keyspace %d, %s per cell",
		opts.ValueSize, opts.Keyspace, opts.Duration)

	for _, storeType := range opts.Stores {
		for _, rf := range opts.ReadFracs {
			for _, clients := range opts.Clients {
				beforeOps, beforeSync, err := runRaftCell(&opts, storeType, true, clients, rf)
				if err != nil {
					return nil, fmt.Errorf("%s before c=%d rf=%.1f: %w", storeType, clients, rf, err)
				}
				afterOps, afterSync, err := runRaftCell(&opts, storeType, false, clients, rf)
				if err != nil {
					return nil, fmt.Errorf("%s after c=%d rf=%.1f: %w", storeType, clients, rf, err)
				}
				speedup := "-"
				if beforeOps > 0 && afterOps > 0 {
					speedup = fmt.Sprintf("%.2fx", afterOps/beforeOps)
				}
				fb, fa := "-", "-"
				if storeType == "file" {
					fb = fmt.Sprintf("%.2f", beforeSync)
					fa = fmt.Sprintf("%.2f", afterSync)
				}
				t.AddRow(storeType, fmt.Sprintf("%.1f", rf), fmt.Sprintf("%d", clients),
					fmtOps(beforeOps), fmtOps(afterOps), speedup, fb, fa)
			}
		}
	}
	return t, nil
}

// E15Raft adapts RunRaftBench to the Runner shape, with 128B values.
// Quick mode drops the 64-client cells and runs 300ms cells; full
// mode runs 400ms.
func E15Raft(quick bool) (*Table, error) {
	if quick {
		return RunRaftBench(RaftBenchOptions{Clients: []int{1, 8}, Duration: 300 * time.Millisecond, ValueSize: 128})
	}
	return RunRaftBench(RaftBenchOptions{Duration: 400 * time.Millisecond, ValueSize: 128})
}
