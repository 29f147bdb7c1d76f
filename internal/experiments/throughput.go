package experiments

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"mochi/internal/yokan"
)

// ThroughputOptions configures the concurrent storage-engine
// throughput sweep (EXPERIMENTS.md E16, "Storage-engine scaling").
// The sweep drives a local Database — no RPC — so it isolates the
// engine's locking behaviour.
type ThroughputOptions struct {
	// Backends to sweep (default map, skiplist, btree, log).
	Backends []string
	// Workers is the goroutine counts to sweep (default 1, 2, 4, 8).
	Workers []int
	// Duration each (backend, mode, workers) cell runs (default 1s).
	Duration time.Duration
	// ReadFraction is the probability an op is a Get (0 = write-only;
	// out-of-range values become 0.5).
	ReadFraction float64
	// ValueSize in bytes (default 128).
	ValueSize int
	// Keyspace is the number of distinct keys (default 4096).
	Keyspace int
	// Shards for the striped configuration; 0 picks the default.
	Shards int
	// BatchWindow for the log backend's group commit ("" = 0).
	BatchWindow string
	// LogSync enables fsync on the log backend (default off; turn on
	// to measure group commit against real commit latency).
	LogSync bool
	// Dir is where log files go (default os.TempDir()).
	Dir string
}

func (o *ThroughputOptions) fill() {
	if len(o.Backends) == 0 {
		o.Backends = []string{"map", "skiplist", "btree", "log"}
	}
	if len(o.Workers) == 0 {
		o.Workers = []int{1, 2, 4, 8}
	}
	if o.Duration <= 0 {
		o.Duration = time.Second
	}
	if o.ReadFraction < 0 || o.ReadFraction > 1 {
		o.ReadFraction = 0.5
	}
	if o.ValueSize <= 0 {
		o.ValueSize = 128
	}
	if o.Keyspace <= 0 {
		o.Keyspace = 4096
	}
	if o.Dir == "" {
		o.Dir = os.TempDir()
	}
}

// throughputConfig builds the yokan config for one cell. Baseline
// means the pre-striping engine: one global lock (Shards:1) for the
// in-memory backends, serial direct commit for the log.
func (o *ThroughputOptions) throughputConfig(backend string, baseline bool) (yokan.Config, string, error) {
	cfg := yokan.Config{Type: backend}
	if backend == "log" {
		dir, err := os.MkdirTemp(o.Dir, "mochi-thr-")
		if err != nil {
			return cfg, "", err
		}
		cfg.Path = filepath.Join(dir, "bench.log")
		cfg.NoSync = !o.LogSync
		if baseline {
			cfg.DirectCommit = true
		} else {
			cfg.BatchWindow = o.BatchWindow
		}
		return cfg, dir, nil
	}
	if baseline {
		cfg.Shards = 1
	} else {
		cfg.Shards = o.Shards
	}
	return cfg, "", nil
}

// measureThroughput runs workers goroutines of mixed traffic against
// db for d and returns total operations per second.
func measureThroughput(db yokan.Database, workers, keyspace, valueSize int, readFraction float64, d time.Duration) (float64, error) {
	value := make([]byte, valueSize)
	keys := make([][]byte, keyspace)
	for i := range keys {
		keys[i] = []byte(fmt.Sprintf("thr-key-%06d", i))
	}
	// Preload so reads hit and writes overwrite: steady state.
	for _, k := range keys {
		if err := db.Put(k, value); err != nil {
			return 0, err
		}
	}
	var stop atomic.Bool
	var total atomic.Int64
	errs := make([]error, workers)
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)*7919 + 1))
			ops := int64(0)
			for !stop.Load() {
				k := keys[rng.Intn(len(keys))]
				if rng.Float64() < readFraction {
					if _, err := db.Get(k); err != nil {
						errs[w] = err
						return
					}
				} else {
					if err := db.Put(k, value); err != nil {
						errs[w] = err
						return
					}
				}
				ops++
			}
			total.Add(ops)
		}()
	}
	time.Sleep(d)
	stop.Store(true)
	wg.Wait()
	elapsed := time.Since(start)
	for _, err := range errs {
		if err != nil {
			return 0, err
		}
	}
	return float64(total.Load()) / elapsed.Seconds(), nil
}

// RunThroughput sweeps (backend × mode × workers) and tabulates ops/s
// with the striped-over-baseline speedup per worker count.
func RunThroughput(opts ThroughputOptions) (*Table, error) {
	opts.fill()
	t := &Table{
		ID:      "E16",
		Title:   "storage-engine concurrent throughput (local, no RPC)",
		Columns: []string{"backend", "workers", "baseline ops/s", "striped ops/s", "speedup"},
	}
	t.Note("read fraction %.2f, value %dB, keyspace %d, %s per cell; baseline = Shards:1 (log: direct_commit), striped = Shards:%d (log: group commit, window %q); log sync=%v",
		opts.ReadFraction, opts.ValueSize, opts.Keyspace, opts.Duration, opts.Shards, opts.BatchWindow, opts.LogSync)

	run := func(backend string, baseline bool, workers int) (float64, error) {
		cfg, dir, err := opts.throughputConfig(backend, baseline)
		if err != nil {
			return 0, err
		}
		if dir != "" {
			defer os.RemoveAll(dir)
		}
		db, err := yokan.Open(cfg)
		if err != nil {
			return 0, err
		}
		defer db.Close()
		return measureThroughput(db, workers, opts.Keyspace, opts.ValueSize, opts.ReadFraction, opts.Duration)
	}

	for _, backend := range opts.Backends {
		for _, workers := range opts.Workers {
			base, err := run(backend, true, workers)
			if err != nil {
				return nil, fmt.Errorf("%s baseline w=%d: %w", backend, workers, err)
			}
			striped, err := run(backend, false, workers)
			if err != nil {
				return nil, fmt.Errorf("%s striped w=%d: %w", backend, workers, err)
			}
			speedup := "-"
			if base > 0 && striped > 0 {
				speedup = fmt.Sprintf("%.2fx", striped/base)
			}
			t.AddRow(backend, fmt.Sprintf("%d", workers),
				fmtOps(base), fmtOps(striped), speedup)
		}
	}
	return t, nil
}

// E16Storage adapts RunThroughput to the Runner shape. Quick mode runs
// 300ms cells of 50/50 traffic without fsync; full mode runs the
// durability-bound case the group-commit table in EXPERIMENTS.md
// records: 1s cells, write-only, the log backend fsyncing.
func E16Storage(quick bool) (*Table, error) {
	if quick {
		return RunThroughput(ThroughputOptions{Duration: 300 * time.Millisecond, ReadFraction: 0.5})
	}
	return RunThroughput(ThroughputOptions{Duration: time.Second, LogSync: true})
}

func fmtOps(v float64) string {
	if v <= 0 {
		return "-"
	}
	switch {
	case v >= 1e6:
		return fmt.Sprintf("%.2fM", v/1e6)
	case v >= 1e3:
		return fmt.Sprintf("%.1fk", v/1e3)
	default:
		return fmt.Sprintf("%.0f", v)
	}
}
