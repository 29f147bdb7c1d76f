package experiments

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"sort"
	"sync"
	"time"

	"mochi/internal/margo"
	"mochi/internal/mercury"
	"mochi/internal/yokan/router"
)

// ReshardOptions configures the online-resharding throughput leg
// (EXPERIMENTS.md E11, "Tail latency during online resharding").
// Unlike the local storage-engine sweep this drives a full sharded
// deployment — three router nodes over the simulated fabric — and
// fires a live migration mid-run, so the table separates tail latency
// before, during, and after the reconfiguration.
type ReshardOptions struct {
	// Workers is the number of client goroutines (default 4).
	Workers int
	// Duration is the total traffic window (default 1s).
	Duration time.Duration
	// ReshardAt is when the migration fires, measured from the start
	// of traffic (default Duration/3).
	ReshardAt time.Duration
	// Shards is the fixed shard count (default 8).
	Shards int
	// Keyspace is the number of distinct keys, preloaded so the moved
	// shards carry real data (default 4096).
	Keyspace int
	// ValueSize in bytes (default 128).
	ValueSize int
	// ReadFraction is the probability an op is a Get (0 = write-only;
	// out-of-range values become 0.5).
	ReadFraction float64
}

func (o *ReshardOptions) fill() {
	if o.Workers <= 0 {
		o.Workers = 4
	}
	if o.Duration <= 0 {
		o.Duration = time.Second
	}
	if o.ReshardAt <= 0 || o.ReshardAt >= o.Duration {
		o.ReshardAt = o.Duration / 3
	}
	if o.Shards <= 0 {
		o.Shards = 8
	}
	if o.Keyspace <= 0 {
		o.Keyspace = 4096
	}
	if o.ValueSize <= 0 {
		o.ValueSize = 128
	}
	if o.ReadFraction < 0 || o.ReadFraction > 1 {
		o.ReadFraction = 0.5
	}
}

// latSample is one client operation: when it started (offset from the
// traffic start) and how long it took.
type latSample struct {
	at  time.Duration
	lat time.Duration
}

const reshardProviderID = 31

// RunReshardThroughput stands up a three-node sharded keyspace (two
// owners plus a spare), drives mixed client traffic, and mid-run
// migrates every shard of node 0 to the spare while the workers keep
// writing. It reports per-phase latency percentiles and verifies that
// no acked write was lost across the flips.
func RunReshardThroughput(opts ReshardOptions) (*Table, error) {
	opts.fill()

	f := mercury.NewFabric()
	f.SetModel(mercury.DefaultHPCModel())

	const nNodes = 3
	var insts []*margo.Instance
	var nodes []*router.Node
	cleanup := func() {
		for _, nd := range nodes {
			nd.Close()
		}
		for _, in := range insts {
			in.Finalize()
		}
	}
	defer cleanup()

	for i := 0; i < nNodes; i++ {
		cls, err := f.NewClass(fmt.Sprintf("reshard-node-%d", i))
		if err != nil {
			return nil, err
		}
		inst, err := margo.New(cls, nil)
		if err != nil {
			return nil, err
		}
		insts = append(insts, inst)
		dir, err := os.MkdirTemp("", "mochi-reshard-")
		if err != nil {
			return nil, err
		}
		defer os.RemoveAll(dir)
		nd, err := router.NewNode(inst, router.Options{ProviderID: reshardProviderID, Dir: dir})
		if err != nil {
			return nil, err
		}
		nodes = append(nodes, nd)
	}
	ccls, err := f.NewClass("reshard-client")
	if err != nil {
		return nil, err
	}
	client, err := margo.New(ccls, nil)
	if err != nil {
		return nil, err
	}
	defer client.Finalize()

	owners := []router.Owner{nodes[0].Self(), nodes[1].Self()}
	seed, err := router.NewMap(opts.Shards, owners, 0)
	if err != nil {
		return nil, err
	}
	for _, nd := range nodes {
		if err := nd.Adopt(seed); err != nil {
			return nil, err
		}
	}

	// Preload the keyspace so the migrated shards ship real snapshots
	// and reads hit.
	ctx := context.Background()
	value := make([]byte, opts.ValueSize)
	pre := router.NewRouter(client, seed)
	keys := make([][]byte, opts.Keyspace)
	for i := range keys {
		keys[i] = []byte(fmt.Sprintf("rs-key-%06d", i))
		if err := pre.Put(ctx, keys[i], value); err != nil {
			return nil, fmt.Errorf("preload: %w", err)
		}
	}

	var (
		wg      sync.WaitGroup
		stop    = make(chan struct{})
		samples = make([][]latSample, opts.Workers)
		ledgers = make([]map[int]string, opts.Workers)
		werrs   = make([]error, opts.Workers)
	)
	base := time.Now()
	for w := 0; w < opts.Workers; w++ {
		ledgers[w] = map[int]string{}
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			r := router.NewRouter(client, seed)
			rng := rand.New(rand.NewSource(int64(w)*104729 + 3))
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				// Partition writable keys by worker so ledgers don't
				// race; reads roam the whole keyspace.
				ki := rng.Intn(len(keys))
				start := time.Now()
				var err error
				if rng.Float64() < opts.ReadFraction {
					_, err = r.Get(ctx, keys[ki])
				} else {
					ki = ki - ki%opts.Workers + w
					if ki >= len(keys) {
						ki -= opts.Workers
					}
					val := fmt.Sprintf("w%d-v%d", w, i)
					if err = r.Put(ctx, keys[ki], []byte(val)); err == nil {
						ledgers[w][ki] = val
					}
				}
				if err != nil {
					werrs[w] = err
					return
				}
				samples[w] = append(samples[w], latSample{at: start.Sub(base), lat: time.Since(start)})
			}
		}(w)
	}

	// Fire the migration mid-run: every shard node 0 owns moves to the
	// spare, one flip at a time.
	time.Sleep(opts.ReshardAt)
	migStart := time.Since(base)
	moved := 0
	for s := 0; s < opts.Shards; s++ {
		m := nodes[0].CurrentMap()
		if m.Owners[s] != nodes[0].Self() {
			continue
		}
		if err := nodes[0].Reshard(ctx, uint32(s), nodes[2].Self()); err != nil {
			close(stop)
			wg.Wait()
			return nil, fmt.Errorf("reshard shard %d: %w", s, err)
		}
		moved++
	}
	migEnd := time.Since(base)

	rest := opts.Duration - migEnd
	if rest > 0 {
		time.Sleep(rest)
	}
	close(stop)
	wg.Wait()
	for w, err := range werrs {
		if err != nil {
			return nil, fmt.Errorf("worker %d: %w", w, err)
		}
	}

	// Verify every acked write survived the flips, through a fresh
	// router bootstrapped from the post-migration cluster.
	verifier, err := router.Bootstrap(ctx, client, []string{nodes[2].Self().Addr}, reshardProviderID)
	if err != nil {
		return nil, err
	}
	lost := 0
	acked := 0
	for w := 0; w < opts.Workers; w++ {
		for ki, want := range ledgers[w] {
			acked++
			v, err := verifier.Get(ctx, keys[ki])
			if err != nil || string(v) != want {
				lost++
			}
		}
	}

	// Phase split: before / during / after the migration window.
	var before, during, after []time.Duration
	total := 0
	for _, ws := range samples {
		total += len(ws)
		for _, s := range ws {
			switch {
			case s.at < migStart:
				before = append(before, s.lat)
			case s.at < migEnd:
				during = append(during, s.lat)
			default:
				after = append(after, s.lat)
			}
		}
	}

	t := &Table{
		ID:      "E11",
		Title:   "client latency across an online resharding (3 nodes, live traffic)",
		Columns: []string{"phase", "ops", "ops/s", "p50", "p99", "max"},
	}
	addPhase := func(name string, lats []time.Duration, span time.Duration) {
		if len(lats) == 0 {
			t.AddRow(name, "0", "-", "-", "-", "-")
			return
		}
		sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
		t.AddRow(name,
			fmt.Sprintf("%d", len(lats)),
			fmtRate(len(lats), span),
			fmtDur(lats[len(lats)/2]),
			fmtDur(lats[len(lats)*99/100]),
			fmtDur(lats[len(lats)-1]),
		)
	}
	addPhase("before", before, migStart)
	addPhase("during", during, migEnd-migStart)
	addPhase("after", after, time.Since(base)-migEnd)

	var dualWrites uint64
	for _, nd := range nodes {
		dualWrites += nd.Stats().DualWrites
	}
	t.Note("%d workers, %d shards, keyspace %d, value %dB, read fraction %.2f; %d shards migrated in %s (window %s..%s)",
		opts.Workers, opts.Shards, opts.Keyspace, opts.ValueSize, opts.ReadFraction,
		moved, migEnd-migStart, migStart, migEnd)
	t.Note("%d acked writes verified, %d lost (must be 0); %d writes crossed a dual-write window; %d total client ops",
		acked, lost, dualWrites, total)
	if lost > 0 {
		return t, fmt.Errorf("reshard leg lost %d acked writes", lost)
	}
	if moved == 0 {
		return t, fmt.Errorf("reshard leg moved no shards")
	}
	return t, nil
}

// E11Reshard adapts RunReshardThroughput to the Runner shape: one
// second of 50/50 traffic with the migration fired at 300ms, in both
// modes. It fails on any lost acked write.
func E11Reshard(bool) (*Table, error) {
	return RunReshardThroughput(ReshardOptions{Duration: time.Second, ReshardAt: 300 * time.Millisecond, ReadFraction: 0.5})
}
