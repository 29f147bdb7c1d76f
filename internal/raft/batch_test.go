package raft

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mochi/internal/margo"
	"mochi/internal/mercury"
)

// ApplyBatch implements BatchFSM for the test kvFSM: the node hands a
// whole committed run over in one call.
func (f *kvFSM) ApplyBatch(cmds []Command) [][]byte {
	f.mu.Lock()
	f.batchSizes = append(f.batchSizes, len(cmds))
	f.mu.Unlock()
	out := make([][]byte, len(cmds))
	for i, c := range cmds {
		out[i] = f.Apply(c.Index, c.Data)
	}
	return out
}

// Read implements ReaderFSM for the test kvFSM: "get k" queries.
func (f *kvFSM) Read(query []byte) []byte {
	parts := bytes.SplitN(query, []byte(" "), 2)
	if len(parts) == 2 && string(parts[0]) == "get" {
		f.mu.Lock()
		defer f.mu.Unlock()
		return []byte(f.m[string(parts[1])])
	}
	return nil
}

func (f *kvFSM) maxBatch() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	max := 0
	for _, n := range f.batchSizes {
		if n > max {
			max = n
		}
	}
	return max
}

// singleNode builds a one-member group on its own fabric with the
// given store, returning the node once it leads.
func singleNode(t *testing.T, store Store, fsm FSM, cfg Config) *Node {
	t.Helper()
	fabric := mercury.NewFabric()
	cls, err := fabric.NewClass("raft-single")
	if err != nil {
		t.Fatal(err)
	}
	inst, err := margo.New(cls, nil)
	if err != nil {
		t.Fatal(err)
	}
	node, err := NewNode(inst, "g", []string{inst.Addr()}, store, fsm, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		node.Stop()
		inst.Finalize()
	})
	deadline := time.Now().Add(20 * time.Second)
	for time.Now().Before(deadline) {
		if node.IsLeader() {
			return node
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal("single node never became leader")
	return nil
}

// TestApplyGroupCommitBatches proves the tentpole's fsync claim at the
// store level: N concurrent proposals on a sync-enabled FileStore must
// complete with fewer than N fsyncs, because the group-commit leader
// persists whole batches with one Append.
func TestApplyGroupCommitBatches(t *testing.T) {
	fs, err := NewFileStore(t.TempDir(), false) // sync enabled
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Close()
	fsm := newKVFSM()
	node := singleNode(t, fs, fsm, fastRaftCfg())

	const ops = 64
	base := fs.Syncs() // election no-op etc.
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	var wg sync.WaitGroup
	errs := make(chan error, ops)
	for i := 0; i < ops; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if _, err := node.Apply(ctx, []byte(fmt.Sprintf("set k%d v%d", i, i))); err != nil {
				errs <- err
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	syncs := fs.Syncs() - base
	if syncs >= ops {
		t.Fatalf("%d fsyncs for %d concurrent applies; group commit should need fewer than one per op", syncs, ops)
	}
	if fsm.get("k63") != "v63" {
		t.Fatal("command not applied")
	}
	if fsm.maxBatch() < 2 {
		t.Fatalf("largest ApplyBatch run = %d; batched apply never coalesced", fsm.maxBatch())
	}
}

// failingStore wraps a Store and fails Append on demand.
type failingStore struct {
	Store
	fail atomic.Bool
}

func (s *failingStore) Append(entries []LogEntry) error {
	if s.fail.Load() {
		return errors.New("injected disk failure")
	}
	return s.Store.Append(entries)
}

// TestAppendLocalSurfacesStoreError covers the satellite fix: a
// persistent-store write failure on the leader must surface the store
// error to the caller and step the leader down — not return a generic
// "append failed" while staying leader.
func TestAppendLocalSurfacesStoreError(t *testing.T) {
	fs := &failingStore{Store: NewMemoryStore()}
	node := singleNode(t, fs, newKVFSM(), fastRaftCfg())

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if _, err := node.Apply(ctx, []byte("set a 1")); err != nil {
		t.Fatal(err)
	}

	fs.fail.Store(true)
	_, err := node.Apply(ctx, []byte("set b 2"))
	if err == nil {
		t.Fatal("Apply succeeded with a failing store")
	}
	if !strings.Contains(err.Error(), "injected disk failure") {
		t.Fatalf("store error swallowed: %v", err)
	}
	if node.IsLeader() {
		t.Fatal("leader kept leading after a persistent-store append failure")
	}

	// Once the store recovers, the node wins its next election and
	// accepts commands again.
	fs.fail.Store(false)
	deadline := time.Now().Add(20 * time.Second)
	for time.Now().Before(deadline) && !node.IsLeader() {
		time.Sleep(5 * time.Millisecond)
	}
	if _, err := node.Apply(ctx, []byte("set c 3")); err != nil {
		t.Fatalf("apply after store recovery: %v", err)
	}
}

// TestReadIndexServesReads: linearizable reads answer from the FSM
// without growing the log, and only the leader serves them.
func TestReadIndexServesReads(t *testing.T) {
	c := newRaftCluster(t, 3, fastRaftCfg())
	leader := c.waitLeader()
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	if _, err := c.apply(ctx, []byte("set ri v1")); err != nil {
		t.Fatal(err)
	}

	leader = c.waitLeader()
	before := c.stores[leader.ID()].LastIndex()
	for i := 0; i < 10; i++ {
		out, err := leader.Read(ctx, []byte("get ri"))
		if err != nil {
			t.Fatal(err)
		}
		if string(out) != "v1" {
			t.Fatalf("read = %q", out)
		}
	}
	if after := c.stores[leader.ID()].LastIndex(); after != before {
		t.Fatalf("log grew from %d to %d across reads; ReadIndex must not append", before, after)
	}

	// Followers refuse and point at the leader.
	for _, n := range c.nodes {
		if n.ID() == leader.ID() {
			continue
		}
		if _, err := n.Read(ctx, []byte("get ri")); err == nil {
			t.Fatal("follower served a ReadIndex get")
		}
		break
	}

	// A write observed through Read immediately after Apply returns.
	if _, err := leader.Apply(ctx, []byte("set ri v2")); err == nil {
		out, err := leader.Read(ctx, []byte("get ri"))
		if err != nil {
			t.Fatal(err)
		}
		if string(out) != "v2" {
			t.Fatalf("stale read %q after acknowledged write", out)
		}
	}
}

// TestReadIndexConcurrentReads: concurrent reads on the leader share
// confirmation rounds, every read that succeeds returns the
// acknowledged value, and none is left waiting on a round that never
// releases it.
func TestReadIndexConcurrentReads(t *testing.T) {
	c := newRaftCluster(t, 3, fastRaftCfg())
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	if _, err := c.apply(ctx, []byte("set cr v1")); err != nil {
		t.Fatal(err)
	}
	leader := c.waitLeader()
	const readers = 32
	start := make(chan struct{})
	errs := make(chan error, readers)
	var wg sync.WaitGroup
	for i := 0; i < readers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			out, err := leader.Read(ctx, []byte("get cr"))
			if err == nil && string(out) != "v1" {
				err = fmt.Errorf("stale read %q, want v1", out)
			}
			errs <- err
		}()
	}
	close(start)
	wg.Wait()
	close(errs)
	if ctx.Err() != nil {
		t.Fatal("reads outlived their deadline: a round never released its joiners")
	}
	ok := 0
	for err := range errs {
		switch {
		case err == nil:
			ok++
		case errors.Is(err, ErrNotLeader), errors.Is(err, ErrNoLeader), errors.Is(err, ErrTimeout):
			// leadership moved or a quorum round timed out: the client retries
		default:
			t.Fatal(err)
		}
	}
	if ok == 0 {
		t.Fatal("no concurrent read succeeded")
	}
}

// plainFSM deliberately does not implement ReaderFSM.
type plainFSM struct {
	mu sync.Mutex
	m  map[string][]byte
}

func (f *plainFSM) Apply(_ uint64, cmd []byte) []byte {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.m == nil {
		f.m = map[string][]byte{}
	}
	f.m[string(cmd)] = cmd
	return cmd
}
func (f *plainFSM) Snapshot() ([]byte, error) { return nil, nil }
func (f *plainFSM) Restore([]byte) error      { return nil }

// TestReadRequiresReaderFSM: a group whose FSM lacks Read reports
// ErrNoReader instead of hanging or panicking.
func TestReadRequiresReaderFSM(t *testing.T) {
	node := singleNode(t, NewMemoryStore(), &plainFSM{}, fastRaftCfg())
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if _, err := node.Read(ctx, []byte("q")); !errors.Is(err, ErrNoReader) {
		t.Fatalf("err = %v, want ErrNoReader", err)
	}
}

// TestClientReadFollowsLeader: the client Read RPC forwards to the
// leader via hints, like Apply.
func TestClientReadFollowsLeader(t *testing.T) {
	c := newRaftCluster(t, 3, fastRaftCfg())
	c.waitLeader()
	cls, _ := c.fabric.NewClass("raft-read-client")
	inst, err := margo.New(cls, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer inst.Finalize()
	client := NewClient(inst, "g", c.addrs)
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	if _, err := client.Apply(ctx, []byte("set cr v")); err != nil {
		t.Fatal(err)
	}
	out, err := client.Read(ctx, []byte("get cr"))
	if err != nil {
		t.Fatal(err)
	}
	if string(out) != "v" {
		t.Fatalf("client read = %q", out)
	}
}

// TestApplyBatchedAllocsPinned pins the per-proposal allocation budget
// of the batched hot path (single-node MemoryStore, so no RPC or disk
// in the loop): proposal + batch bookkeeping + waiter wakeup + FSM
// apply. The pin has headroom for scheduler jitter; blowing past it
// means a per-entry copy or per-wakeup slice crept into the path.
func TestApplyBatchedAllocsPinned(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc pinning is meaningless under the race detector")
	}
	node := singleNode(t, NewMemoryStore(), newKVFSM(), fastRaftCfg())
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	cmd := []byte("set pin v")
	if _, err := node.Apply(ctx, cmd); err != nil {
		t.Fatal(err)
	}
	per := testing.AllocsPerRun(200, func() {
		if _, err := node.Apply(ctx, cmd); err != nil {
			t.Fatal(err)
		}
	})
	// Serial applies are worst-case: every proposal is its own batch,
	// so the whole batch overhead lands on one op. Measured ~30;
	// pinned at 48 for headroom.
	if per > 48 {
		t.Fatalf("Apply allocates %.1f per op; pin is 48 (batch bookkeeping regressed)", per)
	}
}
