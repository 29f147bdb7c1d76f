package router

import (
	"context"
	"fmt"
	"testing"
	"time"

	"mochi/internal/margo"
	"mochi/internal/mercury"
	"mochi/internal/resilience"
	"mochi/internal/yokan"
)

const testProviderID = 9

// cluster is an in-process multi-"process" sharded keyspace: one
// margo instance per node on a shared sm fabric, plus a client
// instance.
type cluster struct {
	fabric  *mercury.Fabric
	nodes   []*Node
	insts   []*margo.Instance
	client  *margo.Instance
	initial *Map
}

type clusterConfig struct {
	nodes  int
	shards int
	// ownerNodes restricts initial shard placement to the first k
	// nodes (0 = all nodes own shards round-robin).
	ownerNodes int
	resilience *resilience.Config
}

func newCluster(t testing.TB, cfg clusterConfig) *cluster {
	t.Helper()
	f := mercury.NewFabric()
	c := &cluster{fabric: f}
	for i := 0; i < cfg.nodes; i++ {
		cls, err := f.NewClass(fmt.Sprintf("xkv-node-%d", i))
		if err != nil {
			t.Fatal(err)
		}
		inst, err := margo.New(cls, nil)
		if err != nil {
			t.Fatal(err)
		}
		if cfg.resilience != nil {
			inst.SetResilience(cfg.resilience)
		}
		n, err := NewNode(inst, Options{ProviderID: testProviderID, Dir: t.TempDir()})
		if err != nil {
			t.Fatal(err)
		}
		c.nodes = append(c.nodes, n)
		c.insts = append(c.insts, inst)
	}
	ccls, err := f.NewClass("xkv-client")
	if err != nil {
		t.Fatal(err)
	}
	c.client, err = margo.New(ccls, nil)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.resilience != nil {
		c.client.SetResilience(cfg.resilience)
	}
	ownerNodes := cfg.ownerNodes
	if ownerNodes <= 0 {
		ownerNodes = cfg.nodes
	}
	owners := make([]Owner, 0, ownerNodes)
	for i := 0; i < ownerNodes; i++ {
		owners = append(owners, c.nodes[i].Self())
	}
	m, err := NewMap(cfg.shards, owners, 0)
	if err != nil {
		t.Fatal(err)
	}
	c.initial = m
	for _, n := range c.nodes {
		if err := n.Adopt(m); err != nil {
			t.Fatal(err)
		}
	}
	t.Cleanup(func() {
		for _, n := range c.nodes {
			n.Close()
		}
		for _, inst := range c.insts {
			inst.Finalize()
		}
		c.client.Finalize()
	})
	return c
}

func (c *cluster) router() *Router { return NewRouter(c.client, c.initial) }

func tctx(t testing.TB, d time.Duration) context.Context {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), d)
	t.Cleanup(cancel)
	return ctx
}

func TestRouterBasicOps(t *testing.T) {
	c := newCluster(t, clusterConfig{nodes: 3, shards: 8})
	r := c.router()
	ctx := tctx(t, 10*time.Second)

	const n = 300
	for i := 0; i < n; i++ {
		k := []byte(fmt.Sprintf("key-%d", i))
		if err := r.Put(ctx, k, []byte(fmt.Sprintf("val-%d", i))); err != nil {
			t.Fatalf("put %d: %v", i, err)
		}
	}
	for i := 0; i < n; i++ {
		k := []byte(fmt.Sprintf("key-%d", i))
		v, err := r.Get(ctx, k)
		if err != nil {
			t.Fatalf("get %d: %v", i, err)
		}
		if want := fmt.Sprintf("val-%d", i); string(v) != want {
			t.Fatalf("get %d: got %q want %q", i, v, want)
		}
	}
	if got, err := r.Count(ctx); err != nil || got != n {
		t.Fatalf("count: got %d (%v), want %d", got, err, n)
	}
	if err := r.Erase(ctx, []byte("key-0")); err != nil {
		t.Fatal(err)
	}
	if ok, err := r.Exists(ctx, []byte("key-0")); err != nil || ok {
		t.Fatalf("exists after erase: %v %v", ok, err)
	}
	if _, err := r.Get(ctx, []byte("key-0")); !yokan.IsNotFound(err) {
		t.Fatalf("get after erase: %v", err)
	}
	// Keys must actually spread: with 8 shards round-robin over 3
	// nodes, every node serves traffic.
	for i, n := range c.nodes {
		var ops uint64
		n.mu.Lock()
		for _, sh := range n.shards {
			ops += sh.ops.Load()
		}
		n.mu.Unlock()
		if ops == 0 {
			t.Fatalf("node %d served no operations", i)
		}
	}
}

// A reshard must atomically flip routing: a router still holding the
// old map gets a retryable redirect carrying the new one and lands on
// the new owner with one extra hop.
func TestStaleRouterFollowsRedirect(t *testing.T) {
	c := newCluster(t, clusterConfig{nodes: 2, shards: 4})
	ctx := tctx(t, 10*time.Second)
	fresh := c.router()
	stale := c.router() // second client view, about to go stale

	const n = 200
	for i := 0; i < n; i++ {
		k := []byte(fmt.Sprintf("key-%d", i))
		if err := fresh.Put(ctx, k, []byte("v1")); err != nil {
			t.Fatal(err)
		}
	}

	// Move shard 0 from its owner to the other node.
	src := c.initial.Owners[0]
	var srcNode *Node
	for _, nd := range c.nodes {
		if nd.Self() == src {
			srcNode = nd
		}
	}
	dst := c.nodes[0].Self()
	if dst == src {
		dst = c.nodes[1].Self()
	}
	if err := srcNode.Reshard(ctx, 0, dst); err != nil {
		t.Fatalf("reshard: %v", err)
	}

	// The stale router still has the epoch-0 map; every key must
	// still resolve, and afterwards its map must be the new epoch.
	for i := 0; i < n; i++ {
		k := []byte(fmt.Sprintf("key-%d", i))
		v, err := stale.Get(ctx, k)
		if err != nil {
			t.Fatalf("stale get %d: %v", i, err)
		}
		if string(v) != "v1" {
			t.Fatalf("stale get %d: got %q", i, v)
		}
	}
	if got := stale.Map().Epoch; got != 1 {
		t.Fatalf("stale router map epoch: got %d want 1", got)
	}
	redirects, installs := stale.Stats()
	if redirects == 0 || installs == 0 {
		t.Fatalf("stale router should have absorbed a redirect (redirects=%d installs=%d)", redirects, installs)
	}
	// The old owner redirected rather than served.
	if srcNode.Stats().Redirects == 0 {
		t.Fatal("source node never redirected")
	}
}

// A reshard to a dead destination must fail cleanly and leave the
// source serving everything.
func TestReshardToDeadDestinationAborts(t *testing.T) {
	c := newCluster(t, clusterConfig{nodes: 2, shards: 4, ownerNodes: 1})
	ctx := tctx(t, 10*time.Second)
	r := c.router()
	for i := 0; i < 50; i++ {
		if err := r.Put(ctx, []byte(fmt.Sprintf("k%d", i)), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	sctx, cancel := context.WithTimeout(ctx, 1*time.Second)
	defer cancel()
	err := c.nodes[0].Reshard(sctx, 0, Owner{Addr: "sm://nowhere", Provider: testProviderID})
	if err == nil {
		t.Fatal("reshard to dead destination succeeded")
	}
	// Source must still serve all data at the original epoch.
	if got := c.nodes[0].CurrentMap().Epoch; got != 0 {
		t.Fatalf("epoch moved after failed reshard: %d", got)
	}
	for i := 0; i < 50; i++ {
		if _, err := r.Get(ctx, []byte(fmt.Sprintf("k%d", i))); err != nil {
			t.Fatalf("get after failed reshard: %v", err)
		}
	}
}

// The balancer must detect a hot node from the per-shard counters and
// move its hottest shard to a spare via pufferscale, not a hardcoded
// plan.
func TestBalancerMovesHottestShard(t *testing.T) {
	c := newCluster(t, clusterConfig{nodes: 3, shards: 8, ownerNodes: 1})
	ctx := tctx(t, 20*time.Second)
	r := c.router()

	// Drive skewed traffic: every key lands on node 0 (it owns all
	// shards), with shard-skew from repeated hot keys.
	for i := 0; i < 500; i++ {
		k := []byte(fmt.Sprintf("key-%d", i%40))
		if err := r.Put(ctx, k, []byte("v")); err != nil {
			t.Fatal(err)
		}
	}

	candidates := []Owner{c.nodes[0].Self(), c.nodes[1].Self(), c.nodes[2].Self()}
	b := NewBalancer(c.client, candidates)
	d, err := b.Step(ctx, r.Map())
	if err != nil {
		t.Fatalf("balancer step: %v", err)
	}
	if d == nil {
		t.Fatal("balancer saw no imbalance with every shard on one node")
	}
	if d.From != c.nodes[0].Self() {
		t.Fatalf("balancer moved from %v, want node 0", d.From)
	}
	if d.To == c.nodes[0].Self() {
		t.Fatal("balancer moved a shard onto the hot node")
	}
	if d.Imbalance <= 1.25 {
		t.Fatalf("reported imbalance %.2f under threshold", d.Imbalance)
	}

	// The flip must be visible and lossless.
	m, err := FetchMap(ctx, c.client, d.To.Addr, d.To.Provider)
	if err != nil {
		t.Fatal(err)
	}
	if m.Epoch != 1 {
		t.Fatalf("epoch after balancer move: %d", m.Epoch)
	}
	if m.Owners[d.Shard] != d.To {
		t.Fatalf("shard %d owned by %v, want %v", d.Shard, m.Owners[d.Shard], d.To)
	}
	for i := 0; i < 40; i++ {
		k := []byte(fmt.Sprintf("key-%d", i))
		if _, err := r.Get(ctx, k); err != nil {
			t.Fatalf("get %d after move: %v", i, err)
		}
	}
}

// The balancer weighs the load of its own interval: once it has moved
// the hot shard, a second Step on an idle cluster sees no traffic and
// moves nothing. The moved shard's counter on its new owner is a
// first sighting, not a diff against the old owner's count.
func TestBalancerIdleAfterMove(t *testing.T) {
	c := newCluster(t, clusterConfig{nodes: 3, shards: 8, ownerNodes: 1})
	ctx := tctx(t, 20*time.Second)
	r := c.router()
	for i := 0; i < 500; i++ {
		if err := r.Put(ctx, []byte(fmt.Sprintf("key-%d", i%40)), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	b := NewBalancer(c.client, []Owner{c.nodes[0].Self(), c.nodes[1].Self(), c.nodes[2].Self()})
	if d, err := b.Step(ctx, r.Map()); err != nil || d == nil {
		t.Fatalf("first step: %+v, %v; want a move", d, err)
	}
	if err := r.Refresh(ctx); err != nil {
		t.Fatal(err)
	}
	d, err := b.Step(ctx, r.Map())
	if err != nil {
		t.Fatal(err)
	}
	if d != nil {
		t.Fatalf("second step on an idle cluster moved shard %d (imbalance %.2f)", d.Shard, d.Imbalance)
	}
}

// Bootstrap must fetch a usable map from any live node.
func TestBootstrapFromNode(t *testing.T) {
	c := newCluster(t, clusterConfig{nodes: 2, shards: 4})
	ctx := tctx(t, 5*time.Second)
	r, err := Bootstrap(ctx, c.client, []string{"sm://nowhere", c.insts[1].Addr()}, testProviderID)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Put(ctx, []byte("a"), []byte("b")); err != nil {
		t.Fatal(err)
	}
	v, err := r.Get(ctx, []byte("a"))
	if err != nil || string(v) != "b" {
		t.Fatalf("get: %q %v", v, err)
	}
}
