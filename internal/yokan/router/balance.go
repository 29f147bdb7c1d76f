package router

import (
	"context"
	"fmt"
	"math"
	"sort"
	"strconv"

	"mochi/internal/codec"
	"mochi/internal/margo"
	"mochi/internal/pufferscale"
)

// Balancer turns per-shard load samples into migrations, driven by
// Pufferscale's heuristic rather than a hardcoded plan: it samples
// every node's shard counters (RPCStats) and hands them to a
// pufferscale.Evaluator — the placement loop core.AutoBalancer runs
// too — which plans over the candidate nodes when the load imbalance
// exceeds the threshold. The balancer then moves the hottest shard
// the plan relocates through the owner's Reshard RPC.
//
// The balancer is the coordinator the epoch protocol assumes: one
// balancer per keyspace, moving one shard at a time (DESIGN.md §9).
type Balancer struct {
	inst *margo.Instance
	// Candidates are every node that may own shards, including
	// spares that currently own none.
	Candidates []Owner
	// Objectives weight pufferscale's goals; the zero value is
	// balanced thirds.
	Objectives pufferscale.Objectives
	// Threshold is the max/mean load ratio above which a move is
	// worth its cost (default 1.25).
	Threshold float64

	eval pufferscale.Evaluator
}

// NewBalancer creates a balancer for the keyspace served by the
// candidate owners.
func NewBalancer(inst *margo.Instance, candidates []Owner) *Balancer {
	return &Balancer{inst: inst, Candidates: candidates, Threshold: 1.25}
}

// sample fetches per-shard stats from every distinct owner address in
// the map and returns the current cumulative counters.
func (b *Balancer) sample(ctx context.Context, m *Map) (map[uint32]ShardStat, error) {
	owners := map[Owner]bool{}
	for _, o := range m.Owners {
		owners[o] = true
	}
	out := map[uint32]ShardStat{}
	for o := range owners {
		raw, err := b.inst.ForwardProvider(ctx, o.Addr, RPCStats, o.Provider, nil)
		if err != nil {
			return nil, fmt.Errorf("router: stats from %s: %w", o, err)
		}
		var reply statsReply
		if err := codec.Unmarshal(raw, &reply); err != nil {
			return nil, err
		}
		if reply.Status != statusOK {
			return nil, fmt.Errorf("router: stats from %s: %s", o, reply.Err)
		}
		for _, s := range reply.Stats {
			out[s.Shard] = s
		}
	}
	return out, nil
}

// Decision is one planned migration.
type Decision struct {
	Shard uint32
	From  Owner
	To    Owner
	// Imbalance is the measured max/mean load ratio that triggered
	// the move.
	Imbalance float64
}

// Plan samples the cluster and returns the single best move, or nil
// if the load is within Threshold. A shard's load is its op count
// over the interval since the previous Plan, as pufferscale.Evaluator
// defines it.
func (b *Balancer) Plan(ctx context.Context, m *Map) (*Decision, error) {
	stats, err := b.sample(ctx, m)
	if err != nil {
		return nil, err
	}
	byAddr := map[string]Owner{}
	var nodes []string
	for _, owners := range [][]Owner{b.Candidates, m.Owners} {
		for _, o := range owners {
			if _, dup := byAddr[o.Addr]; !dup {
				byAddr[o.Addr] = o
				nodes = append(nodes, o.Addr)
			}
		}
	}
	sort.Strings(nodes)

	// resources[s] is shard s.
	resources := make([]pufferscale.Resource, m.NumShards())
	for s := range resources {
		st := stats[uint32(s)]
		resources[s] = pufferscale.Resource{
			ID:   strconv.Itoa(s),
			Node: m.Owners[s].Addr,
			Load: float64(st.Ops),
			Size: float64(st.Bytes),
		}
	}
	plan, imbalance, err := b.eval.Evaluate(resources, nodes, b.Objectives, b.Threshold, math.Inf(1))
	if plan == nil || err != nil {
		return nil, err
	}
	// One move at a time: the hottest shard the plan relocates.
	best := -1
	for s, r := range resources {
		if plan.Assignment[r.ID] != r.Node && (best < 0 || r.Load > resources[best].Load) {
			best = s
		}
	}
	if best < 0 {
		return nil, nil
	}
	return &Decision{
		Shard:     uint32(best),
		From:      m.Owners[best],
		To:        byAddr[plan.Assignment[resources[best].ID]],
		Imbalance: imbalance,
	}, nil
}

// Execute commands the owning node to perform the move.
func (b *Balancer) Execute(ctx context.Context, d *Decision) error {
	e := codec.GetEncoder()
	(&reshardArgs{Shard: d.Shard, Dst: d.To}).MarshalMochi(e)
	raw, err := b.inst.ForwardProvider(ctx, d.From.Addr, RPCReshard, d.From.Provider, e.Bytes())
	codec.PutEncoder(e)
	if err != nil {
		return err
	}
	var reply statusReply
	if err := codec.Unmarshal(raw, &reply); err != nil {
		return err
	}
	if reply.Status != statusOK {
		return fmt.Errorf("router: reshard: %s", reply.Err)
	}
	return nil
}

// Step samples, plans, and executes at most one migration. It
// returns the decision it acted on (nil if the cluster is balanced).
func (b *Balancer) Step(ctx context.Context, m *Map) (*Decision, error) {
	d, err := b.Plan(ctx, m)
	if err != nil || d == nil {
		return nil, err
	}
	if err := b.Execute(ctx, d); err != nil {
		return d, err
	}
	return d, nil
}
