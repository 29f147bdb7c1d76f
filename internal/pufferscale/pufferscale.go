// Package pufferscale implements the rebalancing heuristics of the
// Pufferscale component (paper §6, Observation 6; Cheriere et al.,
// CCGRID'20): given a set of resources (each with an access load and
// a data size) placed on nodes, and a new target node set, compute a
// migration plan that trades off three objectives:
//
//   - load balance: even distribution of access load across nodes,
//   - data balance: even distribution of stored bytes across nodes,
//   - rebalancing time: minimal data movement.
//
// Pufferscale is deliberately ignorant of what the resources are or
// how they migrate: the plan is carried out by a caller-supplied
// migration function (dependency injection), exactly as the paper
// describes.
package pufferscale

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"
)

// Errors returned by the rebalancer.
var (
	ErrNoNodes     = errors.New("pufferscale: no target nodes")
	ErrUnknownNode = errors.New("pufferscale: resource on unknown node")
)

// Resource is one migratable unit (e.g. a Yokan database) with its
// observed access load (requests/s, from the margo monitor) and data
// size in bytes.
type Resource struct {
	ID   string
	Node string
	Load float64
	Size float64
}

// Objectives weights the three goals. Zero values are allowed; all
// zeros defaults to equal thirds.
type Objectives struct {
	WLoad float64 // load balance
	WData float64 // data balance
	WTime float64 // movement avoidance (rebalancing time)
}

func (o Objectives) normalized() Objectives {
	s := o.WLoad + o.WData + o.WTime
	if s <= 0 {
		return Objectives{WLoad: 1.0 / 3, WData: 1.0 / 3, WTime: 1.0 / 3}
	}
	return Objectives{WLoad: o.WLoad / s, WData: o.WData / s, WTime: o.WTime / s}
}

// Move relocates one resource.
type Move struct {
	ResourceID string
	From, To   string
	Size       float64
}

// Plan is the output of Rebalance.
type Plan struct {
	// Moves to execute (resources staying put are not listed).
	Moves []Move
	// Assignment maps every resource ID to its final node.
	Assignment map[string]string
	// Metrics of the resulting placement.
	MaxLoad, MeanLoad float64
	MaxData, MeanData float64
	BytesMoved        float64
}

// LoadImbalance is max/mean node load (1.0 = perfectly balanced).
func (p *Plan) LoadImbalance() float64 { return ratio(p.MaxLoad, p.MeanLoad) }

// DataImbalance is max/mean node data (1.0 = perfectly balanced).
func (p *Plan) DataImbalance() float64 { return ratio(p.MaxData, p.MeanData) }

// ratio is max/mean, or 1 when there is nothing to balance.
func ratio(max, mean float64) float64 {
	if mean == 0 {
		return 1
	}
	return max / mean
}

// Imbalance measures the placement as it stands: max/mean node load
// and max/mean node data over the (non-empty) node set, the ratios
// Plan.LoadImbalance and Plan.DataImbalance report for a plan's
// outcome.
func Imbalance(resources []Resource, nodes []string) (load, data float64) {
	type sums struct{ load, data float64 }
	perNode := make(map[string]sums, len(nodes))
	var total, max sums
	for _, r := range resources {
		s := perNode[r.Node]
		s.load += r.Load
		s.data += r.Size
		perNode[r.Node] = s
		total.load += r.Load
		total.data += r.Size
	}
	for _, s := range perNode {
		max.load = math.Max(max.load, s.load)
		max.data = math.Max(max.data, s.data)
	}
	n := float64(len(nodes))
	return ratio(max.load, total.load/n), ratio(max.data, total.data/n)
}

// Evaluator is the decision half of a placement loop, shared by every
// service that rebalances: each evaluation turns cumulative load
// counters into the load of the last interval, measures the current
// placement, and plans only when it is out of bounds. Carrying out
// the plan stays with the caller (Plan.Execute with its Migrator, or
// one move at a time).
//
// A resource's Load is passed in as a cumulative counter; Evaluate
// replaces it, in place, with the growth since the previous
// evaluation that saw the resource on the same node. A resource seen
// for the first time on its node (new, or just migrated there), or
// whose counter went backwards (its process restarted), keeps its
// full count. The zero Evaluator is ready to use; it is not safe for
// concurrent use.
type Evaluator struct {
	prev map[placement]float64
}

// placement identifies a resource on the node hosting it.
type placement struct{ node, id string }

// Evaluate runs one evaluation over the interval's resources. The
// placement is out of bounds when its load imbalance is strictly
// greater than maxLoad or its data imbalance strictly greater than
// maxData (a ratio equal to its bound is within bounds); only then is
// a plan computed with obj. It returns that plan (nil within bounds)
// and the measured load imbalance of the current placement.
func (e *Evaluator) Evaluate(resources []Resource, nodes []string, obj Objectives, maxLoad, maxData float64) (*Plan, float64, error) {
	seen := make(map[placement]float64, len(resources))
	for i := range resources {
		r := &resources[i]
		k := placement{r.Node, r.ID}
		seen[k] = r.Load
		if prev, ok := e.prev[k]; ok && prev <= r.Load {
			r.Load -= prev
		}
	}
	e.prev = seen
	if len(nodes) == 0 {
		return nil, 0, ErrNoNodes
	}
	load, data := Imbalance(resources, nodes)
	if load <= maxLoad && data <= maxData {
		return nil, load, nil
	}
	plan, err := Rebalance(resources, nodes, obj)
	return plan, load, err
}

// Rebalance computes a placement of resources onto nodes.
//
// The heuristic (after Pufferscale) processes resources in decreasing
// weight order and greedily assigns each to the node minimizing a
// weighted cost of projected load, projected data, and movement.
// Resources on surviving nodes pay a movement penalty to relocate, so
// a high WTime keeps them in place; resources on removed nodes must
// move regardless.
func Rebalance(resources []Resource, nodes []string, obj Objectives) (*Plan, error) {
	if len(nodes) == 0 {
		return nil, ErrNoNodes
	}
	obj = obj.normalized()
	nodeSet := map[string]bool{}
	for _, n := range nodes {
		nodeSet[n] = true
	}

	var totalLoad, totalData float64
	for _, r := range resources {
		totalLoad += r.Load
		totalData += r.Size
	}
	meanLoad := totalLoad / float64(len(nodes))
	meanData := totalData / float64(len(nodes))
	// Normalizers so the three cost terms are comparable.
	normLoad := meanLoad
	if normLoad <= 0 {
		normLoad = 1
	}
	normData := meanData
	if normData <= 0 {
		normData = 1
	}

	// Process heaviest resources first (classic LPT scheduling).
	order := make([]int, len(resources))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		ra, rb := resources[order[a]], resources[order[b]]
		wa := obj.WLoad*ra.Load/normLoad + obj.WData*ra.Size/normData
		wb := obj.WLoad*rb.Load/normLoad + obj.WData*rb.Size/normData
		if wa != wb {
			return wa > wb
		}
		return resources[order[a]].ID < resources[order[b]].ID // determinism
	})

	load := map[string]float64{}
	data := map[string]float64{}
	plan := &Plan{Assignment: map[string]string{}}

	for _, idx := range order {
		r := resources[idx]
		best := ""
		bestCost := 0.0
		for _, n := range nodes {
			// Projected imbalance if r lands on n.
			cost := obj.WLoad*((load[n]+r.Load)/normLoad) +
				obj.WData*((data[n]+r.Size)/normData)
			if n != r.Node {
				// The small constant keeps zero-size resources from
				// migrating pointlessly on cost ties.
				cost += obj.WTime * (r.Size/normData + 1e-6)
			}
			if best == "" || cost < bestCost || (cost == bestCost && n < best) {
				best, bestCost = n, cost
			}
		}
		load[best] += r.Load
		data[best] += r.Size
		plan.Assignment[r.ID] = best
		if best != r.Node {
			plan.Moves = append(plan.Moves, Move{ResourceID: r.ID, From: r.Node, To: best, Size: r.Size})
			plan.BytesMoved += r.Size
		}
	}

	for _, n := range nodes {
		if load[n] > plan.MaxLoad {
			plan.MaxLoad = load[n]
		}
		if data[n] > plan.MaxData {
			plan.MaxData = data[n]
		}
	}
	plan.MeanLoad = meanLoad
	plan.MeanData = meanData
	sort.Slice(plan.Moves, func(i, j int) bool { return plan.Moves[i].ResourceID < plan.Moves[j].ResourceID })
	return plan, nil
}

// Migrator performs one move; it is injected by the caller (e.g. a
// REMI-backed migration of a Yokan provider).
type Migrator func(ctx context.Context, m Move) error

// Execute runs the plan's moves with the given parallelism, stopping
// at the first error (already-completed moves are reported).
func (p *Plan) Execute(ctx context.Context, migrate Migrator, parallelism int) (completed []Move, err error) {
	if parallelism <= 0 {
		parallelism = 1
	}
	sem := make(chan struct{}, parallelism)
	var mu sync.Mutex
	var wg sync.WaitGroup
	var firstErr error
	for _, m := range p.Moves {
		mu.Lock()
		failed := firstErr != nil
		mu.Unlock()
		if failed {
			break
		}
		sem <- struct{}{}
		wg.Add(1)
		go func(m Move) {
			defer wg.Done()
			defer func() { <-sem }()
			if err := migrate(ctx, m); err != nil {
				mu.Lock()
				if firstErr == nil {
					firstErr = fmt.Errorf("pufferscale: move %s (%s->%s): %w", m.ResourceID, m.From, m.To, err)
				}
				mu.Unlock()
				return
			}
			mu.Lock()
			completed = append(completed, m)
			mu.Unlock()
		}(m)
	}
	wg.Wait()
	sort.Slice(completed, func(i, j int) bool { return completed[i].ResourceID < completed[j].ResourceID })
	return completed, firstErr
}
