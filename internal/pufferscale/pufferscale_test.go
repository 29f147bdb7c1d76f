package pufferscale

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"
)

func mkResources(n int, nodes []string, seed int64) []Resource {
	rng := rand.New(rand.NewSource(seed))
	out := make([]Resource, n)
	for i := range out {
		out[i] = Resource{
			ID:   fmt.Sprintf("r%03d", i),
			Node: nodes[rng.Intn(len(nodes))],
			Load: float64(rng.Intn(100) + 1),
			Size: float64(rng.Intn(1000) + 1),
		}
	}
	return out
}

func TestNoNodesRejected(t *testing.T) {
	if _, err := Rebalance(nil, nil, Objectives{}); !errors.Is(err, ErrNoNodes) {
		t.Fatalf("err = %v", err)
	}
}

func TestEmptyResourcesOK(t *testing.T) {
	p, err := Rebalance(nil, []string{"a"}, Objectives{})
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Moves) != 0 || p.BytesMoved != 0 {
		t.Fatalf("plan = %+v", p)
	}
}

func TestEveryResourceAssignedToValidNode(t *testing.T) {
	nodes := []string{"n0", "n1", "n2"}
	res := mkResources(50, nodes, 1)
	newNodes := []string{"n1", "n2", "n3"}
	p, err := Rebalance(res, newNodes, Objectives{})
	if err != nil {
		t.Fatal(err)
	}
	valid := map[string]bool{"n1": true, "n2": true, "n3": true}
	if len(p.Assignment) != 50 {
		t.Fatalf("assignment covers %d resources", len(p.Assignment))
	}
	for id, n := range p.Assignment {
		if !valid[n] {
			t.Fatalf("%s assigned to removed/unknown node %s", id, n)
		}
	}
}

func TestRemovedNodesDrained(t *testing.T) {
	nodes := []string{"n0", "n1", "n2", "n3"}
	res := mkResources(40, nodes, 2)
	survivors := []string{"n0", "n1"}
	p, err := Rebalance(res, survivors, Objectives{WTime: 1}) // even with max movement-avoidance
	if err != nil {
		t.Fatal(err)
	}
	for id, n := range p.Assignment {
		if n == "n2" || n == "n3" {
			t.Fatalf("%s left on removed node %s", id, n)
		}
	}
	// Every resource that was on a removed node appears in Moves.
	moved := map[string]bool{}
	for _, m := range p.Moves {
		moved[m.ResourceID] = true
	}
	for _, r := range res {
		if (r.Node == "n2" || r.Node == "n3") && !moved[r.ID] {
			t.Fatalf("%s on removed node but not moved", r.ID)
		}
	}
}

func TestScaleOutImprovesLoadBalance(t *testing.T) {
	// All resources crammed on one node; scale to 4 nodes.
	var res []Resource
	for i := 0; i < 32; i++ {
		res = append(res, Resource{ID: fmt.Sprintf("r%d", i), Node: "n0", Load: 10, Size: 100})
	}
	p, err := Rebalance(res, []string{"n0", "n1", "n2", "n3"}, Objectives{WLoad: 1})
	if err != nil {
		t.Fatal(err)
	}
	if p.LoadImbalance() > 1.01 {
		t.Fatalf("load imbalance = %f", p.LoadImbalance())
	}
}

func TestTimeWeightReducesMovement(t *testing.T) {
	nodes := []string{"n0", "n1", "n2"}
	res := mkResources(60, nodes, 3)
	balanced, err := Rebalance(res, nodes, Objectives{WLoad: 1, WData: 1})
	if err != nil {
		t.Fatal(err)
	}
	lazy, err := Rebalance(res, nodes, Objectives{WLoad: 1, WData: 1, WTime: 50})
	if err != nil {
		t.Fatal(err)
	}
	if lazy.BytesMoved > balanced.BytesMoved {
		t.Fatalf("high WTime moved more bytes (%f) than low (%f)", lazy.BytesMoved, balanced.BytesMoved)
	}
	// And the pure-balance plan should balance at least as well.
	if balanced.LoadImbalance() > lazy.LoadImbalance()+1e-9 {
		t.Fatalf("balance plan (%f) worse than lazy plan (%f)", balanced.LoadImbalance(), lazy.LoadImbalance())
	}
}

func TestLoadVsDataObjectives(t *testing.T) {
	// Resources where load and size anti-correlate: heavy-load ones
	// are small, heavy-data ones are idle.
	var res []Resource
	for i := 0; i < 16; i++ {
		res = append(res, Resource{ID: fmt.Sprintf("hot%d", i), Node: "n0", Load: 100, Size: 1})
		res = append(res, Resource{ID: fmt.Sprintf("big%d", i), Node: "n0", Load: 1, Size: 1000})
	}
	nodes := []string{"n0", "n1"}
	loadPlan, _ := Rebalance(res, nodes, Objectives{WLoad: 1})
	dataPlan, _ := Rebalance(res, nodes, Objectives{WData: 1})
	if loadPlan.LoadImbalance() > 1.05 {
		t.Fatalf("load-optimized plan imbalance = %f", loadPlan.LoadImbalance())
	}
	if dataPlan.DataImbalance() > 1.05 {
		t.Fatalf("data-optimized plan imbalance = %f", dataPlan.DataImbalance())
	}
}

func TestDeterminism(t *testing.T) {
	nodes := []string{"a", "b", "c"}
	res := mkResources(30, nodes, 4)
	p1, _ := Rebalance(res, nodes, Objectives{WLoad: 1, WData: 1, WTime: 1})
	p2, _ := Rebalance(res, nodes, Objectives{WLoad: 1, WData: 1, WTime: 1})
	if len(p1.Moves) != len(p2.Moves) {
		t.Fatal("plans differ across runs")
	}
	for i := range p1.Moves {
		if p1.Moves[i] != p2.Moves[i] {
			t.Fatalf("move %d differs: %+v vs %+v", i, p1.Moves[i], p2.Moves[i])
		}
	}
}

func TestExecuteRunsAllMoves(t *testing.T) {
	nodes := []string{"n0", "n1", "n2"}
	res := mkResources(20, []string{"n0"}, 5)
	p, err := Rebalance(res, nodes, Objectives{WLoad: 1})
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	executed := map[string]bool{}
	done, err := p.Execute(context.Background(), func(_ context.Context, m Move) error {
		mu.Lock()
		executed[m.ResourceID] = true
		mu.Unlock()
		return nil
	}, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(done) != len(p.Moves) {
		t.Fatalf("completed %d of %d", len(done), len(p.Moves))
	}
	for _, m := range p.Moves {
		if !executed[m.ResourceID] {
			t.Fatalf("move %s never executed", m.ResourceID)
		}
	}
}

func TestExecuteStopsOnError(t *testing.T) {
	res := mkResources(20, []string{"n0"}, 6)
	p, err := Rebalance(res, []string{"n1"}, Objectives{})
	if err != nil {
		t.Fatal(err)
	}
	boom := errors.New("migration failed")
	count := 0
	var mu sync.Mutex
	done, err := p.Execute(context.Background(), func(_ context.Context, m Move) error {
		mu.Lock()
		defer mu.Unlock()
		count++
		if count == 3 {
			return boom
		}
		return nil
	}, 1)
	if err == nil || !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
	if len(done) >= len(p.Moves) {
		t.Fatal("all moves completed despite error")
	}
}

// Property: rebalancing never loses or invents resources, and removed
// nodes are always drained.
func TestQuickInvariants(t *testing.T) {
	f := func(seed int64, nRes uint8, removeNode bool) bool {
		nodes := []string{"n0", "n1", "n2", "n3"}
		res := mkResources(int(nRes%64)+1, nodes, seed)
		target := nodes
		if removeNode {
			target = nodes[:3]
		}
		p, err := Rebalance(res, target, Objectives{WLoad: 1, WData: 1, WTime: 1})
		if err != nil {
			return false
		}
		if len(p.Assignment) != len(res) {
			return false
		}
		valid := map[string]bool{}
		for _, n := range target {
			valid[n] = true
		}
		for _, n := range p.Assignment {
			if !valid[n] {
				return false
			}
		}
		// BytesMoved equals the sum of move sizes.
		var sum float64
		for _, m := range p.Moves {
			sum += m.Size
		}
		return sum == p.BytesMoved
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkRebalance1000Resources(b *testing.B) {
	nodes := make([]string, 16)
	for i := range nodes {
		nodes[i] = fmt.Sprintf("n%d", i)
	}
	res := mkResources(1000, nodes, 7)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Rebalance(res, nodes, Objectives{WLoad: 1, WData: 1, WTime: 1}); err != nil {
			b.Fatal(err)
		}
	}
}

// Imbalance measures the current placement directly; it must agree
// with the all-WTime dry run, which never moves a resource and so
// reports the placement as it stands.
func TestImbalanceMatchesDryRun(t *testing.T) {
	nodes := []string{"a", "b", "c"}
	for _, tc := range []struct {
		name string
		res  []Resource
	}{
		{"skewed", []Resource{
			{ID: "r1", Node: "a", Load: 90, Size: 400},
			{ID: "r2", Node: "a", Load: 6, Size: 300},
			{ID: "r3", Node: "b", Load: 3, Size: 200},
		}},
		{"balanced", []Resource{
			{ID: "r1", Node: "a", Load: 10, Size: 100},
			{ID: "r2", Node: "b", Load: 10, Size: 100},
			{ID: "r3", Node: "c", Load: 10, Size: 100},
		}},
		{"empty load", []Resource{
			{ID: "r1", Node: "a", Size: 500},
			{ID: "r2", Node: "c", Size: 100},
		}},
		{"zero size", []Resource{
			{ID: "r1", Node: "b", Load: 7},
			{ID: "r2", Node: "b", Load: 5},
			{ID: "r3", Node: "c", Load: 1},
		}},
		{"no resources", nil},
	} {
		dry, err := Rebalance(tc.res, nodes, Objectives{WTime: 1})
		if err != nil {
			t.Fatal(err)
		}
		if len(dry.Moves) != 0 {
			t.Fatalf("%s: dry run moved %v", tc.name, dry.Moves)
		}
		load, data := Imbalance(tc.res, nodes)
		if load != dry.LoadImbalance() || data != dry.DataImbalance() {
			t.Fatalf("%s: Imbalance = (%g, %g), dry run = (%g, %g)",
				tc.name, load, data, dry.LoadImbalance(), dry.DataImbalance())
		}
	}
}

// TestEvaluatorLoadIsPerInterval: the evaluator weighs the load since
// its previous evaluation, so an early burst of traffic does not keep
// a service looking imbalanced forever.
func TestEvaluatorLoadIsPerInterval(t *testing.T) {
	var ev Evaluator
	nodes := []string{"node-0", "node-1"}
	inf := math.Inf(1)
	for i, step := range []struct {
		node       string
		cumulative float64
		want       float64
	}{
		{"node-0", 10, 10}, // first sight: the whole count
		{"node-0", 15, 5},  // growth since the previous evaluation
		{"node-0", 15, 0},  // idle interval
		{"node-1", 3, 3},   // migrated: first sight on the new node
	} {
		res := []Resource{{ID: "db", Node: step.node, Load: step.cumulative}}
		if _, _, err := ev.Evaluate(res, nodes, Objectives{}, inf, inf); err != nil {
			t.Fatal(err)
		}
		if res[0].Load != step.want {
			t.Fatalf("evaluation %d: load %g, want %g", i, res[0].Load, step.want)
		}
	}
}

// The trigger is strict: a placement whose imbalance equals its bound
// is within bounds, one just above it is planned.
func TestEvaluatorThresholdIsStrict(t *testing.T) {
	nodes := []string{"a", "b"}
	// Loads 3 and 1: max/mean = 3/2 = 1.5 exactly. Sizes are equal.
	mk := func() []Resource {
		return []Resource{
			{ID: "r1", Node: "a", Load: 2, Size: 1},
			{ID: "r2", Node: "a", Load: 1, Size: 1},
			{ID: "r3", Node: "b", Load: 1, Size: 2},
		}
	}
	var ev Evaluator
	plan, load, err := ev.Evaluate(mk(), nodes, Objectives{WLoad: 1}, 1.5, 10)
	if err != nil || plan != nil || load != 1.5 {
		t.Fatalf("at the bound: plan %v, load %g, err %v; want no plan, 1.5", plan, load, err)
	}
	ev = Evaluator{}
	plan, load, err = ev.Evaluate(mk(), nodes, Objectives{WLoad: 1}, 1.49, 10)
	if err != nil || plan == nil || load != 1.5 {
		t.Fatalf("above the bound: plan %v, load %g, err %v; want a plan", plan, load, err)
	}
	// Data alone triggers too: sizes 2 and 2 are balanced, 4 and 0 not.
	ev = Evaluator{}
	skew := []Resource{{ID: "r1", Node: "a", Size: 2}, {ID: "r2", Node: "a", Size: 2}}
	if plan, _, _ := ev.Evaluate(skew, nodes, Objectives{WData: 1}, 10, 1.5); plan == nil || len(plan.Moves) != 1 {
		t.Fatalf("data skew: plan %+v, want one move", plan)
	}
}

// Within bounds the evaluator returns no plan, and an idle second
// interval measures zero load, not the history.
func TestEvaluatorNilPlanWithinBounds(t *testing.T) {
	var ev Evaluator
	nodes := []string{"a", "b"}
	res := func() []Resource {
		return []Resource{{ID: "hot", Node: "a", Load: 100}, {ID: "cold", Node: "b", Load: 1}}
	}
	plan, load, err := ev.Evaluate(res(), nodes, Objectives{}, 1.25, math.Inf(1))
	if err != nil || plan == nil || load <= 1.25 {
		t.Fatalf("first interval: plan %v, load %g, err %v; want a plan", plan, load, err)
	}
	plan, load, err = ev.Evaluate(res(), nodes, Objectives{}, 1.25, math.Inf(1))
	if err != nil || plan != nil || load != 1 {
		t.Fatalf("idle interval: plan %+v, load %g, err %v; want nil plan at 1.0", plan, load, err)
	}
	if _, _, err := ev.Evaluate(res(), nil, Objectives{}, 1, 1); !errors.Is(err, ErrNoNodes) {
		t.Fatalf("no nodes: err = %v", err)
	}
}
