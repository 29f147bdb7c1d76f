package core

import (
	"context"
	"sync"
	"time"

	"mochi/internal/pufferscale"
)

// AutoBalanceConfig tunes the introspection-driven rebalancing loop.
type AutoBalanceConfig struct {
	// Interval between evaluations (default 1s).
	Interval time.Duration
	// Objectives for the Pufferscale plans.
	Objectives pufferscale.Objectives
	// DataImbalanceThreshold triggers a rebalance when max/mean node
	// data exceeds it (default 1.5).
	DataImbalanceThreshold float64
	// LoadImbalanceThreshold triggers on max/mean node load
	// (default 1.5; set very high to balance on data only).
	LoadImbalanceThreshold float64
}

func (c AutoBalanceConfig) withDefaults() AutoBalanceConfig {
	if c.Interval <= 0 {
		c.Interval = time.Second
	}
	if c.DataImbalanceThreshold <= 0 {
		c.DataImbalanceThreshold = 1.5
	}
	if c.LoadImbalanceThreshold <= 0 {
		c.LoadImbalanceThreshold = 1.5
	}
	return c
}

// AutoBalancer is the paper's dynamic-service feedback loop closed:
// §2.3 names performance introspection "the empirical data necessary
// for informed decisions", and §6 (Observation 6) plans to use "the
// performance introspection tools presented in Section 4 to guide
// load rebalancing". The balancer periodically inventories the
// service (handler ULTs per provider over the last interval, bytes on
// disk), evaluates the placement, and executes a Pufferscale plan when
// imbalance crosses the configured thresholds.
type AutoBalancer struct {
	svc *Service
	cfg AutoBalanceConfig

	mu       sync.Mutex
	evals    int
	triggers int
	lastPlan *pufferscale.Plan
	lastErr  error

	// served holds each resource's ULT count at the previous
	// evaluation: the balancer weighs the load of its own interval,
	// not the history since each process started.
	served map[placement]float64

	stop     chan struct{}
	stopOnce sync.Once
	done     chan struct{}
}

// StartAutoBalance begins the loop; call Stop to end it.
func (s *Service) StartAutoBalance(cfg AutoBalanceConfig) *AutoBalancer {
	ab := &AutoBalancer{
		svc:  s,
		cfg:  cfg.withDefaults(),
		stop: make(chan struct{}),
		done: make(chan struct{}),
	}
	go ab.loop()
	return ab
}

// Stats reports (evaluations, triggered rebalances).
func (ab *AutoBalancer) Stats() (evals, triggers int) {
	ab.mu.Lock()
	defer ab.mu.Unlock()
	return ab.evals, ab.triggers
}

// LastPlan returns the most recent executed plan and its error.
func (ab *AutoBalancer) LastPlan() (*pufferscale.Plan, error) {
	ab.mu.Lock()
	defer ab.mu.Unlock()
	return ab.lastPlan, ab.lastErr
}

// Stop terminates the loop and waits for an in-flight rebalance.
func (ab *AutoBalancer) Stop() {
	ab.stopOnce.Do(func() { close(ab.stop) })
	<-ab.done
}

func (ab *AutoBalancer) loop() {
	defer close(ab.done)
	ticker := time.NewTicker(ab.cfg.Interval)
	defer ticker.Stop()
	for {
		select {
		case <-ab.stop:
			return
		case <-ticker.C:
			ab.evaluate()
		}
	}
}

// placement identifies a resource on the node hosting it.
type placement struct{ node, id string }

// evaluate computes the current placement metrics with a dry-run plan
// (all movement forbidden), then executes a real plan if thresholds
// are crossed.
func (ab *AutoBalancer) evaluate() {
	ab.mu.Lock()
	ab.evals++
	ab.mu.Unlock()

	inv, err := ab.svc.takeInventory()
	if err != nil {
		return
	}
	ab.loadSinceLastEvaluation(inv.resources)
	// Dry run: an all-WTime plan never moves anything but reports the
	// imbalance of the current placement.
	current, err := pufferscale.Rebalance(inv.resources, inv.nodes, pufferscale.Objectives{WTime: 1})
	if err != nil {
		return
	}
	if current.DataImbalance() < ab.cfg.DataImbalanceThreshold &&
		current.LoadImbalance() < ab.cfg.LoadImbalanceThreshold {
		return
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
	plan, err := inv.rebalance(ctx, ab.cfg.Objectives)
	cancel()
	ab.mu.Lock()
	ab.triggers++
	ab.lastPlan, ab.lastErr = plan, err
	ab.mu.Unlock()
}

// loadSinceLastEvaluation turns each resource's cumulative ULT count
// into the count since the previous evaluation. A resource seen for
// the first time on its node keeps its full count.
func (ab *AutoBalancer) loadSinceLastEvaluation(resources []pufferscale.Resource) {
	served := make(map[placement]float64, len(resources))
	for i := range resources {
		r := &resources[i]
		k := placement{r.Node, r.ID}
		served[k] = r.Load
		if prev, ok := ab.served[k]; ok && prev <= r.Load {
			r.Load -= prev
		}
	}
	ab.served = served
}
