package core

import (
	"fmt"
	"path/filepath"
	"testing"
	"time"

	"mochi/internal/pufferscale"
	"mochi/internal/yokan"
)

// TestAutoBalancerReactsToSkew: the introspection-driven loop detects
// a data-skewed placement and migrates databases until the imbalance
// is under its threshold, without any operator action.
func TestAutoBalancerReactsToSkew(t *testing.T) {
	base := t.TempDir()
	// node-0 gets four databases; the other nodes start empty.
	spec := Spec{
		GroupName: "ab-service",
		SSG:       fastSSG(),
		NodeConfig: func(node string) []byte {
			dir := filepath.Join(base, node)
			if node != "node-0" {
				return []byte(fmt.Sprintf(`{
				  "libraries": {"yokan": "x"},
				  "remi_root": %q
				}`, filepath.Join(dir, "remi")))
			}
			providers := ""
			for i := 1; i <= 4; i++ {
				if i > 1 {
					providers += ","
				}
				providers += fmt.Sprintf(`
				  {"name": "db-%d", "type": "yokan", "provider_id": %d,
				   "config": {"type": "log", "path": %q, "no_sync": true}}`,
					i, i, filepath.Join(dir, fmt.Sprintf("db-%d.log", i)))
			}
			return []byte(fmt.Sprintf(`{
			  "libraries": {"yokan": "x"},
			  "remi_root": %q,
			  "providers": [%s]
			}`, filepath.Join(dir, "remi"), providers))
		},
	}
	svc, _ := startService(t, spec, 4, 6)
	ctx := sctx(t)

	// Fill the four databases (all on node-0).
	p0, _ := svc.Process("node-0")
	cli := yokan.NewClient(svc.Admin())
	for id := uint16(1); id <= 4; id++ {
		h := cli.Handle(p0.Addr(), id)
		var pairs []yokan.KeyValue
		for i := 0; i < 30; i++ {
			pairs = append(pairs, yokan.KeyValue{
				Key:   []byte(fmt.Sprintf("k-%d-%03d", id, i)),
				Value: make([]byte, 1024),
			})
		}
		if err := h.PutMulti(ctx, pairs); err != nil {
			t.Fatal(err)
		}
	}

	ab := svc.StartAutoBalance(AutoBalanceConfig{
		Interval:               50 * time.Millisecond,
		Objectives:             pufferscale.Objectives{WData: 1, WTime: 0.1},
		DataImbalanceThreshold: 1.5,
	})
	defer ab.Stop()

	// Eventually every node holds exactly one database.
	pollUntil(1500, 20*time.Millisecond, func() bool {
		spread := 0
		for _, node := range svc.Nodes() {
			p, _ := svc.Process(node)
			if len(p.Server.ResourceInventory()) == 1 {
				spread++
			}
		}
		return spread == 4
	})
	evals, triggers := ab.Stats()
	if triggers == 0 {
		t.Fatalf("balancer never triggered (%d evals)", evals)
	}
	spread := 0
	total := 0
	for _, node := range svc.Nodes() {
		p, _ := svc.Process(node)
		inv := p.Server.ResourceInventory()
		if len(inv) == 1 {
			spread++
		}
		for _, info := range inv {
			h := cli.Handle(p.Addr(), info.ProviderID)
			n, err := h.Count(ctx)
			if err != nil {
				t.Fatal(err)
			}
			total += n
		}
	}
	if spread != 4 {
		t.Fatalf("databases not spread 1-per-node (spread=%d)", spread)
	}
	if total != 120 {
		t.Fatalf("data lost during auto-balance: %d keys", total)
	}
	// Once balanced, further evaluations must not trigger again.
	_, trigBefore := ab.Stats()
	time.Sleep(300 * time.Millisecond)
	_, trigAfter := ab.Stats()
	if trigAfter > trigBefore {
		t.Fatalf("balancer kept rebalancing a balanced service (%d -> %d)", trigBefore, trigAfter)
	}
}

// TestAutoBalancerIdleOnBalancedService: no spurious migrations.
func TestAutoBalancerIdleOnBalancedService(t *testing.T) {
	svc, _ := startService(t, kvSpec(t, RecoverNone), 3, 5)
	ab := svc.StartAutoBalance(AutoBalanceConfig{
		Interval: 30 * time.Millisecond,
	})
	defer ab.Stop()
	time.Sleep(300 * time.Millisecond)
	evals, triggers := ab.Stats()
	if evals == 0 {
		t.Fatal("balancer never evaluated")
	}
	if triggers != 0 {
		t.Fatalf("balancer triggered %d times on a balanced service", triggers)
	}
}
