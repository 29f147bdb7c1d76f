// E12: transport scaling at high connection counts. Unlike E1 (one
// client, one server, latency-oriented) this experiment stands up
// hundreds to thousands of real TCP connections against a single
// server class and measures aggregate forward throughput while
// sweeping the transport's two scaling knobs: per-destination pool
// size and GOMAXPROCS. Pool size 1 approximates the pre-pool
// single-connection transport, so each row pair doubles as a
// before/after comparison.
package experiments

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"mochi/internal/mercury"
)

// C10KOptions configures the connection-scaling sweep.
type C10KOptions struct {
	// Conns lists client-class counts to sweep. Each client class owns
	// one listener and PoolSize outbound connections to the server, so
	// total sockets per cell ≈ conns × pool.
	Conns []int
	// Workers is the number of concurrent forwarders, striped over the
	// client classes round-robin.
	Workers int
	// Pools lists per-destination pool sizes to sweep. 1 reproduces the
	// single-connection-per-peer baseline.
	Pools []int
	// GOMAXPROCS lists scheduler widths to sweep (0 entries are
	// replaced by the current value).
	GOMAXPROCS []int
	// Duration is the measured window per cell.
	Duration time.Duration
	// PayloadSize is the request/response payload in bytes.
	PayloadSize int
}

func (o C10KOptions) withDefaults() C10KOptions {
	if len(o.Conns) == 0 {
		o.Conns = []int{64, 256}
	}
	if o.Workers <= 0 {
		o.Workers = 256
	}
	if len(o.Pools) == 0 {
		o.Pools = []int{1, 4}
	}
	if len(o.GOMAXPROCS) == 0 {
		o.GOMAXPROCS = []int{runtime.GOMAXPROCS(0)}
	}
	if o.Duration <= 0 {
		o.Duration = time.Second
	}
	if o.PayloadSize <= 0 {
		o.PayloadSize = 64
	}
	return o
}

// RunC10K runs the connection-scaling sweep and returns the E12 table.
func RunC10K(opts C10KOptions) (*Table, error) {
	opts = opts.withDefaults()
	table := &Table{
		ID:      "E12",
		Title:   "Transport scaling: connections × pool size × GOMAXPROCS",
		Columns: []string{"conns", "sockets", "workers", "pool", "gomaxprocs", "ops", "throughput"},
	}
	prev := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prev)
	for _, gmp := range opts.GOMAXPROCS {
		if gmp <= 0 {
			gmp = prev
		}
		runtime.GOMAXPROCS(gmp)
		for _, pool := range opts.Pools {
			for _, conns := range opts.Conns {
				ops, elapsed, err := runC10KCell(conns, opts.Workers, pool, opts.Duration, opts.PayloadSize)
				if err != nil {
					return nil, fmt.Errorf("conns=%d pool=%d gomaxprocs=%d: %w", conns, pool, gmp, err)
				}
				table.AddRow(
					fmt.Sprintf("%d", conns),
					fmt.Sprintf("%d", conns*pool),
					fmt.Sprintf("%d", opts.Workers),
					fmt.Sprintf("%d", pool),
					fmt.Sprintf("%d", gmp),
					fmt.Sprintf("%d", ops),
					fmtRate(int(ops), elapsed),
				)
			}
		}
	}
	table.Note("payload %dB per direction; pool=1 approximates the pre-pool single-connection transport", opts.PayloadSize)
	table.Note("sockets = client classes × pool size (responses ride the same connections back)")
	return table, nil
}

// runC10KCell measures one (conns, workers, pool) cell: conns client
// classes forwarding an echo RPC to one server class for d seconds.
func runC10KCell(conns, workers, pool int, d time.Duration, payloadSize int) (int64, time.Duration, error) {
	topts := mercury.TCPOptions{PoolSize: pool}
	server, err := mercury.NewTCPClassOptions("127.0.0.1:0", topts)
	if err != nil {
		return 0, 0, err
	}
	defer server.Close()
	id := server.Register("c10k-echo", func(h *mercury.Handle) { _ = h.Respond(h.Input()) })

	clients := make([]*mercury.Class, conns)
	for i := range clients {
		c, cerr := mercury.NewTCPClassOptions("127.0.0.1:0", topts)
		if cerr != nil {
			for _, cc := range clients[:i] {
				cc.Close()
			}
			return 0, 0, fmt.Errorf("client %d: %w", i, cerr)
		}
		clients[i] = c
	}
	defer func() {
		for _, c := range clients {
			c.Close()
		}
	}()

	payload := make([]byte, payloadSize)
	for i := range payload {
		payload[i] = byte(i)
	}
	dst := server.Addr()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	// Warm every pool slot of every client before the measured window:
	// request seq picks the slot round-robin, so pool sequential
	// forwards touch each slot once. Without this the window opens with
	// a dial storm (conns × (pool-1) simultaneous connects) that
	// overflows the listen backlog and measures SYN retransmits instead
	// of the transport.
	for _, c := range clients {
		for j := 0; j < pool; j++ {
			if _, err := c.Forward(ctx, dst, id, payload); err != nil {
				return 0, 0, fmt.Errorf("warmup: %w", err)
			}
		}
	}

	var ops atomic.Int64
	var firstErr atomic.Value
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(d)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := clients[w%len(clients)]
			for time.Now().Before(deadline) {
				if _, err := c.Forward(ctx, dst, id, payload); err != nil {
					if ctx.Err() == nil {
						firstErr.CompareAndSwap(nil, err)
						cancel()
					}
					return
				}
				ops.Add(1)
			}
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(start)
	if err, _ := firstErr.Load().(error); err != nil {
		return 0, 0, err
	}
	return ops.Load(), elapsed, nil
}

// E12Transport adapts RunC10K to the experiment Runner shape. Quick
// mode shrinks the sweep to CI scale at the current GOMAXPROCS; full
// mode runs the thousand-socket cells at GOMAXPROCS 1, 2 and 4.
func E12Transport(quick bool) (*Table, error) {
	if quick {
		return RunC10K(C10KOptions{Conns: []int{16, 64}, Workers: 128, Pools: []int{1, 4}, Duration: 300 * time.Millisecond})
	}
	return RunC10K(C10KOptions{
		Conns:      []int{16, 64, 256},
		Workers:    256,
		Pools:      []int{1, 4},
		GOMAXPROCS: []int{1, 2, 4},
		Duration:   500 * time.Millisecond,
	})
}
