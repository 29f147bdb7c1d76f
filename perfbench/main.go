// Command perfbench is the repository's end-to-end benchmark. Each
// workload stands up a deployment in this one process, drives it with
// a closed loop of YCSB-style client sessions, checks every value read
// and the final state, and prints its metrics: the end-to-end ones in
// an untraced run (--trace 0), the per-layer ones in a traced run
// (--trace 1). The last line of output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {"name": {"value": v, "unit": "u"}, ...}}
//
// Usage (from the repository root, see run.sh):
//
//	bash perfbench/run.sh --workload yokan-tcp-ycsb-b --seed 1 --seconds 20 --trace 0
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"sync"
	"syscall"
	"time"

	"mochi/internal/margo"
)

// Load shape shared by every workload.
const (
	sessions     = 2 // closed-loop client sessions
	setupRepeats = 5 // bring-ups per run; setup_s is their median
	warmup       = time.Second
	// dataDir, under the directory the benchmark runs from, holds each
	// run's scratch files (run.sh builds into it too).
	dataDir = ".bench_build"
)

// deployment is one workload's running system.
type deployment struct {
	// clients[i] is session i's client; clientInsts[i] its margo
	// instance, whose tracer opens the session's root spans.
	clients     []kv
	clientInsts []*margo.Instance
	// servers are the instances hosting providers.
	servers []*margo.Instance
	// background, when set, runs beside the load until ctx ends (the
	// reshard workload's migrations).
	background func(ctx context.Context, d *driver) error
	// reader returns the client the final-state check reads through,
	// with how many reads it may run at once.
	reader func(ctx context.Context) (kv, int, error)
	// counters returns workload-specific event counts (router
	// redirects and dual writes), read around the traced window.
	counters func() map[string]float64
	// compact, when set, drops state the run appended but the system
	// no longer needs (raft logs) before the heap is measured.
	compact func() error
	close   func()
}

// run is one invocation's settings and shared inputs.
type run struct {
	w      *workload
	layers *layers // nil in untraced runs
	keys   [][]byte
	z      *zipf
	migs   hist // migration durations, measured slots only
}

func main() {
	name := flag.String("workload", "", "workload name (see BENCHMARK.json)")
	seed := flag.Int64("seed", 1, "workload seed: the sessions' op streams are a function of it")
	seconds := flag.Int("seconds", 10, "measurement window in seconds")
	traced := flag.Int("trace", 0, "1: traced run printing per-layer metrics; 0: end-to-end metrics")
	flag.Parse()
	w := findWorkload(*name)
	if w == nil {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *name)
		os.Exit(2)
	}
	if *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be >= 1 and --trace 0 or 1")
		os.Exit(2)
	}
	res, err := execute(w, *seed, time.Duration(*seconds)*time.Second, *traced == 1)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.name, err)
		os.Exit(1)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

// result is the final output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted uint64            `json:"attempted"`
	Failed    uint64            `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func execute(w *workload, seed int64, window time.Duration, traced bool) (*result, error) {
	if err := os.MkdirAll(dataDir, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(dataDir, "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	r := &run{w: w, z: newZipf(w.keys, zipfTheta)}
	r.keys = make([][]byte, w.keys)
	for i := range r.keys {
		r.keys[i] = keyName(i)
	}
	if traced {
		r.layers = newLayers()
	}
	printRecord(w)

	// Bring the deployment up several times; the last one serves the
	// load. Set-up includes the preload.
	var dep *deployment
	setups := make([]float64, 0, setupRepeats)
	for i := 0; i < setupRepeats; i++ {
		start := time.Now()
		d, err := w.setup(r, fmt.Sprintf("%s/setup-%d", dir, i))
		if err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, time.Since(start).Seconds())
		if i < setupRepeats-1 {
			d.close()
		} else {
			dep = d
		}
	}
	defer dep.close()

	d := &driver{}
	for i := 0; i < sessions; i++ {
		d.sessions = append(d.sessions, &session{
			id:     i,
			cli:    dep.clients[i],
			tracer: dep.clientInsts[i].Tracer(),
			gen:    newOpStream(r.z, w.readFrac, seed, i, sessions),
			keys:   r.keys,
			val:    make([]byte, w.valueSize),
			ledger: make([]uint64, w.keys),
			maybe:  map[int][]uint64{},
		})
	}
	if traced {
		r.layers.watch(dep.servers, dep.clientInsts)
		for _, s := range d.sessions {
			s.roots = make([]rootSpan, 0, maxRoots)
		}
	}

	// Untraced runs split the window into one-second slots and report
	// medians over them, so a burst of outside load on the host moves
	// a few slots, not the result. Traced runs have two slots: a
	// baseline third with nothing recorded, then every layer recorded.
	nslots := int(window / time.Second)
	d.tracedSlot = -1
	if traced {
		nslots, d.tracedSlot = 2, 1
	}
	for _, s := range d.sessions {
		s.stats = make([]slotStats, nslots)
		if !traced {
			s.done = make([]uint32, window/rateTick)
		}
	}
	d.slot.Store(slotWarm)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	bgCtx, bgStop := context.WithCancel(ctx)
	defer bgStop()
	var bg sync.WaitGroup
	var bgErr error
	if dep.background != nil {
		bg.Add(1)
		go func() {
			defer bg.Done()
			bgErr = dep.background(bgCtx, d)
		}()
	}
	d.start(ctx)
	time.Sleep(warmup)

	var m0, m1 runtime.MemStats
	var cpu0, cpu1 time.Duration
	var counters0, counters1 map[string]float64
	var baseLen, sampling time.Duration // traced runs: baseline slot, root spans opened
	if !traced {
		runtime.ReadMemStats(&m0)
		if cpu0, err = processCPU(); err != nil {
			return nil, err
		}
		start := time.Now()
		d.t0.Store(start.UnixNano())
		for i := 0; i < nslots; i++ {
			d.slot.Store(int32(i))
			time.Sleep(time.Until(start.Add(time.Duration(i+1) * window / time.Duration(nslots))))
		}
	} else {
		start := time.Now()
		d.slot.Store(0)
		time.Sleep(window / 3)
		if dep.counters != nil {
			counters0 = dep.counters()
		}
		r.layers.begin()
		d.sampling.Store(true)
		d.slot.Store(1)
		traceStart := time.Now()
		baseLen = traceStart.Sub(start)
		for time.Since(start) < window {
			time.Sleep(20 * time.Millisecond)
			if d.sampling.Load() && r.layers.ringsHalfFull() {
				d.sampling.Store(false)
				r.layers.stopSampling()
				sampling = time.Since(traceStart)
			}
		}
		if d.sampling.Load() {
			d.sampling.Store(false)
			sampling = time.Since(traceStart)
		}
		if dep.counters != nil {
			counters1 = dep.counters()
		}
	}
	if err := d.stop(30 * time.Second); err != nil {
		return nil, err
	}
	if traced {
		r.layers.end()
	} else {
		runtime.ReadMemStats(&m1)
		if cpu1, err = processCPU(); err != nil {
			return nil, err
		}
	}
	bgStop()
	bg.Wait()
	if bgErr != nil {
		return nil, bgErr
	}

	if dep.compact != nil {
		if err := dep.compact(); err != nil {
			return nil, fmt.Errorf("compact: %w", err)
		}
	}
	var heap runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&heap)

	// Output checks: every get carried its key's id, and every acked
	// write reads back.
	var wrong int
	for _, s := range d.sessions {
		wrong += s.wrong
	}
	checkCtx, checkCancel := context.WithTimeout(ctx, 60*time.Second)
	defer checkCancel()
	reader, workers, err := dep.reader(checkCtx)
	if err != nil {
		return nil, fmt.Errorf("final-state reader: %w", err)
	}
	checked, lost, err := verify(checkCtx, reader, d.sessions, workers)
	if err != nil {
		return nil, err
	}
	fmt.Printf("check: %d gets with a wrong or missing value, %d of %d written keys lost or wrong\n", wrong, lost, checked)

	all := d.merged(0, nslots)
	res := &result{Correct: wrong == 0 && lost == 0, Attempted: all.ops, Failed: all.failed, Metrics: map[string]metric{}}
	if !traced {
		endToEnd(res, r, d, nslots, setups, cpu1-cpu0, &m0, &m1, &heap)
	} else {
		ok := perLayer(res, r, d, baseLen, sampling, diffCounters(counters0, counters1))
		res.Correct = res.Correct && ok
	}
	for _, s := range d.sessions {
		if s.err != nil {
			fmt.Printf("session %d: first failed op: %v\n", s.id, s.err)
		}
	}
	printMetrics(res)
	return res, nil
}

func diffCounters(a, b map[string]float64) map[string]float64 {
	out := map[string]float64{}
	for k, v := range b {
		out[k] = v - a[k]
	}
	return out
}

// processCPU returns the user and system CPU time this process has
// used. A hypervisor that deschedules the host's vCPUs stretches wall
// time but not this.
func processCPU() (time.Duration, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, fmt.Errorf("getrusage: %w", err)
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()), nil
}

// interquartileMean averages the middle half of xs.
func interquartileMean(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	mid := s[len(s)/4 : len(s)-len(s)/4]
	var sum float64
	for _, x := range mid {
		sum += x
	}
	return sum / float64(len(mid))
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func printMetrics(res *result) {
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := res.Metrics[n]
		fmt.Printf("%-40s %14.4f %s\n", n, m.Value, m.Unit)
	}
}

// printRecord prints the workload's rationale next to its metrics.
func printRecord(w *workload) {
	rec := map[string]any{
		"workload":     w.name,
		"why":          w.why,
		"load_shape":   loadShape,
		"flush_policy": flushPolicy,
		"sm_delay":     smDelay,
		"predictions":  predictionsFor(w.name),
	}
	b, _ := json.Marshal(rec) // plain strings and slices: cannot fail
	fmt.Println("record: " + string(b))
}
