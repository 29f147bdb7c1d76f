package main

import (
	"fmt"
	"runtime"
	"time"
)

// endToEnd fills the untraced run's metrics: what a user of the
// service sees. Latency percentiles are medians over the window's
// one-second slots; CPU time and allocations cover the window, and the
// heap is measured after it.
//
// Throughput and the p99 latencies are printed but not gated. Across
// runs of one commit they moved with the host's CPU steal (up to a
// quarter of the vCPU time) by more than any bound of 25% could hold;
// CPU time per op, which steal does not stretch, is gated instead.
// Throughput is the interquartile mean over rateTicks.
func endToEnd(res *result, r *run, d *driver, n int, setups []float64, cpu time.Duration, m0, m1, heap *runtime.MemStats) {
	set := func(name string, v float64, unit string) { res.Metrics[name] = metric{v, unit} }
	gp50, gp99, pp50, pp99 := make([]float64, n), make([]float64, n), make([]float64, n), make([]float64, n)
	for i := 0; i < n; i++ {
		st := d.merged(i, i+1)
		gp50[i], gp99[i] = us(st.get.quantile(0.50)), us(st.get.quantile(0.99))
		pp50[i], pp99[i] = us(st.put.quantile(0.50)), us(st.put.quantile(0.99))
	}
	rate := make([]float64, len(d.sessions[0].done))
	for _, s := range d.sessions {
		for i, c := range s.done {
			rate[i] += float64(c) / rateTick.Seconds()
		}
	}
	all := d.merged(0, n)
	ops := float64(all.ops - all.failed)
	set("cpu_us_per_op", us(float64(cpu)/ops), "us")
	set("get_p50_us", median(gp50), "us")
	set("put_p50_us", median(pp50), "us")
	set("setup_s", median(setups), "s")
	set("allocs_per_op", float64(m1.Mallocs-m0.Mallocs)/ops, "count")
	set("heap_mb", float64(heap.HeapAlloc)/(1<<20), "MB")

	// Printed for the record, not gated: they are 0 or undefined on
	// some workloads.
	fmt.Printf("samples: %d gets, %d puts over %d slots; ops_per_s %.4f; failed_frac %.6f; get_p99_us %.4f; put_p99_us %.4f\n",
		all.get.count(), all.put.count(), n, interquartileMean(rate), float64(all.failed)/float64(all.ops), median(gp99), median(pp99))
	if r.migs.count() > 0 {
		fmt.Printf("migration_p50_ms %.4f ms over %d migrations; migration_op_p99_us %.4f us over %d ops\n",
			ms(r.migs.quantile(0.5)), r.migs.count(), us(all.overlap.quantile(0.99)), all.overlap.count())
	}
}

// perLayer fills the traced run's metrics from its two slots: the
// baseline (slot 0, nothing recorded, baseLen long) and the traced
// rest (slot 1). It returns false when a trace sanity check fails: a
// span was evicted, or some sampled op's layer self times add up to
// more than its root span.
func perLayer(res *result, r *run, d *driver, baseLen, sampling time.Duration, counters map[string]float64) bool {
	l := r.layers
	set := func(name string, v float64, unit string) { res.Metrics[name] = metric{v, unit} }
	base, st := d.merged(0, 1), d.merged(1, 2)
	baseRate := float64(base.ops) / baseLen.Seconds()
	// The untraced baseline's figures that the untraced run prints but
	// does not gate.
	set("baseline.ops_per_s", baseRate, "1/s")
	set("baseline.get_p99_us", us(base.get.quantile(0.99)), "us")
	set("baseline.put_p99_us", us(base.put.quantile(0.99)), "us")
	ops := float64(st.ops - st.failed)
	perOp := func(v float64) float64 {
		if ops == 0 {
			return 0
		}
		return v / ops
	}
	wf := l.waterfall(d.sessions)

	for role, name := range roleNames {
		set("mercury.wire_us."+name, us(wf.self[role][layerMercury].quantile(0.5)), "us")
		set("client.self_us."+name, us(wf.self[role][layerClient].quantile(0.5)), "us")
		set("margo.queue_wait_p50_us."+name, us(l.queue[role].quantile(0.5)), "us")
		set("margo.queue_wait_p99_us."+name, us(l.queue[role].quantile(0.99)), "us")
		set("margo.handler_us."+name, us(l.handler[role].quantile(0.5)), "us")
	}
	writev := l.registryDelta("mochi_tcp_writev_batch_frames")
	set("mercury.frames_per_writev", writev.Mean(), "count")
	set("mercury.req_bytes", perOp(float64(l.reqBytes.Load())), "B")
	set("mercury.resp_bytes", perOp(float64(l.respBytes.Load())), "B")

	set("yokan.db_get_us", us(l.db.get.quantile(0.5)), "us")
	set("yokan.db_put_us", us(l.db.put.quantile(0.5)), "us")
	provider := 0.0
	if l.db.get.count() > 0 {
		provider = us(l.handler[roleGet].quantile(0.5) - l.db.get.quantile(0.5))
	}
	set("yokan.provider_us", provider, "us")

	appends := float64(l.store.append.count())
	set("raft.appends_per_op", perOp(appends), "count")
	entriesPerAppend := 0.0
	if appends > 0 {
		entriesPerAppend = float64(l.store.entries.Load()) / appends
	}
	set("raft.entries_per_append", entriesPerAppend, "count")
	set("raft.store_append_us", us(l.store.append.quantile(0.5)), "us")
	set("raft.append_entries_handler_us", us(l.appendEntries.quantile(0.5)), "us")
	set("raft.fsm_apply_us", us(l.fsm.put.quantile(0.5)), "us")
	set("raft.fsm_read_us", us(l.fsm.get.quantile(0.5)), "us")
	set("raft.commit_latency_us", l.registryDelta("mochi_raft_commit_latency_seconds").P50()*1e6, "us")
	set("raft.readindex_batch", l.registryDelta("mochi_raft_readindex_batch").Mean(), "count")

	perKop := func(v float64) float64 { return perOp(v) * 1000 }
	set("router.redirects_per_kop", perKop(counters["redirects"]), "count")
	set("router.dual_writes_per_kop", perKop(counters["dual_writes"]), "count")
	set("router.stage_fwd_us", us(l.stageFwd.quantile(0.5)), "us")
	set("router.phase_ms.prepare", ms(l.prepareFwd.quantile(0.5)), "ms")
	set("router.phase_ms.snapshot", ms(l.remiFwd.quantile(0.5)), "ms")
	set("router.phase_ms.promote", ms(l.promoteFwd.quantile(0.5)), "ms")
	set("remi.begin_handler_ms", ms(l.remiBegin.quantile(0.5)), "ms")
	mbps := 0.0
	if l.remiFwd.count() > 0 {
		bulk := l.registryDelta("mochi_bulk_transfer_bytes")
		mbps = bulk.Sum / (1 << 20) / (l.remiFwd.mean() * float64(l.remiFwd.count()) / 1e9)
	}
	set("remi.mb_per_s", mbps, "MB/s")
	set("reshard.migration_p50_ms", ms(r.migs.quantile(0.5)), "ms")
	set("reshard.migration_op_p99_us", us(st.overlap.quantile(0.99)), "us")

	set("go.bytes_per_op", perOp(float64(l.mem1.TotalAlloc-l.mem0.TotalAlloc)), "B")
	set("go.gc_per_kop", perKop(float64(l.mem1.NumGC-l.mem0.NumGC)), "count")
	// Every op that started while sampling was on carries a root span.
	overhead := 0.0
	if baseRate > 0 && sampling > 0 {
		overhead = 1 - float64(wf.ops)/sampling.Seconds()/baseRate
	}
	set("trace.overhead_frac", overhead, "ratio")
	evicted := l.evicted()
	set("trace.evicted", float64(evicted), "count")
	set("trace.sampled_ops", float64(wf.ops), "count")
	trimmed := 0.0
	if wf.rootNanos > 0 {
		trimmed = float64(wf.trimmed) / float64(wf.rootNanos)
	}
	set("trace.trimmed_frac", trimmed, "ratio")
	fmt.Printf("trace: %d sampled ops, %d evicted spans, %d ops whose layer self times exceed the root span\n",
		wf.ops, evicted, wf.violations)
	return evicted == 0 && wf.violations == 0 && wf.ops > 0
}
