package mercury

import (
	"maps"

	"mochi/internal/metrics"
)

// transportMetrics is implemented by transports that export their own
// series (the TCP transport: connection gauges, dial latency, writev
// batch sizes, accept errors).
type transportMetrics interface {
	setMetrics(reg *metrics.Registry)
}

// SetMetrics installs a metrics registry on the class: every completed
// bulk transfer records its size into a bytes-by-direction histogram,
// and transports exporting wire-level series register them too.
// Both direction series are created eagerly so scrapers see the family
// before the first transfer. Passing nil uninstalls. The margo layer
// calls this when it builds its registry; manual classes may too.
func (c *Class) SetMetrics(reg *metrics.Registry) {
	if tm, ok := c.tr.(transportMetrics); ok {
		tm.setMetrics(reg)
	}
	if reg == nil {
		c.bulkBytes.Store(nil)
		return
	}
	vec := reg.Histogram("mochi_bulk_transfer_bytes",
		"Completed bulk (RDMA-like) transfer sizes in bytes, by direction.",
		metrics.SizeBuckets, "op")
	h := &bulkMetrics{
		pull: vec.With(BulkPull.String()),
		push: vec.With(BulkPush.String()),
	}
	c.bulkBytes.Store(h)
}

// bulkMetrics caches the two direction series so the transfer path
// does a plain atomic observe, no map lookups.
type bulkMetrics struct {
	pull *metrics.Histogram
	push *metrics.Histogram
}

// BulkStats totals the completed bulk transfers a class issued towards
// one peer (§4: Margo "has knowledge of ... all the RDMA operations
// being carried out").
type BulkStats struct {
	Pulls    int64 `json:"pulls"`
	Pushes   int64 `json:"pushes"`
	BytesIn  int64 `json:"bytes_pulled"`
	BytesOut int64 `json:"bytes_pushed"`
}

// BulkPeers returns, per peer address, the bulk transfers this class
// has completed since it was created. The totals only grow, so the
// difference of two calls is exactly what completed in between.
func (c *Class) BulkPeers() map[string]BulkStats {
	c.bulkPeersMu.Lock()
	defer c.bulkPeersMu.Unlock()
	return maps.Clone(c.bulkPeers)
}

// recordBulk accounts one completed bulk transfer: the user monitor's
// BulkTransferred, the per-peer totals, and the size histogram.
func (c *Class) recordBulk(op BulkOp, peer string, bytes int) {
	if m := c.mon(); m != nil {
		m.BulkTransferred(op, peer, bytes)
	}
	c.bulkPeersMu.Lock()
	n := c.bulkPeers[peer]
	if op == BulkPull {
		n.Pulls++
		n.BytesIn += int64(bytes)
	} else {
		n.Pushes++
		n.BytesOut += int64(bytes)
	}
	c.bulkPeers[peer] = n
	c.bulkPeersMu.Unlock()
	h := c.bulkBytes.Load()
	if h == nil {
		return
	}
	if op == BulkPull {
		h.pull.Observe(float64(bytes))
	} else {
		h.push.Observe(float64(bytes))
	}
}
