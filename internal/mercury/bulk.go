package mercury

import (
	"context"
	"fmt"

	"mochi/internal/codec"
)

// BulkAccess controls what remote peers may do with an exposed region.
type BulkAccess uint8

const (
	// BulkReadOnly allows remote pulls.
	BulkReadOnly BulkAccess = 1 << iota
	// BulkWriteOnly allows remote pushes.
	BulkWriteOnly
	// BulkReadWrite allows both.
	BulkReadWrite BulkAccess = BulkReadOnly | BulkWriteOnly
)

// BulkOp selects the direction of a bulk transfer, from the
// initiator's point of view.
type BulkOp uint8

const (
	// BulkPull copies remote memory into local memory (like
	// HG_BULK_PULL: the initiator reads).
	BulkPull BulkOp = iota
	// BulkPush copies local memory into remote memory.
	BulkPush
)

func (op BulkOp) String() string {
	if op == BulkPull {
		return "pull"
	}
	return "push"
}

// Bulk is a locally registered memory region that remote peers can
// access via its descriptor, standing in for an RDMA-registered buffer.
type Bulk struct {
	class  *Class
	id     uint64
	mem    []byte
	access BulkAccess
}

// BulkDescriptor names a remote bulk region; it is what travels inside
// RPC argument payloads (like a serialized hg_bulk_t).
type BulkDescriptor struct {
	Addr   string
	ID     uint64
	Size   uint64
	Access uint8
}

// MarshalMochi implements codec.Marshaler.
func (b *BulkDescriptor) MarshalMochi(e *codec.Encoder) {
	e.String(b.Addr)
	e.Uint64(b.ID)
	e.Uint64(b.Size)
	e.Uint8(b.Access)
}

// UnmarshalMochi implements codec.Unmarshaler.
func (b *BulkDescriptor) UnmarshalMochi(d *codec.Decoder) {
	b.Addr = d.String()
	b.ID = d.Uint64()
	b.Size = d.Uint64()
	b.Access = d.Uint8()
}

// CreateBulk registers mem for remote access and returns the handle.
// The memory is shared, not copied: remote pulls observe later writes.
func (c *Class) CreateBulk(mem []byte, access BulkAccess) *Bulk {
	b := &Bulk{
		class:  c,
		id:     c.bulkSeq.Add(1),
		mem:    mem,
		access: access,
	}
	c.bulkMu.Lock()
	c.bulks[b.id] = b
	c.bulkMu.Unlock()
	return b
}

// Descriptor returns the serializable name of this region.
func (b *Bulk) Descriptor() BulkDescriptor {
	return BulkDescriptor{
		Addr:   b.class.Addr(),
		ID:     b.id,
		Size:   uint64(len(b.mem)),
		Access: uint8(b.access),
	}
}

// Size returns the region length in bytes.
func (b *Bulk) Size() int { return len(b.mem) }

// Free deregisters the region. Outstanding remote transfers that race
// with Free may fail with ErrBadBulk, as with real RDMA deregistration.
func (b *Bulk) Free() {
	b.class.bulkMu.Lock()
	delete(b.class.bulks, b.id)
	b.class.bulkMu.Unlock()
}

func (c *Class) bulkByID(id uint64) *Bulk {
	c.bulkMu.RLock()
	defer c.bulkMu.RUnlock()
	return c.bulks[id]
}

// BulkTransfer moves size bytes between the local region and the
// remote region named by desc, in one operation. op is from the
// initiator's perspective: BulkPull reads remote bytes into local
// memory, BulkPush writes local bytes into remote memory.
//
// On the simulated fabric a transfer is charged one bulk-handshake
// cost plus size/bandwidth, regardless of size — the property that
// makes RDMA preferable to chunked RPCs for large payloads.
func (c *Class) BulkTransfer(ctx context.Context, op BulkOp, desc BulkDescriptor, remoteOff uint64, local *Bulk, localOff uint64, size uint64) error {
	if tr, sc, start, ok := c.bulkSpanStart(ctx); ok {
		err := c.bulkTransfer(ctx, op, desc, remoteOff, local, localOff, size)
		c.bulkSpanEnd(tr, sc, start, op, desc.Addr, size, err)
		return err
	}
	return c.bulkTransfer(ctx, op, desc, remoteOff, local, localOff, size)
}

func (c *Class) bulkTransfer(ctx context.Context, op BulkOp, desc BulkDescriptor, remoteOff uint64, local *Bulk, localOff uint64, size uint64) error {
	if local == nil || local.class != c {
		return fmt.Errorf("%w: local bulk not registered on this class", ErrBadBulk)
	}
	if localOff+size > uint64(len(local.mem)) || remoteOff+size > desc.Size {
		return ErrBulkBounds
	}
	// Local fast path: both regions live in this class.
	if desc.Addr == c.Addr() {
		remote := c.bulkByID(desc.ID)
		if remote == nil {
			return ErrBadBulk
		}
		if op == BulkPull {
			copy(local.mem[localOff:localOff+size], remote.mem[remoteOff:remoteOff+size])
		} else {
			copy(remote.mem[remoteOff:remoteOff+size], local.mem[localOff:localOff+size])
		}
		c.recordBulk(op, desc.Addr, int(size))
		return nil
	}

	seq, ch, err := c.await()
	if err != nil {
		return err
	}
	msg := getMessage()
	msg.seq = seq
	msg.src = c.Addr()
	msg.bulkID = desc.ID
	msg.bulkOff = remoteOff
	msg.bulkLen = size
	if op == BulkPull {
		msg.kind = msgBulkRead
	} else {
		msg.kind = msgBulkWrite
		msg.payload = local.mem[localOff : localOff+size]
	}
	err = c.send(ctx, desc.Addr, msg)
	msg.payload = nil // borrowed from the local region
	putMessage(msg)
	if err != nil {
		c.pending.remove(seq)
		putReplyChan(ch)
		return err
	}
	select {
	case resp := <-ch:
		c.pending.remove(seq)
		putReplyChan(ch)
		status, errmsg := resp.status, resp.errmsg
		if status != 0 {
			resp.releasePayload()
			putMessage(resp)
			if status == statusClassClosed {
				return ErrClassClosed
			}
			return fmt.Errorf("%w: %s", ErrBadBulk, errmsg)
		}
		var copyErr error
		if op == BulkPull {
			if uint64(len(resp.payload)) != size {
				copyErr = fmt.Errorf("%w: short bulk read", ErrBulkBounds)
			} else {
				copy(local.mem[localOff:localOff+size], resp.payload)
			}
		}
		resp.releasePayload()
		putMessage(resp)
		if copyErr != nil {
			return copyErr
		}
		c.recordBulk(op, desc.Addr, int(size))
		return nil
	case <-ctx.Done():
		c.pending.remove(seq)
		putReplyChan(ch)
		return fmt.Errorf("%w: %v", ErrTimeout, ctx.Err())
	}
}

func (c *Class) handleBulkRead(m *message) {
	b := c.bulkByID(m.bulkID)
	resp := getMessage()
	resp.kind = msgBulkAck
	resp.seq = m.seq
	resp.src = c.Addr()
	switch {
	case b == nil:
		resp.status = 1
		resp.errmsg = "unknown bulk region"
	case b.access&BulkReadOnly == 0:
		resp.status = 1
		resp.errmsg = "bulk region not readable"
	case m.bulkOff+m.bulkLen > uint64(len(b.mem)):
		resp.status = 1
		resp.errmsg = "bulk read out of bounds"
	default:
		resp.payload = b.mem[m.bulkOff : m.bulkOff+m.bulkLen]
	}
	_ = c.send(context.Background(), m.src, resp)
	resp.payload = nil // borrowed from the registered region
	putMessage(resp)
	m.releasePayload()
	putMessage(m)
}

func (c *Class) handleBulkWrite(m *message) {
	b := c.bulkByID(m.bulkID)
	resp := getMessage()
	resp.kind = msgBulkAck
	resp.seq = m.seq
	resp.src = c.Addr()
	switch {
	case b == nil:
		resp.status = 1
		resp.errmsg = "unknown bulk region"
	case b.access&BulkWriteOnly == 0:
		resp.status = 1
		resp.errmsg = "bulk region not writable"
	case m.bulkOff+uint64(len(m.payload)) > uint64(len(b.mem)):
		resp.status = 1
		resp.errmsg = "bulk write out of bounds"
	default:
		copy(b.mem[m.bulkOff:], m.payload)
	}
	_ = c.send(context.Background(), m.src, resp)
	putMessage(resp)
	m.releasePayload()
	putMessage(m)
}
