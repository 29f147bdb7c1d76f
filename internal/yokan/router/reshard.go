package router

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"time"

	"mochi/internal/codec"
	"mochi/internal/remi"
)

// snapshotClass is the REMI migration class of shard snapshots.
const snapshotClass = "xkv-shard"

const (
	metaShard = "xkv_shard"
	metaMig   = "xkv_mig"
	metaEpoch = "xkv_epoch"
)

func msDuration(ms int) time.Duration { return time.Duration(ms) * time.Millisecond }

// testHookDualWindow, when non-nil, runs after the snapshot has been
// migrated and before the flip. Tests use it to hold the dual-write
// window open long enough for concurrent traffic to cross it — on a
// small database the window is otherwise a few microseconds wide.
var testHookDualWindow func()

// Reshard moves one shard this node owns to dst, under live traffic,
// without losing an acked write. The protocol (DESIGN.md §9):
//
//  1. prepare: dst opens a staging database for the shard.
//  2. dual-write: every write to the shard keeps applying locally
//     (the source stays authoritative) and is synchronously forwarded
//     to the staging area before it is acked — from here on, any
//     acked write exists on both sides.
//  3. snapshot: the shard is dumped and REMI-migrated to dst, which
//     merges it *under* the staged stream (staged values and
//     tombstones win — they are newer by construction).
//  4. flip: under the shard's write lock (which drains in-flight
//     operations — this is the drain window), the source commits the
//     new map at dst (promote), marks the local shard dropped, and
//     only then publishes the map locally and gossips it. Destination
//     before source: at every instant some node serves the shard, and
//     a redirect chain of length ≤ 2 lands on it.
//
// Any failure before the flip aborts: dst drops the staging area and
// the source reverts to exclusive ownership. Nothing is lost — the
// source applied every acked write locally throughout.
func (n *Node) Reshard(ctx context.Context, shardID uint32, dst Owner) error {
	m := n.cur.Load()
	if m == nil {
		return fmt.Errorf("router: node has no shard map")
	}
	if int(shardID) >= len(m.Owners) {
		return fmt.Errorf("router: shard %d out of range", shardID)
	}
	self := n.Self()
	if m.Owners[shardID] != self {
		return fmt.Errorf("router: shard %d owned by %s, not this node", shardID, m.Owners[shardID])
	}
	if dst == self {
		return fmt.Errorf("router: destination is the current owner")
	}
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return fmt.Errorf("router: node closed")
	}
	sh := n.shards[shardID]
	n.migSeq++
	seq := n.migSeq
	n.mu.Unlock()
	if sh == nil {
		return fmt.Errorf("router: shard %d not resident", shardID)
	}
	// Migration IDs must not collide across sources: derive from the
	// node identity and a local sequence number.
	mig := hashBytes([]byte(fmt.Sprintf("%s/%d/%d", self.Addr, self.Provider, seq)))

	// 1. prepare.
	var prep prepareReply
	if err := n.call(ctx, dst, RPCMigratePrepare, &prepareArgs{Shard: shardID, MigID: mig}, &prep); err != nil {
		return fmt.Errorf("router: prepare: %w", err)
	}
	if prep.Status != statusOK {
		return fmt.Errorf("router: prepare rejected: %s", prep.Err)
	}

	// 2. enter the dual-write window.
	sh.mu.Lock()
	if sh.dropped || sh.mode != modeOwned {
		sh.mu.Unlock()
		n.abortRemote(dst, shardID, mig)
		return fmt.Errorf("router: shard %d already migrating", shardID)
	}
	sh.mode = modeDual
	sh.dualDst = dst
	sh.migID = mig
	sh.abortFlag.Store(false)
	sh.mu.Unlock()

	fail := func(stage string, err error) error {
		n.revertDual(sh, mig)
		n.abortRemote(dst, shardID, mig)
		return fmt.Errorf("router: %s: %w", stage, err)
	}

	// 3. snapshot and REMI-migrate. The snapshot is cut after
	// dual-write is on, so every write it misses is in the staged
	// stream.
	pairs, err := sh.db.ListKeyValues(nil, nil, 0)
	if err != nil {
		return fail("snapshot", err)
	}
	e := codec.NewEncoder(nil)
	e.Uvarint(uint64(len(pairs)))
	for _, kv := range pairs {
		e.BytesField(kv.Key)
		e.BytesField(kv.Value)
	}
	outDir := filepath.Join(n.dir, "out")
	rel := fmt.Sprintf("shard-%d-%d.snap", shardID, mig)
	snapPath := filepath.Join(outDir, rel)
	if err := os.WriteFile(snapPath, e.Bytes(), 0o644); err != nil {
		return fail("snapshot write", err)
	}
	fs, err := remi.BuildFileSet(snapshotClass, outDir, []string{snapPath}, map[string]string{
		metaShard: fmt.Sprintf("%d", shardID),
		metaMig:   fmt.Sprintf("%d", mig),
		metaEpoch: fmt.Sprintf("%d", m.Epoch),
	})
	if err != nil {
		return fail("fileset", err)
	}
	if _, err := n.remiC.Migrate(ctx, dst.Addr, prep.RemiProvider, fs, remi.Options{RemoveSource: true}); err != nil {
		return fail("remi migrate", err)
	}
	if testHookDualWindow != nil {
		testHookDualWindow()
	}

	// 4. flip. The write lock drains in-flight operations (each holds
	// the read lock across its local apply *and* its dual-write
	// forward) and blocks new ones for the promote round-trip, so no
	// write can slip between "dst committed" and "src stopped".
	newMap := n.cur.Load().WithOwner(shardID, dst)
	sh.mu.Lock()
	if sh.abortFlag.Load() || sh.mode != modeDual || sh.migID != mig {
		sh.mu.Unlock()
		n.abortRemote(dst, shardID, mig)
		return fmt.Errorf("router: migration aborted by a failed dual-write")
	}
	var pr statusReply
	perr := n.call(ctx, dst, RPCMigratePromote, &promoteArgs{Shard: shardID, MigID: mig, Map: EncodeMap(newMap)}, &pr)
	if perr == nil && pr.Status != statusOK {
		perr = fmt.Errorf("%s", pr.Err)
	}
	if perr != nil {
		sh.mode = modeOwned
		sh.mu.Unlock()
		n.abortRemote(dst, shardID, mig)
		return fmt.Errorf("router: promote: %w", perr)
	}
	sh.dropped = true
	sh.mu.Unlock()

	n.mu.Lock()
	delete(n.shards, shardID)
	n.mu.Unlock()
	n.installMap(newMap)
	sh.db.Destroy()
	n.reshards.Add(1)

	// 5. gossip the new map: best effort, bounded — anyone missed
	// learns it through a redirect.
	n.disseminate(ctx, newMap)
	return nil
}

// revertDual returns a shard to exclusive local ownership after a
// failed migration attempt.
func (n *Node) revertDual(sh *shard, mig uint64) {
	sh.mu.Lock()
	if sh.mode == modeDual && sh.migID == mig {
		sh.mode = modeOwned
	}
	sh.mu.Unlock()
}

// abortRemote tears down the staging area at dst, best effort.
func (n *Node) abortRemote(dst Owner, shardID uint32, mig uint64) {
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	var r statusReply
	_ = n.call(ctx, dst, RPCMigrateAbort, &abortArgs{Shard: shardID, MigID: mig}, &r)
}

// disseminate pushes a freshly committed map to the rest of the
// cluster: every distinct owner in the map, plus — when an SSG group
// is attached — every alive member (spare nodes own nothing yet but
// still route and can be a migration destination). The destination
// already installed the map during promote, but a duplicate install
// is a cheap no-op.
func (n *Node) disseminate(ctx context.Context, m *Map) {
	self := n.Self()
	targets := map[Owner]bool{}
	for _, o := range m.Owners {
		if o != self {
			targets[o] = true
		}
	}
	if g := n.opts.Group; g != nil {
		for _, addr := range g.View().Alive() {
			o := Owner{Addr: addr, Provider: n.id}
			if o != self {
				targets[o] = true
			}
		}
	}
	enc := EncodeMap(m)
	for o := range targets {
		ictx, cancel := context.WithTimeout(ctx, 2*time.Second)
		var r statusReply
		_ = n.call(ictx, o, RPCInstallMap, &installArgs{Map: enc}, &r)
		cancel()
	}
}

// parseSnapshotMeta extracts the shard and migration IDs a REMI
// snapshot fileset was stamped with.
func parseSnapshotMeta(meta map[string]string) (shardID uint32, migID uint64, err error) {
	if meta == nil {
		return 0, 0, fmt.Errorf("router: snapshot without metadata")
	}
	s, err := strconv.ParseUint(meta[metaShard], 10, 32)
	if err != nil {
		return 0, 0, fmt.Errorf("router: bad shard metadata %q", meta[metaShard])
	}
	m, err := strconv.ParseUint(meta[metaMig], 10, 64)
	if err != nil {
		return 0, 0, fmt.Errorf("router: bad migration metadata %q", meta[metaMig])
	}
	return uint32(s), m, nil
}
