package main

import (
	"sync/atomic"
	"time"

	"mochi/internal/raft"
	"mochi/internal/yokan"
)

// dbTimes collects the time spent inside one or more decorated
// yokan.Database values while on is set.
type dbTimes struct {
	on       *atomic.Bool
	get, put hist
}

// timedDB times Get and Put of a yokan.Database and forwards every
// other method unchanged.
type timedDB struct {
	yokan.Database
	t *dbTimes
}

func (d *timedDB) Get(key []byte) ([]byte, error) {
	if !d.t.on.Load() {
		return d.Database.Get(key)
	}
	start := time.Now()
	v, err := d.Database.Get(key)
	d.t.get.record(time.Since(start))
	return v, err
}

func (d *timedDB) Put(key, value []byte) error {
	if !d.t.on.Load() {
		return d.Database.Put(key, value)
	}
	start := time.Now()
	err := d.Database.Put(key, value)
	d.t.put.record(time.Since(start))
	return err
}

// wrapDB decorates inner with timing. The result implements
// yokan.BatchWriter, yokan.BatchReader and yokan.PoolAware exactly when
// inner does: the provider and the raft state machine pick their batch
// and fan-out paths by type assertion, and a wrapper that hid or faked
// one would measure a different program.
func wrapDB(inner yokan.Database, t *dbTimes) yokan.Database {
	d := &timedDB{Database: inner, t: t}
	bw, isBW := inner.(yokan.BatchWriter)
	br, isBR := inner.(yokan.BatchReader)
	pa, isPA := inner.(yokan.PoolAware)
	switch {
	case isBW && isBR && isPA:
		return struct {
			*timedDB
			yokan.BatchWriter
			yokan.BatchReader
			yokan.PoolAware
		}{d, bw, br, pa}
	case isBW && isBR:
		return struct {
			*timedDB
			yokan.BatchWriter
			yokan.BatchReader
		}{d, bw, br}
	case isBW && isPA:
		return struct {
			*timedDB
			yokan.BatchWriter
			yokan.PoolAware
		}{d, bw, pa}
	case isBR && isPA:
		return struct {
			*timedDB
			yokan.BatchReader
			yokan.PoolAware
		}{d, br, pa}
	case isBW:
		return struct {
			*timedDB
			yokan.BatchWriter
		}{d, bw}
	case isBR:
		return struct {
			*timedDB
			yokan.BatchReader
		}{d, br}
	case isPA:
		return struct {
			*timedDB
			yokan.PoolAware
		}{d, pa}
	}
	return d
}

// storeTimes collects raft log appends across decorated stores.
type storeTimes struct {
	on      *atomic.Bool
	append  hist
	entries atomic.Uint64
}

// timedStore counts and times raft.Store.Append; every other method is
// the embedded store's own.
type timedStore struct {
	raft.Store
	t *storeTimes
}

func (s *timedStore) Append(entries []raft.LogEntry) error {
	if !s.t.on.Load() {
		return s.Store.Append(entries)
	}
	start := time.Now()
	err := s.Store.Append(entries)
	s.t.append.record(time.Since(start))
	s.t.entries.Add(uint64(len(entries)))
	return err
}
