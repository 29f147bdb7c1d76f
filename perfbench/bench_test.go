package main

import (
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"

	"mochi/internal/argobots"
	"mochi/internal/raft"
	"mochi/internal/yokan"
)

type batchWriter struct{}

func (batchWriter) PutMulti([]yokan.KeyValue) error { return nil }

type batchReader struct{}

func (batchReader) GetMulti([][]byte) ([][]byte, []bool, error) { return nil, nil, nil }

type poolAware struct{}

func (poolAware) SetPool(*argobots.Pool) {}

type optional struct{ bw, br, pa bool }

func optionalOf(db yokan.Database) optional {
	_, bw := db.(yokan.BatchWriter)
	_, br := db.(yokan.BatchReader)
	_, pa := db.(yokan.PoolAware)
	return optional{bw, br, pa}
}

// The decorator must expose exactly the inner database's optional
// interfaces, or the provider and state machine would take different
// code paths under it.
func TestWrapDBForwardsOptionalInterfaces(t *testing.T) {
	base, err := yokan.Open(yokan.Config{Type: "map", Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer base.Close()
	type D = yokan.Database
	type W = batchWriter
	type R = batchReader
	type P = poolAware
	inners := []yokan.Database{
		base,
		struct {
			D
			W
		}{base, W{}},
		struct {
			D
			R
		}{base, R{}},
		struct {
			D
			P
		}{base, P{}},
		struct {
			D
			W
			R
		}{base, W{}, R{}},
		struct {
			D
			W
			P
		}{base, W{}, P{}},
		struct {
			D
			R
			P
		}{base, R{}, P{}},
		struct {
			D
			W
			R
			P
		}{base, W{}, R{}, P{}},
	}
	for _, cfg := range []yokan.Config{
		{Type: "map"},
		{Type: "map", Shards: 1},
		{Type: "log", Path: filepath.Join(t.TempDir(), "db.log"), NoSync: true},
	} {
		db, err := yokan.Open(cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer db.Close()
		inners = append(inners, db)
	}
	seen := map[optional]bool{}
	var on atomic.Bool
	on.Store(true)
	times := &dbTimes{on: &on}
	for i, inner := range inners {
		want := optionalOf(inner)
		seen[want] = true
		wrapped := wrapDB(inner, times)
		if got := optionalOf(wrapped); got != want {
			t.Errorf("inner %d (%T): wrapped has %+v, inner has %+v", i, inner, got, want)
		}
	}
	if len(seen) != 8 {
		t.Fatalf("covered %d of 8 interface combinations", len(seen))
	}

	// Timed methods still reach the inner database.
	wrapped := wrapDB(base, times)
	if err := wrapped.Put([]byte("k"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	if v, err := wrapped.Get([]byte("k")); err != nil || string(v) != "v" {
		t.Fatalf("get through wrapper: %q, %v", v, err)
	}
	if n, _ := base.Count(); n != 1 {
		t.Fatalf("inner count %d, want 1", n)
	}
	if times.put.count() != 1 || times.get.count() != 1 {
		t.Fatalf("recorded %d puts, %d gets; want 1 each", times.put.count(), times.get.count())
	}
}

func TestTimedStoreForwards(t *testing.T) {
	var on atomic.Bool
	on.Store(true)
	times := &storeTimes{on: &on}
	inner := raft.NewMemoryStore()
	var s raft.Store = &timedStore{Store: inner, t: times}
	if err := s.SetState(3, "a"); err != nil {
		t.Fatal(err)
	}
	if err := s.Append([]raft.LogEntry{{Index: 1, Term: 3}, {Index: 2, Term: 3}}); err != nil {
		t.Fatal(err)
	}
	if term, vote, _ := inner.State(); term != 3 || vote != "a" {
		t.Fatalf("state not forwarded: %d %q", term, vote)
	}
	if s.LastIndex() != 2 || inner.LastIndex() != 2 {
		t.Fatalf("last index %d / %d, want 2", s.LastIndex(), inner.LastIndex())
	}
	if times.append.count() != 1 || times.entries.Load() != 2 {
		t.Fatalf("recorded %d appends, %d entries; want 1, 2", times.append.count(), times.entries.Load())
	}
}

func firstOps(seed int64, session int) []op {
	s := newOpStream(newZipf(10_000, zipfTheta), 0.5, seed, session, 2)
	out := make([]op, 5000)
	for i := range out {
		out[i] = s.next()
	}
	return out
}

func sameOps(a, b []op) bool {
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestOpStreamIsSeeded(t *testing.T) {
	a, b := firstOps(7, 0), firstOps(7, 0)
	if !sameOps(a, b) {
		t.Fatal("one seed gave two different op streams")
	}
	if sameOps(a, firstOps(8, 0)) {
		t.Fatal("different seeds gave the same op stream")
	}
	if sameOps(a, firstOps(7, 1)) {
		t.Fatal("two sessions got the same op stream")
	}
	for _, o := range firstOps(7, 1) {
		if o.put && o.key%2 != 1 {
			t.Fatalf("session 1 writes key %d, owned by session 0", o.key)
		}
	}
}

func TestZipfIsSkewed(t *testing.T) {
	z := newZipf(1000, zipfTheta)
	s := newOpStream(z, 1, 1, 0, 1)
	counts := map[int]int{}
	for i := 0; i < 100_000; i++ {
		counts[s.next().key]++
	}
	top := 0
	for _, c := range counts {
		top = max(top, c)
	}
	// Under theta 0.99 over 1000 keys the hottest key draws about 13%.
	if top < 8_000 || top > 20_000 {
		t.Fatalf("hottest key drew %d of 100000", top)
	}
}

func TestValueCarriesKey(t *testing.T) {
	v := make([]byte, 128)
	fillValue(v, 4321, '1', 99)
	if !valueHasKey(v, 4321) || valueHasKey(v, 4320) || valueHasKey(v[:10], 4321) {
		t.Fatalf("value check wrong for %q", v)
	}
}

func TestHistQuantile(t *testing.T) {
	var h hist
	for i := 1; i <= 1000; i++ {
		h.record(time.Duration(i) * time.Microsecond)
	}
	if p50 := h.quantile(0.5); p50 < 490e3 || p50 > 510e3 {
		t.Fatalf("p50 %.0f ns, want about 500us", p50)
	}
	if p99 := h.quantile(0.99); p99 < 975e3 || p99 > 1005e3 {
		t.Fatalf("p99 %.0f ns, want about 990us", p99)
	}
}
