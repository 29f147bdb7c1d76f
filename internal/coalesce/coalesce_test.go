package coalesce

import (
	"errors"
	"fmt"
	"sync"
	"testing"
)

// TestJoinerDuringRunLandsInNextRound pins the ReadIndex safety
// property: a caller that joins while a round runs is never part of
// that round. It also pins the absorption property group commit
// relies on: the next round accepts joiners until its leader holds
// the serializing lock and has lingered.
func TestJoinerDuringRunLandsInNextRound(t *testing.T) {
	running := make(chan struct{})
	finish := make(chan struct{})
	lingering := make(chan struct{})
	endLinger := make(chan struct{})
	var g Group[string]

	r1, lead := g.Join("a")
	if !lead {
		t.Fatal("first joiner did not lead")
	}
	if r, lead := g.Join("b"); r != r1 || lead {
		t.Fatal("a joiner before the round started did not join it")
	}
	lead1 := make(chan error, 1)
	go func() {
		lead1 <- g.Lead(r1, func(items []string) error {
			close(running)
			<-finish
			return errors.New("r1")
		})
	}()
	<-running

	r2, lead := g.Join("c")
	if r2 == r1 || !lead {
		t.Fatal("a joiner during a running round did not open the next round")
	}
	if r, lead := g.Join("d"); r != r2 || lead {
		t.Fatal("a second joiner during the running round did not join the next round")
	}
	g.Linger = func() {
		close(lingering)
		<-endLinger
	}
	lead2 := make(chan error, 1)
	go func() {
		lead2 <- g.Lead(r2, func(items []string) error { return nil })
	}()
	// r2's leader is blocked on the lock r1 holds: r2 still forms.
	if r, _ := g.Join("e"); r != r2 {
		t.Fatal("the forming round stopped accepting joiners before its leader held the lock")
	}
	close(finish)
	if err := <-lead1; err == nil || err.Error() != "r1" {
		t.Fatalf("r1 leader got %v", err)
	}
	<-lingering
	if r, _ := g.Join("f"); r != r2 {
		t.Fatal("a joiner during the linger did not join the lingering round")
	}
	close(endLinger)
	if err := <-lead2; err != nil {
		t.Fatalf("r2 leader got %v", err)
	}

	if got := fmt.Sprint(r1.Items()); got != "[a b]" {
		t.Fatalf("r1 items = %s, want [a b]", got)
	}
	if got := fmt.Sprint(r2.Items()); got != "[c d e f]" {
		t.Fatalf("r2 items = %s, want [c d e f]", got)
	}
	if err := r1.Wait(); err == nil || err.Error() != "r1" {
		t.Fatalf("r1 joiner got %v", err)
	}
	if err := r2.Wait(); err != nil {
		t.Fatalf("r2 joiner got %v", err)
	}
	if r3, lead := g.Join("g"); r3 == r2 || !lead {
		t.Fatal("a joiner after r2 ran joined it")
	}
}

// TestEveryJoinerReleasedOnceWithItsRoundsOutcome runs many
// concurrent joiners through rounds that alternately fail and
// succeed: every item is run by exactly one round, and every joiner
// sees that round's outcome.
func TestEveryJoinerReleasedOnceWithItsRoundsOutcome(t *testing.T) {
	const joiners = 64
	var mu sync.Mutex
	ran := map[int]int{}       // item -> rounds that ran it
	outcome := map[int]error{} // item -> outcome of the round that ran it
	rounds := 0
	run := func(items []int) error {
		mu.Lock()
		defer mu.Unlock()
		rounds++
		var err error
		if rounds%2 == 1 {
			err = fmt.Errorf("round %d failed", rounds)
		}
		for _, it := range items {
			ran[it]++
			outcome[it] = err
		}
		return err
	}

	g := Group[int]{Max: 5}
	got := make([]error, joiners)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < joiners; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			r, lead := g.Join(i)
			if lead {
				got[i] = g.Lead(r, run)
			} else {
				got[i] = r.Wait()
			}
		}(i)
	}
	close(start)
	wg.Wait()

	if rounds < 2 {
		t.Fatalf("%d rounds for %d joiners capped at 5 per round", rounds, joiners)
	}
	for i := 0; i < joiners; i++ {
		if ran[i] != 1 {
			t.Fatalf("item %d ran in %d rounds, want 1", i, ran[i])
		}
		if got[i] != outcome[i] {
			t.Fatalf("joiner %d got %v, its round returned %v", i, got[i], outcome[i])
		}
	}
}

// TestRoundClosesAtSizeCap: a round that holds Max items opens the
// next round for the following joiner, and the full round still runs
// under its own leader.
func TestRoundClosesAtSizeCap(t *testing.T) {
	g := Group[int]{Max: 3}
	var rs []*Round[int]
	for i := 0; i < 7; i++ {
		r, lead := g.Join(i)
		if lead != (i%3 == 0) {
			t.Fatalf("join %d: lead = %v", i, lead)
		}
		if lead {
			rs = append(rs, r)
		}
	}
	want := []string{"[0 1 2]", "[3 4 5]", "[6]"}
	for i, r := range rs {
		if got := fmt.Sprint(r.Items()); got != want[i] {
			t.Fatalf("round %d items = %s, want %s", i, got, want[i])
		}
	}
	// Lead out of order: a full round is already closed to joiners.
	for _, i := range []int{1, 0, 2} {
		n := 0
		if err := g.Lead(rs[i], func(items []int) error { n = len(items); return nil }); err != nil {
			t.Fatal(err)
		}
		if n != len(rs[i].Items()) {
			t.Fatalf("round %d ran %d items", i, n)
		}
	}
	for _, r := range rs {
		<-r.Done()
	}
}

// TestLeadTakesSharedLock: a group given an external lock runs rounds
// under it, so other holders of that lock (a log's compaction) never
// overlap a round.
func TestLeadTakesSharedLock(t *testing.T) {
	var mu sync.Mutex
	g := Group[int]{Lock: &mu}
	r, _ := g.Join(1)
	mu.Lock()
	done := make(chan error, 1)
	go func() {
		done <- g.Lead(r, func([]int) error {
			if mu.TryLock() {
				return errors.New("round ran without the shared lock")
			}
			return nil
		})
	}()
	// The leader cannot start while the lock is held elsewhere.
	if r2, lead := g.Join(2); r2 != r || lead {
		t.Fatal("round detached before its leader held the shared lock")
	}
	mu.Unlock()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}
