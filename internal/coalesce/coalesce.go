// Package coalesce batches concurrent callers into rounds: the first
// caller to join a round leads it, rounds run one at a time, and a
// round accepts joiners until its leader starts it. The log backend's
// group commit, raft's proposal group commit and raft's ReadIndex
// confirmation rounds all run on it.
//
// Invariants:
//   - A round is detached (closed to joiners) only while the leader
//     holds the group's serializing lock, right before it runs. A
//     caller that joins while a round is running therefore lands in the
//     next round, never the running one; the forming round keeps
//     absorbing joiners for as long as the previous round runs.
//   - A round that reaches the size cap stops accepting joiners; the
//     next caller opens a new round.
//   - Every joiner is released exactly once, after its round ran, and
//     sees that round's outcome.
package coalesce

import "sync"

// Round is one batch of joined items.
type Round[T any] struct {
	items []T
	err   error
	done  chan struct{}
}

// Done is closed once the round has run and its outcome is set.
func (r *Round[T]) Done() <-chan struct{} { return r.done }

// Err is the round's outcome; valid once Done is closed.
func (r *Round[T]) Err() error { return r.err }

// Items are the round's joined items in join order, the leader's
// first; stable once Done is closed.
func (r *Round[T]) Items() []T { return r.items }

// Wait blocks until the round has run and returns its outcome.
func (r *Round[T]) Wait() error {
	<-r.done
	return r.err
}

// Group coalesces joiners into rounds. The zero value is ready to use:
// unbounded rounds serialized by a lock the group owns.
type Group[T any] struct {
	// Lock serializes rounds; nil means a lock private to the group.
	// Set it to share the serialization with other work (a log's
	// compaction and close).
	Lock sync.Locker
	// Max caps the items of one round; 0 means no cap.
	Max int
	// Linger, when set, runs under the serializing lock just before a
	// round is detached, so callers arriving meanwhile still join it.
	Linger func()

	mu      sync.Mutex // guards forming only; never held across run
	forming *Round[T]
	own     sync.Mutex
}

// Join adds items to the forming round, opening a new one when none is
// forming or the forming one is full. lead reports whether the caller
// opened the round; the leader must then call Lead, everyone else
// waits on the round.
func (g *Group[T]) Join(items ...T) (r *Round[T], lead bool) {
	g.mu.Lock()
	r = g.forming
	if r == nil || (g.Max > 0 && len(r.items) >= g.Max) {
		r = &Round[T]{done: make(chan struct{})}
		g.forming = r
		lead = true
	}
	r.items = append(r.items, items...)
	g.mu.Unlock()
	return r, lead
}

// Lead runs r, which the caller opened: it takes the serializing lock,
// lingers, detaches r, and calls run with r's items under the lock.
// run's error becomes the round's outcome, returned here and to every
// joiner once the lock is released.
func (g *Group[T]) Lead(r *Round[T], run func(items []T) error) error {
	lock := g.Lock
	if lock == nil {
		lock = &g.own
	}
	lock.Lock()
	if g.Linger != nil {
		g.Linger()
	}
	g.mu.Lock()
	if g.forming == r {
		g.forming = nil
	}
	g.mu.Unlock()
	r.err = run(r.items)
	lock.Unlock()
	close(r.done)
	return r.err
}
