package raft

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"time"

	"mochi/internal/clock"
	"mochi/internal/codec"
	"mochi/internal/margo"
)

// Client submits commands to a Raft group from any process, following
// leader hints and retrying across elections.
type Client struct {
	inst  *margo.Instance
	clk   clock.Clock
	group string
	// seeds are addresses of known members.
	seeds []string
	// RetryInterval between attempts (default 50ms).
	RetryInterval time.Duration

	// leaderMu guards leader, the last address that answered (or was
	// hinted) as leader. Caching it across calls keeps the steady state
	// at one RPC per op; without it every call rediscovers the leader
	// by walking the seed list.
	leaderMu sync.Mutex
	leader   string
}

// cachedLeader returns the last known leader address ("" if none).
func (c *Client) cachedLeader() string {
	c.leaderMu.Lock()
	defer c.leaderMu.Unlock()
	return c.leader
}

func (c *Client) storeLeader(addr string) {
	c.leaderMu.Lock()
	c.leader = addr
	c.leaderMu.Unlock()
}

// NewClient creates a client for the group reachable via seeds. Retry
// pacing uses the instance's clock, so clients inside a simulation
// back off on virtual time.
func NewClient(inst *margo.Instance, group string, seeds []string) *Client {
	return &Client{inst: inst, clk: inst.Clock(), group: group, seeds: seeds, RetryInterval: 50 * time.Millisecond}
}

// retryWait blocks for one RetryInterval on the injected clock,
// releasing the timer immediately when ctx fires (a bare time.After
// here leaked one timer per retry for the full interval).
func (c *Client) retryWait(ctx context.Context) bool {
	t := c.clk.NewTimer(c.RetryInterval)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return false
	case <-t.C():
		return true
	}
}

// Apply submits a command, retrying until ctx expires.
func (c *Client) Apply(ctx context.Context, cmd []byte) ([]byte, error) {
	return c.call(ctx, rpcApply, cmd)
}

// Read submits a read-only query over the ReadIndex path (no log
// entry, no fsync), retrying until ctx expires. The group's FSM must
// implement ReaderFSM.
func (c *Client) Read(ctx context.Context, query []byte) ([]byte, error) {
	return c.call(ctx, rpcRead, query)
}

// call forwards one client op to the leader, trying the cached leader
// first and then the seeds, following leader hints and retrying until
// ctx expires.
func (c *Client) call(ctx context.Context, rpc string, data []byte) ([]byte, error) {
	payload := codec.Marshal(&applyArgs{Group: c.group, Cmd: data})
	target := c.cachedLeader()
	var lastErr error
	fast := 0
	for {
		hinted := false
		// i == -1 is the cached or hinted leader, then every seed.
		for i := -1; i < len(c.seeds); i++ {
			addr := target
			if i >= 0 {
				addr = c.seeds[i]
			} else if addr == "" {
				continue
			}
			out, err := c.inst.Forward(ctx, addr, rpc, payload)
			if err != nil {
				lastErr = err
				continue
			}
			var reply applyReply
			if err := codec.Unmarshal(out, &reply); err != nil {
				lastErr = err
				continue
			}
			if reply.OK {
				c.storeLeader(addr)
				return reply.Result, nil
			}
			lastErr = fmt.Errorf("raft: %s", reply.Err)
			if strings.Contains(reply.Err, "does not support read-only") {
				return nil, ErrNoReader // terminal: retrying cannot help
			}
			if reply.LeaderHint != "" && reply.LeaderHint != addr {
				target = reply.LeaderHint
				c.storeLeader(target)
				hinted = true
				break // try the hinted leader next round
			}
		}
		// A fresh hint retries without sleeping (bounded, so mutually
		// stale hints cannot hot-loop); otherwise pace the retry.
		if hinted && fast < 3 {
			fast++
			continue
		}
		fast = 0
		if !c.retryWait(ctx) {
			if lastErr != nil {
				return nil, fmt.Errorf("%w (last: %v)", ErrTimeout, lastErr)
			}
			return nil, ErrTimeout
		}
	}
}

// AddServer asks the group to add a member.
func (c *Client) AddServer(ctx context.Context, addr string) error {
	return c.configChange(ctx, addr, false)
}

// RemoveServer asks the group to remove a member.
func (c *Client) RemoveServer(ctx context.Context, addr string) error {
	return c.configChange(ctx, addr, true)
}

func (c *Client) configChange(ctx context.Context, addr string, remove bool) error {
	args := configChangeArgs{Group: c.group, Addr: addr, Remove: remove}
	payload := codec.Marshal(&args)
	var lastErr error
	for {
		for _, seed := range c.seeds {
			out, err := c.inst.Forward(ctx, seed, rpcConfigChange, payload)
			if err != nil {
				lastErr = err
				continue
			}
			var reply applyReply
			if err := codec.Unmarshal(out, &reply); err != nil {
				lastErr = err
				continue
			}
			if reply.OK {
				return nil
			}
			lastErr = fmt.Errorf("raft: %s", reply.Err)
			// Config errors other than leadership are terminal.
			if !strings.Contains(reply.Err, "not the leader") && !strings.Contains(reply.Err, "no known leader") {
				return lastErr
			}
		}
		if !c.retryWait(ctx) {
			return fmt.Errorf("%w (last: %v)", ErrTimeout, lastErr)
		}
	}
}

// Status fetches the protocol status of the member at addr.
func (c *Client) Status(ctx context.Context, addr string) (Status, error) {
	out, err := c.inst.Forward(ctx, addr, rpcStatus, codec.Marshal(&statusArgs{Group: c.group}))
	if err != nil {
		return Status{}, err
	}
	var reply statusReply
	if err := codec.Unmarshal(out, &reply); err != nil {
		return Status{}, err
	}
	if !reply.OK {
		return Status{}, fmt.Errorf("raft: no group %q at %s", c.group, addr)
	}
	return Status{
		ID:          addr,
		Role:        Role(reply.Role),
		Term:        reply.Term,
		Leader:      reply.Leader,
		CommitIndex: reply.CommitIndex,
		LastApplied: reply.LastApplied,
		Peers:       reply.Peers,
	}, nil
}
