package margo

import (
	"context"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mochi/internal/mercury"
)

// countingMonitor is a user mercury.Monitor counting sent requests and
// bulk transfers.
type countingMonitor struct{ sent, bulk atomic.Int64 }

func (c *countingMonitor) SentRequest(mercury.RPCID, uint16, string, int)      { c.sent.Add(1) }
func (c *countingMonitor) ReceivedRequest(mercury.RPCID, uint16, string, int)  {}
func (c *countingMonitor) SentResponse(mercury.RPCID, uint16, string, int)     {}
func (c *countingMonitor) ReceivedResponse(mercury.RPCID, uint16, string, int) {}
func (c *countingMonitor) BulkTransferred(mercury.BulkOp, string, int)         { c.bulk.Add(1) }

// TestMonitoringKeepsUserMercuryMonitor: toggling the Listing-1 monitor
// must leave a mercury.Monitor the user installed on the class in
// place, and bulk transfers must still reach both.
func TestMonitoringKeepsUserMercuryMonitor(t *testing.T) {
	f := mercury.NewFabric()
	a := newInstance(t, f, "clobber-a", "")
	b := newInstance(t, f, "clobber-b", "")
	if _, err := b.Register("echo", func(_ context.Context, h *mercury.Handle) {
		_ = h.Respond(nil)
	}); err != nil {
		t.Fatal(err)
	}
	user := &countingMonitor{}
	a.Class().SetMonitor(user)

	remote := b.Class().CreateBulk(make([]byte, 512), mercury.BulkReadWrite)
	local := a.Class().CreateBulk(make([]byte, 512), mercury.BulkReadWrite)
	step := func() {
		t.Helper()
		if _, err := a.Forward(shortCtx(t), b.Addr(), "echo", nil); err != nil {
			t.Fatal(err)
		}
		if err := a.Class().BulkTransfer(shortCtx(t), mercury.BulkPull, remote.Descriptor(), 0, local, 0, 512); err != nil {
			t.Fatal(err)
		}
	}

	a.EnableMonitoring()
	step()
	a.DisableMonitoring()
	step()
	a.EnableMonitoring()
	step()

	if got := user.sent.Load(); got != 3 {
		t.Fatalf("user monitor saw %d sent requests, want 3", got)
	}
	if got := user.bulk.Load(); got != 3 {
		t.Fatalf("user monitor saw %d bulk transfers, want 3", got)
	}
	bs := a.Stats().Bulk[b.Addr()]
	if bs == nil || bs.Pulls != 2 || bs.BytesIn != 1024 {
		t.Fatalf("Listing-1 bulk = %+v, want the 2 pulls made while enabled", bs)
	}
}

// TestMonitoringToggleUnderLoad toggles monitoring and renders the
// Listing-1 document while 8 goroutines forward; run with -race it
// checks the record step and the snapshot share the cells safely.
func TestMonitoringToggleUnderLoad(t *testing.T) {
	f := mercury.NewFabric()
	srv := newInstance(t, f, "toggle-srv", "")
	cli := newInstance(t, f, "toggle-cli", "")
	if _, err := srv.RegisterProvider("echo", 3, nil, func(_ context.Context, h *mercury.Handle) {
		_ = h.Respond(h.Input())
	}); err != nil {
		t.Fatal(err)
	}
	ctx := shortCtx(t)
	stop := make(chan struct{})
	var done atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Each goroutine pushes into its own region: the
			// transfers, not the memory, are what is shared.
			remote := srv.Class().CreateBulk(make([]byte, 64), mercury.BulkReadWrite)
			local := cli.Class().CreateBulk(make([]byte, 64), mercury.BulkReadWrite)
			for {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := cli.ForwardProvider(ctx, srv.Addr(), "echo", 3, []byte("x")); err != nil {
					t.Error(err)
					return
				}
				if err := cli.Class().BulkTransfer(ctx, mercury.BulkPush, remote.Descriptor(), 0, local, 0, 64); err != nil {
					t.Error(err)
					return
				}
				done.Add(1)
			}
		}()
	}
	for i := 0; i < 50; i++ {
		cli.EnableMonitoring()
		srv.EnableMonitoring()
		// Let the forwarders make progress inside the enabled window.
		for want := done.Load() + 8; done.Load() < want && ctx.Err() == nil; {
			time.Sleep(10 * time.Microsecond)
		}
		for _, in := range []*Instance{cli, srv} {
			if _, err := in.Stats().JSON(); err != nil {
				t.Error(err)
			}
			in.DisableMonitoring()
			_ = in.Stats()
		}
	}
	close(stop)
	wg.Wait()

	st, ok := cli.Stats().FindByName("echo")
	if !ok {
		t.Fatal("no echo statistics after toggling under load")
	}
	os := st.Origin["sent to "+srv.Addr()]
	if os == nil || os.Duration.Num == 0 || os.Duration.Min > os.Duration.Max {
		t.Fatalf("origin statistics = %+v", os)
	}
}

// TestTargetRecordedWhenHandlerResponds: the target side records an RPC
// when its handler responds, so a caller holding the reply finds the
// RPC in the server's statistics even while the handler still runs.
func TestTargetRecordedWhenHandlerResponds(t *testing.T) {
	f := mercury.NewFabric()
	srv := newInstance(t, f, "respond-srv", "")
	cli := newInstance(t, f, "respond-cli", "")
	srv.EnableMonitoring()
	release := make(chan struct{})
	t.Cleanup(func() { close(release) })
	if _, err := srv.Register("linger", func(_ context.Context, h *mercury.Handle) {
		_ = h.Respond(nil)
		<-release
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := cli.Forward(shortCtx(t), srv.Addr(), "linger", nil); err != nil {
		t.Fatal(err)
	}
	st, ok := srv.Stats().FindByName("linger")
	if !ok {
		t.Fatal("responded RPC missing from the server's statistics")
	}
	if n := st.Target["received from "+cli.Addr()].ULT.Duration.Num; n != 1 {
		t.Fatalf("ult duration num = %d, want 1", n)
	}
}
