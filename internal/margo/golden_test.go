package margo

import (
	"bytes"
	"context"
	"flag"
	"os"
	"path/filepath"
	"testing"
	"time"

	"mochi/internal/clock"
	"mochi/internal/mercury"
)

var updateGolden = flag.Bool("update", false, "rewrite the golden files under testdata/")

// TestListing1Golden pins the Listing-1 statistics document byte for
// byte. All three processes share one simulated clock that only the
// handlers advance, so every duration in the document is exact. The
// sequence covers origin and target cells, a nested forward (parent
// recorded on the middle process), the target-side sentinel parents,
// a forward error, a non-zero queue wait, and bulk pulls and pushes.
func TestListing1Golden(t *testing.T) {
	f := mercury.NewFabric()
	sim := clock.NewSim(time.Time{})
	// The sampler period is far beyond the few milliseconds the
	// handlers advance, so no progress sample lands in the document.
	cfg := []byte(`{"monitoring_sample_ms": 3600000}`)
	inst := func(name string) *Instance {
		cls, err := f.NewClass(name)
		if err != nil {
			t.Fatal(err)
		}
		in, err := NewWithClock(cls, cfg, sim)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(in.Finalize)
		in.EnableMonitoring()
		return in
	}
	cli, mid, leaf := inst("golden-cli"), inst("golden-mid"), inst("golden-leaf")

	remote := cli.Class().CreateBulk(make([]byte, 4096), mercury.BulkReadWrite)
	local := mid.Class().CreateBulk(make([]byte, 4096), mercury.BulkReadWrite)

	// A hook at the queueing point advances the clock, so the leaf's
	// ULTs record a queue wait of exactly 1ms.
	leaf.AddHook(&Hook{OnHandlerQueued: func(RPCInfo) { sim.Advance(time.Millisecond) }})
	if _, err := leaf.RegisterProvider("leaf", 2, nil, func(_ context.Context, h *mercury.Handle) {
		sim.Advance(5 * time.Millisecond)
		_ = h.Respond([]byte("leaf-reply"))
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := mid.RegisterProvider("mid", 1, nil, func(ctx context.Context, h *mercury.Handle) {
		sim.Advance(time.Duration(len(h.Input())) * time.Millisecond)
		if _, err := mid.ForwardProvider(ctx, leaf.Addr(), "leaf", 2, h.Input()[1:]); err != nil {
			_ = h.RespondError(err)
			return
		}
		if err := mid.Class().BulkTransfer(ctx, mercury.BulkPull, remote.Descriptor(), 0, local, 0, 4096); err != nil {
			_ = h.RespondError(err)
			return
		}
		if err := mid.Class().BulkTransfer(ctx, mercury.BulkPush, remote.Descriptor(), 0, local, 0, 1024); err != nil {
			_ = h.RespondError(err)
			return
		}
		_ = h.Respond(h.Input())
	}); err != nil {
		t.Fatal(err)
	}

	for _, in := range [][]byte{[]byte("abc"), []byte("abcdefgh")} {
		if _, err := cli.ForwardProvider(shortCtx(t), mid.Addr(), "mid", 1, in); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := cli.Forward(shortCtx(t), "sm://golden-ghost", "mid", nil); err == nil {
		t.Fatal("forward to a missing process succeeded")
	}

	var got bytes.Buffer
	for _, in := range []*Instance{cli, mid, leaf} {
		raw, err := in.Stats().JSON()
		if err != nil {
			t.Fatal(err)
		}
		got.Write(raw)
		got.WriteByte('\n')
	}
	path := filepath.Join("testdata", "listing1_golden.json")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Fatalf("Listing-1 document differs from %s:\n%s", path, got.String())
	}
}
