//go:build !race

package transport

import (
	"io"
	"testing"
	"time"

	"github.com/replobj/replobj/internal/vtime"
	"github.com/replobj/replobj/internal/wire"
)

// TestTCPSendAllocatesNothing: Send encodes a registered *T into the
// connection's pending bytes, from a buffer the writer hands back to the
// pool once it has written it, so a Send to a connected peer allocates
// nothing. The race detector allocates on its own, hence the build tag.
func TestTCPSendAllocatesNothing(t *testing.T) {
	addr, accepted := rawPeer(t)
	rt := vtime.Real()
	t.Cleanup(rt.Stop)
	a, err := NewTCP(rt, map[wire.NodeID]string{"a": "127.0.0.1:0", "peer": addr}).Listen("a")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(a.Close)
	p := &blob{N: 7, B: []byte("payload")}
	a.Send("peer", p) // dials
	select {
	case conn := <-accepted:
		go func() { _, _ = io.Copy(io.Discard, conn) }()
	case <-time.After(5 * time.Second):
		t.Fatal("the peer never accepted")
	}
	for range 100 { // the pool warm
		a.Send("peer", p)
	}
	if allocs := testing.AllocsPerRun(1000, func() { a.Send("peer", p) }); allocs != 0 {
		t.Errorf("a Send to a connected peer allocates %v times, want 0", allocs)
	}
}
