package replobj_test

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	replobj "github.com/replobj/replobj"
	"github.com/replobj/replobj/internal/transport"
	"github.com/replobj/replobj/internal/vtime"
	"github.com/replobj/replobj/internal/wire"
)

// tcpCounterCluster is three SEQ counter replicas over loopback TCP on the
// real clock. connect registers a client under name, attaches it and makes
// one call, so its connection to every replica is open when it returns.
func tcpCounterCluster(t *testing.T) (connect func(name string) *replobj.Client) {
	t.Helper()
	rt := vtime.Real()
	t.Cleanup(rt.Stop)
	addrs := map[wire.NodeID]string{}
	for i := 0; i < 3; i++ {
		addrs[wire.ReplicaID("cnt", i)] = "127.0.0.1:0"
	}
	tcp := transport.NewTCP(rt, addrs)
	c := replobj.NewCluster(rt, replobj.WithNetwork(tcp))
	t.Cleanup(c.Close)
	counterGroup(t, c, "cnt", 3, replobj.WithScheduler(replobj.SEQ))
	return func(name string) *replobj.Client {
		tcp.Register(wire.ClientID(name), "127.0.0.1:0")
		cl := c.NewClient(name, replobj.WithInvocationTimeout(10*time.Second))
		if _, err := cl.Invoke("cnt", "add", []byte{1}); err != nil {
			t.Fatalf("client %s: %v", name, err)
		}
		return cl
	}
}

// heapInuse is HeapInuse after a collection.
func heapInuse() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapInuse
}

// TestTCPDepartedClientsLeaveNothing: a client that connects, calls and
// closes leaves no goroutine behind on the replicas, and no more heap than
// the rows the replicas keep per client by design. When its socket ends,
// the reader that served it retires the connection the replica learned on
// that socket — writer goroutine, queue and buffers — instead of keeping
// it until a later write fails, which for a departed client is never. Each
// departed client used to leave 2.7 goroutines and 440 KiB.
func TestTCPDepartedClientsLeaveNothing(t *testing.T) {
	if testing.Short() {
		t.Skip("real-clock TCP test")
	}
	const clients, slack, heapBudget = 100, 10, 64 << 10
	connect := tcpCounterCluster(t)
	// Every replica-to-replica connection is open after the first call.
	connect("warm").Close()
	goroutines, heap := runtime.NumGoroutine(), heapInuse()
	for i := range clients {
		connect(fmt.Sprintf("c%d", i)).Close()
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > goroutines+slack && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	left := runtime.NumGoroutine() - goroutines
	kept := (int64(heapInuse()) - int64(heap)) / clients
	t.Logf("%d departed clients left %d goroutines and %d B of heap each", clients, left, kept)
	if left > slack {
		t.Errorf("%d departed clients left %d goroutines behind, want at most %d", clients, left, slack)
	}
	if kept > heapBudget {
		t.Errorf("each departed client left %d KiB of heap, want at most %d KiB", kept>>10, heapBudget>>10)
	}
}
