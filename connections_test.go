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

// TestPoolWorkersEndWithTheCluster: scheduler threads run on pooled worker
// goroutines that outlive their requests, idle between them. A TCP cluster
// with an ADETS-MAT and an ADETS-CC group serves concurrent clients, and
// once it is closed the process is back to the goroutines it had before it:
// stopping a scheduler ends its idle workers too.
func TestPoolWorkersEndWithTheCluster(t *testing.T) {
	if testing.Short() {
		t.Skip("real-clock TCP test")
	}
	const clients, calls, slack = 4, 20, 5
	before := runtime.NumGoroutine()
	rt := vtime.Real()
	addrs := map[wire.NodeID]string{}
	for i := 0; i < 3; i++ {
		addrs[wire.ReplicaID("mat", i)] = "127.0.0.1:0"
		addrs[wire.ReplicaID("cc", i)] = "127.0.0.1:0"
	}
	for i := range clients {
		addrs[wire.ClientID(fmt.Sprintf("c%d", i))] = "127.0.0.1:0"
	}
	c := replobj.NewCluster(rt, replobj.WithNetwork(transport.NewTCP(rt, addrs)))
	counterGroup(t, c, "mat", 3, replobj.WithScheduler(replobj.MAT))
	counterGroup(t, c, "cc", 3, replobj.WithScheduler(replobj.CC))
	errs := make(chan error, clients)
	for i := range clients {
		cl := c.NewClient(fmt.Sprintf("c%d", i), replobj.WithInvocationTimeout(10*time.Second))
		go func() {
			var err error
			for j := 0; j < calls && err == nil; j++ {
				if _, err = cl.Invoke("mat", "add", []byte{1}); err == nil {
					_, err = cl.Invoke("cc", "add", []byte{1})
				}
			}
			errs <- err
		}()
	}
	for range clients {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	during := runtime.NumGoroutine()
	c.Close()
	rt.Stop()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before+slack && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	after := runtime.NumGoroutine()
	t.Logf("goroutines: %d before the cluster, %d serving, %d after Close", before, during, after)
	if after > before+slack {
		t.Errorf("%d goroutines after Close, %d before: want at most %d more", after, before, slack)
	}
}
