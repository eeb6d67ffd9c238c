package replobj_test

// BenchmarkExperiments regenerates every entry of internal/bench's experiment
// table — the paper's figures (Fig. 4(a-d), Fig. 5(a), Fig. 5(b), Fig. 6(a),
// Fig. 6(b)) and the ablations — one sub-benchmark per
// id, reporting the headline metric of each as ms/invocation of virtual
// time. `go test -bench Experiments` therefore reproduces the entire
// evaluation section; cmd/replbench prints the full tables.

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"strconv"
	"strings"
	"testing"
	"time"

	replobj "github.com/replobj/replobj"
	"github.com/replobj/replobj/internal/bench"
	"github.com/replobj/replobj/internal/transport"
	"github.com/replobj/replobj/internal/vtime"
	"github.com/replobj/replobj/internal/wire"
)

// benchCfg keeps bench runs small; cmd/replbench is the tool for
// paper-scale sample sizes.
func benchCfg() bench.Config {
	cfg := bench.Defaults()
	cfg.PerClient = 20
	cfg.Warmup = 3
	return cfg
}

// reportSeries publishes each series' value at the largest X as a bench
// metric, e.g. SAT_ms/invocation.
func reportSeries(b *testing.B, res bench.Result) {
	b.Helper()
	for _, s := range res.Series {
		if len(s.Points) == 0 {
			continue
		}
		last := s.Points[len(s.Points)-1]
		b.ReportMetric(last.Y, s.Label+"_ms/inv")
	}
}

func BenchmarkExperiments(b *testing.B) {
	for _, e := range bench.Experiments() {
		b.Run(e.ID, func(b *testing.B) {
			var res bench.Result
			var err error
			for i := 0; i < b.N; i++ {
				if res, err = e.Run(benchCfg()); err != nil {
					b.Fatal(err)
				}
			}
			reportSeries(b, res)
		})
	}
}

// BenchmarkInvokeTCP is the wall-clock layer microbench of the fixed
// per-request path: one closed-loop client, three SEQ replicas, real clock,
// loopback TCP, a 1-byte add — the same shape as the benchmark's
// counter-seq cell. allocs/op here counts everything the process allocates
// per invocation (client, wire, transport, gcs, replica dispatch, vtime on
// all three replicas), so
//
//	go test -run xxx -bench 'InvokeTCP$' -benchmem -memprofile mem.out -memprofilerate 1 .
//
// attributes the end-to-end allocs_per_op figure to source lines.
func BenchmarkInvokeTCP(b *testing.B) { benchInvokeTCP(b, 1, 3, counterCell) }

// BenchmarkInvokeTCPSingle is BenchmarkInvokeTCP on a one-replica group:
// one Submit and one reply, no Ordered and no follower. Beside
// BenchmarkTCPLoopbackRoundTrip (internal/transport) it splits the fixed
// per-request cost into the transport floor, what one replica adds, and
// what replication adds on top.
func BenchmarkInvokeTCPSingle(b *testing.B) { benchInvokeTCP(b, 1, 1, counterCell) }

// BenchmarkInvokeTCPClients is the same cluster under load: 32 closed-loop
// clients keep the sequencer's queue full, which is where per-round costs
// (and anything that claims to amortise them) show on the ops/s axis.
func BenchmarkInvokeTCPClients(b *testing.B) { benchInvokeTCP(b, 32, 3, counterCell) }

// BenchmarkInvokeTCPKV is BenchmarkInvokeTCP on a key/value object, the
// benchmark's kv cells in small: three ADETS-CC replicas, a 2-byte get that
// locks its key's class and returns a stored 256-byte value. Every reply
// carries one, so B/op shows what the path pays per result byte.
func BenchmarkInvokeTCPKV(b *testing.B) { benchInvokeTCP(b, 1, 3, kvCell) }

// tcpCell is the object a TCP microbench invokes: the group it builds and
// the call each client makes, args[j % len(args)] on its j-th.
type tcpCell struct {
	group  func(b *testing.B, c *replobj.Cluster, name string, replicas int)
	method string
	args   [][]byte
}

// counterCell adds 1 to a counter on SEQ replicas.
var counterCell = tcpCell{
	group: func(b *testing.B, c *replobj.Cluster, name string, replicas int) {
		counterGroup(b, c, name, replicas, replobj.WithScheduler(replobj.SEQ))
	},
	method: "add",
	args:   [][]byte{{1}},
}

// Shape of kvCell's object: benchKVKeys keys of benchKVValSize bytes; key
// k is in conflict class k % 8, under that class's mutex.
const (
	benchKVKeys    = 64
	benchKVValSize = 256
)

var (
	benchKVClasses [8][]string
	benchKVMutexes [8]replobj.MutexID
)

func init() {
	for i := range benchKVClasses {
		benchKVClasses[i] = []string{fmt.Sprintf("b%d", i)}
		benchKVMutexes[i] = replobj.MutexID(benchKVClasses[i][0])
	}
}

// kvCell gets the keys in turn from a benchKV on ADETS-CC replicas.
var kvCell = tcpCell{
	group: func(b *testing.B, c *replobj.Cluster, name string, replicas int) {
		g, err := c.NewGroup(name, replicas, replobj.WithScheduler(replobj.CC),
			replobj.WithState(func() any { return newBenchKV() }))
		if err != nil {
			b.Fatal(err)
		}
		g.Register("get", func(inv *replobj.Invocation) ([]byte, error) {
			args := inv.Args()
			if len(args) != 2 {
				return nil, errors.New("get: bad args")
			}
			k := int(args[1]) % benchKVKeys
			m := benchKVMutexes[k%len(benchKVMutexes)]
			if err := inv.Lock(m); err != nil {
				return nil, err
			}
			v := inv.State().(*benchKV).vals[k]
			if err := inv.Unlock(m); err != nil {
				return nil, err
			}
			return v, nil
		})
		g.Start()
	},
	method: "get",
	args: func() [][]byte {
		keys := make([][]byte, benchKVKeys)
		for k := range keys {
			keys[k] = []byte{0, byte(k)}
		}
		return keys
	}(),
}

// benchKV is kvCell's state. Values are stored once and never written, so
// get returns the stored slice.
type benchKV struct{ vals [benchKVKeys][]byte }

func newBenchKV() *benchKV {
	s := &benchKV{}
	for k := range s.vals {
		s.vals[k] = bytes.Repeat([]byte{byte(k)}, benchKVValSize)
	}
	return s
}

// ConflictClasses puts a get in its key's class.
func (s *benchKV) ConflictClasses(method string, args []byte) []string {
	if method == "get" && len(args) == 2 {
		return benchKVClasses[int(args[1])%benchKVKeys%len(benchKVClasses)]
	}
	return nil
}

func benchInvokeTCP(b *testing.B, clients, replicas int, cell tcpCell) {
	rt := vtime.Real()
	defer rt.Stop()
	addrs := map[wire.NodeID]string{}
	for i := 0; i < clients; i++ {
		addrs[wire.ClientID(fmt.Sprintf("c%d", i))] = "127.0.0.1:0"
	}
	for i := 0; i < replicas; i++ {
		addrs[wire.ReplicaID("cnt", i)] = "127.0.0.1:0"
	}
	c := replobj.NewCluster(rt, replobj.WithNetwork(transport.NewTCP(rt, addrs)))
	defer c.Close()
	cell.group(b, c, "cnt", replicas)
	cls := make([]*replobj.Client, clients)
	for i := range cls {
		cls[i] = c.NewClient(fmt.Sprintf("c%d", i), replobj.WithInvocationTimeout(10*time.Second))
	}
	// Invoke parks on the runtime, so the clients run on its goroutines.
	// drive splits n invocations over them and returns the first error.
	errs := vtime.NewMailbox[error](rt, "bench-clients")
	drive := func(n int) (first error) {
		for i, cl := range cls {
			share := n / clients
			if i < n%clients {
				share++
			}
			rt.Go("bench-client", func() {
				var err error
				for j := 0; j < share && err == nil; j++ {
					_, err = cl.Invoke("cnt", cell.method, cell.args[j%len(cell.args)])
				}
				errs.Put(err)
			})
		}
		for range cls {
			if err, _ := errs.Get(); err != nil && first == nil {
				first = err
			}
		}
		return first
	}
	var err error
	var io0, io1 sysIO
	replobj.Run(rt, func() {
		err = drive(200 * clients) // connections dialed, pools and maps warm
		io0 = readSysIO()
		b.ReportAllocs()
		b.ResetTimer()
		if err == nil {
			err = drive(b.N)
		}
		b.StopTimer()
		io1 = readSysIO()
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "ops/s")
	if io0.ok && io1.ok {
		b.ReportMetric(float64(io1.reads-io0.reads)/float64(b.N), "read-syscalls/op")
		b.ReportMetric(float64(io1.writes-io0.writes)/float64(b.N), "write-syscalls/op")
	}
}

// sysIO is the process's read and write syscall counts so far (syscr and
// syscw of /proc/self/io); ok is false where that file cannot be read.
type sysIO struct {
	reads, writes uint64
	ok            bool
}

func readSysIO() (s sysIO) {
	b, err := os.ReadFile("/proc/self/io")
	if err != nil {
		return s
	}
	for _, line := range strings.Split(string(b), "\n") {
		k, v, _ := strings.Cut(line, ": ")
		n, err := strconv.ParseUint(v, 10, 64)
		switch {
		case k == "syscr" && err == nil:
			s.reads = n
		case k == "syscw" && err == nil:
			s.writes = n
		}
	}
	s.ok = true
	return s
}
