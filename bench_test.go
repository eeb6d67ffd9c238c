package replobj_test

// BenchmarkExperiments regenerates every entry of internal/bench's experiment
// table — the paper's figures (Fig. 4(a-d), Fig. 5(a), Fig. 5(b), Fig. 6(a),
// Fig. 6(b)) and the ablations — one sub-benchmark per
// id, reporting the headline metric of each as ms/invocation of virtual
// time. `go test -bench Experiments` therefore reproduces the entire
// evaluation section; cmd/replbench prints the full tables.

import (
	"fmt"
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
func BenchmarkInvokeTCP(b *testing.B) { benchInvokeTCP(b, 1) }

// BenchmarkInvokeTCPClients is the same cluster under load: 32 closed-loop
// clients keep the sequencer's queue full, which is where per-round costs
// (and anything that claims to amortise them) show on the ops/s axis.
func BenchmarkInvokeTCPClients(b *testing.B) { benchInvokeTCP(b, 32) }

func benchInvokeTCP(b *testing.B, clients int) {
	rt := vtime.Real()
	defer rt.Stop()
	addrs := map[wire.NodeID]string{}
	for i := 0; i < clients; i++ {
		addrs[wire.ClientID(fmt.Sprintf("c%d", i))] = "127.0.0.1:0"
	}
	for i := 0; i < 3; i++ {
		addrs[wire.ReplicaID("cnt", i)] = "127.0.0.1:0"
	}
	c := replobj.NewCluster(rt, replobj.WithNetwork(transport.NewTCP(rt, addrs)))
	defer c.Close()
	counterGroup(b, c, "cnt", 3, replobj.WithScheduler(replobj.SEQ))
	cls := make([]*replobj.Client, clients)
	for i := range cls {
		cls[i] = c.NewClient(fmt.Sprintf("c%d", i), replobj.WithInvocationTimeout(10*time.Second))
	}
	args := []byte{1}
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
					_, err = cl.Invoke("cnt", "add", args)
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
	replobj.Run(rt, func() {
		err = drive(200 * clients) // connections dialed, pools and maps warm
		b.ReportAllocs()
		b.ResetTimer()
		if err == nil {
			err = drive(b.N)
		}
		b.StopTimer()
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "ops/s")
}
