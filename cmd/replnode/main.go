// Command replnode runs one replica of a replicated demo object over real
// TCP — the wall-clock deployment path of the middleware.
//
// Start three replicas (in three shells or on three machines):
//
//	replnode -group counter -rank 0 -addrs host0:7000,host1:7000,host2:7000 -scheduler ADETS-MAT
//	replnode -group counter -rank 1 -addrs host0:7000,host1:7000,host2:7000 -scheduler ADETS-MAT
//	replnode -group counter -rank 2 -addrs host0:7000,host1:7000,host2:7000 -scheduler ADETS-MAT
//
// then invoke with cmd/replclient. The demo object is a counter with the
// methods "add" (one byte: the increment; returns the 8-byte big-endian
// value) and "get".
//
// With -http the node serves /metrics (Prometheus text format),
// /trace?stream=...&n=... (schedule-trace tail) and /debug/pprof/*.
package main

import (
	"context"
	"encoding/binary"
	"flag"
	"fmt"
	"log"
	gonet "net"
	"net/http"
	"os"
	"os/signal"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	replobj "github.com/replobj/replobj"
	"github.com/replobj/replobj/internal/faultnet"
	"github.com/replobj/replobj/internal/obs"
	"github.com/replobj/replobj/internal/transport"
	"github.com/replobj/replobj/internal/vtime"
	"github.com/replobj/replobj/internal/wire"
)

type counter struct{ value uint64 }

// Snapshot/Restore make the demo counter checkpointable (-checkpoint-every):
// the image is the value as 8 big-endian bytes.
func (c *counter) Snapshot() ([]byte, error) { return binary.BigEndian.AppendUint64(nil, c.value), nil }

func (c *counter) Restore(b []byte) error {
	_, err := binary.Decode(b, binary.BigEndian, &c.value) // refuses a short image
	return err
}

var _ replobj.Snapshotter = (*counter)(nil)

func main() {
	var (
		group        = flag.String("group", "counter", "replica group name")
		rank         = flag.Int("rank", 0, "this replica's rank (index into -addrs)")
		addrs        = flag.String("addrs", "", "comma-separated host:port of all replicas, rank order")
		sched        = flag.String("scheduler", "ADETS-MAT", "scheduling strategy (see replbench Table 1)")
		fd           = flag.Bool("fd", true, "enable failure detection / view changes")
		httpAddr     = flag.String("http", "", "serve /metrics, /trace and /debug/pprof on this address (e.g. :7070)")
		retain       = flag.Int("trace", obs.DefaultRetain, "schedule-trace events retained per trace, over all its streams (0 disables tracing)")
		chaosProfile = flag.String("chaos-profile", "none", "fault-injection profile: none, mild or harsh")
		chaosSeed    = flag.Int64("chaos-seed", 0, "fault-schedule seed (0 picks one; the resolved seed is printed at startup)")
		ckptEvery    = flag.Int("checkpoint-every", 0, "take a checkpoint (and truncate the ordered log) every N deliveries (0 disables)")
		spanDump     = flag.String("span-dump", "", "write the span ring as Chrome trace-event JSON to this file on shutdown (implies request tracing)")
		spanRing     = flag.Int("span-ring", 0, "span-ring capacity (0 selects the default 16384)")
		shardCount   = flag.Int("shards", 0, "host this rank of a sharded object with N shard groups (plus its directory); shard group i listens on the -addrs port + 1 + i")
	)
	flag.Parse()

	list := strings.Split(*addrs, ",")
	if *addrs == "" || *rank < 0 || *rank >= len(list) {
		fmt.Fprintln(os.Stderr, "replnode: -addrs must list all replicas and -rank must index into it")
		os.Exit(2)
	}

	rt := vtime.Real()
	registry := make(map[wire.NodeID]string, len(list)*(1+*shardCount))
	if *shardCount > 0 {
		// Sharded hosting: one process per rank serves the directory group at
		// the listed port and shard group i at port + 1 + i, so a single
		// -addrs list addresses every group of the object.
		for i, a := range list {
			host, port, err := splitAddr(strings.TrimSpace(a))
			if err != nil {
				fmt.Fprintf(os.Stderr, "replnode: -addrs entry %q: %v\n", a, err)
				os.Exit(2)
			}
			registry[wire.ReplicaID(replobj.ShardDirGroup(*group), i)] = fmt.Sprintf("%s:%d", host, port)
			for si := 0; si < *shardCount; si++ {
				registry[wire.ReplicaID(replobj.ShardGroupName(*group, si), i)] =
					fmt.Sprintf("%s:%d", host, port+1+si)
			}
		}
	} else {
		for i, a := range list {
			registry[wire.ReplicaID(wire.GroupID(*group), i)] = strings.TrimSpace(a)
		}
	}
	var net transport.Network = transport.NewTCP(rt, registry)

	// Every run gets a seed so any failure is replayable; the fault layer is
	// only interposed when a profile actually injects something.
	prof, err := faultnet.ByName(*chaosProfile)
	if err != nil {
		fmt.Fprintf(os.Stderr, "replnode: %v\n", err)
		os.Exit(2)
	}
	seed := *chaosSeed
	if seed == 0 {
		seed = time.Now().UnixNano()
	}
	log.Printf("replnode: chaos profile %q seed %d (replay with -chaos-seed %d)",
		*chaosProfile, seed, seed)
	if !strings.EqualFold(*chaosProfile, "none") {
		net = faultnet.New(rt, net, prof, seed)
	}

	metrics := replobj.NewMetricsRegistry()
	copts := []replobj.ClusterOption{replobj.WithNetwork(net), replobj.WithMetrics(metrics)}
	// Request tracing is on whenever something can consume it: a -span-dump
	// file or the /spans endpoint of -http.
	var spans *replobj.SpanCollector
	if *spanDump != "" || *httpAddr != "" {
		spans = replobj.NewSpanCollector(*spanRing)
		copts = append(copts, replobj.WithSpans(spans))
	}
	cluster := replobj.NewCluster(rt, copts...)
	gopts := []replobj.GroupOption{
		replobj.WithScheduler(replobj.SchedulerKind(*sched)),
		replobj.WithFailureDetection(*fd),
		replobj.WithState(func() any { return &counter{} }),
	}
	if *retain > 0 {
		gopts = append(gopts, replobj.WithSchedTrace(*retain))
	}
	if *ckptEvery > 0 {
		gopts = append(gopts, replobj.WithCheckpointEvery(*ckptEvery))
	}
	register := func(g *replobj.Group) {
		g.Register("add", func(inv *replobj.Invocation) ([]byte, error) {
			st := inv.State().(*counter)
			if err := inv.Lock("state"); err != nil {
				return nil, err
			}
			defer func() { _ = inv.Unlock("state") }()
			if len(inv.Args()) > 0 {
				st.value += uint64(inv.Args()[0])
			}
			out := make([]byte, 8)
			binary.BigEndian.PutUint64(out, st.value)
			return out, nil
		})
		g.Register("get", func(inv *replobj.Invocation) ([]byte, error) {
			st := inv.State().(*counter)
			if err := inv.Lock("state"); err != nil {
				return nil, err
			}
			defer func() { _ = inv.Unlock("state") }()
			out := make([]byte, 8)
			binary.BigEndian.PutUint64(out, st.value)
			return out, nil
		})
	}

	// groups lists every group this process hosts a rank of: one in plain
	// mode, the directory plus every shard group in sharded mode.
	var groups []*replobj.Group
	if *shardCount > 0 {
		sopts := append(gopts, replobj.WithShards(*shardCount))
		sh, err := cluster.NewSharded(*group, len(list), sopts...)
		if err != nil {
			log.Fatal(err)
		}
		sh.EachShard(func(_ int, g *replobj.Group) { register(g) })
		groups = append(groups, sh.Dir())
		sh.EachShard(func(_ int, g *replobj.Group) { groups = append(groups, g) })
	} else {
		g, err := cluster.NewGroup(*group, len(list), gopts...)
		if err != nil {
			log.Fatal(err)
		}
		register(g)
		groups = append(groups, g)
	}

	// Only this rank's replicas actually start; the others are remote.
	for _, g := range groups {
		g.StartRank(*rank)
	}
	if *shardCount > 0 {
		log.Printf("replnode: %s rank %d (%s) serving %d shard groups + directory with %s; ^C to stop",
			*group, *rank, list[*rank], *shardCount, *sched)
	} else {
		log.Printf("replnode: %s rank %d (%s) serving with %s; ^C to stop",
			*group, *rank, list[*rank], *sched)
	}

	var httpSrv *http.Server
	if *httpAddr != "" {
		traces := make(map[string]*obs.Trace)
		for _, g := range groups {
			if tr := g.Trace(*rank); tr != nil {
				traces[string(g.Members()[*rank])] = tr
			}
		}
		httpSrv = &http.Server{Addr: *httpAddr, Handler: obs.Handler(metrics, traces, spans)}
		go func() {
			if err := httpSrv.ListenAndServe(); err != nil && err != http.ErrServerClosed {
				log.Printf("replnode: http server: %v", err)
			}
		}()
		log.Printf("replnode: observability on http://%s/metrics", *httpAddr)
	}

	ch := make(chan os.Signal, 1)
	signal.Notify(ch, os.Interrupt, syscall.SIGTERM)
	<-ch
	log.Println("replnode: shutting down")
	// Ordered teardown: stop the replica first (scheduler, group member,
	// then the TCP endpoint — which closes the listener and every
	// connection), flush the schedule trace, then the HTTP server.
	for _, g := range groups {
		g.Stop()
	}
	for _, g := range groups {
		flushTrace(g.Trace(*rank))
	}
	if *spanDump != "" {
		dumpSpans(spans, *spanDump)
	}
	if httpSrv != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		_ = httpSrv.Shutdown(ctx)
		cancel()
	}
	rt.Stop()
	time.Sleep(100 * time.Millisecond)
}

// splitAddr parses "host:port" with a numeric port, for the sharded
// port-offset addressing.
func splitAddr(addr string) (string, int, error) {
	host, portStr, err := gonet.SplitHostPort(addr)
	if err != nil {
		return "", 0, err
	}
	port, err := strconv.Atoi(portStr)
	if err != nil {
		return "", 0, fmt.Errorf("port %q is not numeric", portStr)
	}
	return host, port, nil
}

// dumpSpans writes the span ring as Chrome trace-event JSON — load the file
// in Perfetto or chrome://tracing to see the stage decomposition.
func dumpSpans(spans *replobj.SpanCollector, path string) {
	f, err := os.Create(path)
	if err != nil {
		log.Printf("replnode: span dump: %v", err)
		return
	}
	if err := spans.WriteChromeTrace(f); err != nil {
		log.Printf("replnode: span dump: %v", err)
	}
	if err := f.Close(); err != nil {
		log.Printf("replnode: span dump: %v", err)
		return
	}
	log.Printf("replnode: wrote %d spans (%d dropped) to %s", spans.Len(), spans.Dropped(), path)
}

// flushTrace prints the final per-stream digests so operators can compare
// replicas after a run: equal digests at equal counts certify identical
// schedules.
func flushTrace(tr *obs.Trace) {
	if tr == nil {
		return
	}
	snap := tr.Snapshot()
	names := make([]string, 0, len(snap))
	for name := range snap {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		s := snap[name]
		log.Printf("replnode: trace %-24s events=%d digest=%016x", name, s.Count, s.Digest)
	}
}
