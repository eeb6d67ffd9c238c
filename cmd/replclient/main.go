// Command replclient invokes a method on a replicated object group served
// by cmd/replnode instances over TCP.
//
//	replclient -group counter -addrs host0:7000,host1:7000,host2:7000 \
//	           -listen :7100 -method add -arg 1 -n 10
package main

import (
	"encoding/binary"
	"flag"
	"fmt"
	"log"
	"os"
	"strings"
	"time"

	replobj "github.com/replobj/replobj"
	"github.com/replobj/replobj/internal/transport"
	"github.com/replobj/replobj/internal/vtime"
	"github.com/replobj/replobj/internal/wire"
)

func main() {
	var (
		group    = flag.String("group", "counter", "replica group name")
		addrs    = flag.String("addrs", "", "comma-separated host:port of all replicas, rank order")
		listen   = flag.String("listen", "127.0.0.1:0", "address this client listens on for replies")
		name     = flag.String("name", fmt.Sprintf("cli-%d-%d", os.Getpid(), time.Now().Unix()), "client name, unique per client process: replicas remember a name's call numbers, which restart with the process")
		method   = flag.String("method", "get", "method to invoke")
		arg      = flag.Uint("arg", 1, "single-byte argument for add")
		n        = flag.Int("n", 1, "number of invocations")
		policy   = flag.String("policy", "majority", "reply policy: first|majority|all")
		trace    = flag.Bool("trace", true, "attach trace contexts to requests (replicas then record spans, see replnode /spans)")
		spanDump = flag.String("span-dump", "", "write this client's spans as Chrome trace-event JSON to this file on exit")
	)
	flag.Parse()

	list := strings.Split(*addrs, ",")
	if *addrs == "" {
		fmt.Fprintln(os.Stderr, "replclient: -addrs required")
		os.Exit(2)
	}

	rt := vtime.Real()
	defer rt.Stop()
	registry := map[wire.NodeID]string{
		wire.ClientID(*name): *listen,
	}
	for i, a := range list {
		registry[wire.ReplicaID(wire.GroupID(*group), i)] = strings.TrimSpace(a)
	}
	net := transport.NewTCP(rt, registry)
	copts := []replobj.ClusterOption{replobj.WithNetwork(net)}
	// Tracing is client-originated: the stub allocates the trace context
	// and every replica that sees the request annotates its stages.
	var spans *replobj.SpanCollector
	if *trace || *spanDump != "" {
		spans = replobj.NewSpanCollector(0)
		copts = append(copts, replobj.WithSpans(spans))
	}
	cluster := replobj.NewCluster(rt, copts...)
	defer cluster.Close()

	// Registering the group (without starting replicas locally) teaches the
	// directory where the remote replicas live.
	if _, err := cluster.NewGroup(*group, len(list)); err != nil {
		log.Fatal(err)
	}

	var pol replobj.ReplyPolicy
	switch *policy {
	case "first":
		pol = replobj.First
	case "all":
		pol = replobj.All
	default:
		pol = replobj.Majority
	}
	cl := cluster.NewClient(*name,
		replobj.WithReplyPolicy(pol),
		replobj.WithInvocationTimeout(10*time.Second))

	var args []byte
	if *method == "add" {
		args = []byte{byte(*arg)}
	}
	for i := 0; i < *n; i++ {
		t0 := time.Now()
		out, err := cl.Invoke(wire.GroupID(*group), *method, args)
		if err != nil {
			log.Fatalf("invoke %d: %v", i, err)
		}
		if len(out) == 8 {
			fmt.Printf("%s -> %d (%v)\n", *method, binary.BigEndian.Uint64(out), time.Since(t0).Round(time.Microsecond))
		} else {
			fmt.Printf("%s -> %x (%v)\n", *method, out, time.Since(t0).Round(time.Microsecond))
		}
	}
	if *spanDump != "" {
		f, err := os.Create(*spanDump)
		if err != nil {
			log.Fatalf("span dump: %v", err)
		}
		if err := spans.WriteChromeTrace(f); err != nil {
			log.Fatalf("span dump: %v", err)
		}
		if err := f.Close(); err != nil {
			log.Fatalf("span dump: %v", err)
		}
		log.Printf("replclient: wrote %d spans to %s", spans.Len(), *spanDump)
	}
}
