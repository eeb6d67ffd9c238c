package main

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	replobj "github.com/replobj/replobj"
	"github.com/replobj/replobj/internal/adets"
	"github.com/replobj/replobj/internal/adets/cc"
	"github.com/replobj/replobj/internal/adets/mat"
	"github.com/replobj/replobj/internal/adets/seq"
	"github.com/replobj/replobj/internal/gcs"
	"github.com/replobj/replobj/internal/obs"
	"github.com/replobj/replobj/internal/obs/tracing"
	"github.com/replobj/replobj/internal/replica"
	"github.com/replobj/replobj/internal/shard"
	"github.com/replobj/replobj/internal/spec"
	"github.com/replobj/replobj/internal/transport"
	"github.com/replobj/replobj/internal/vtime"
	"github.com/replobj/replobj/internal/wire"
)

// The probes time each layer's public functions in isolation, with no
// network unless stated, after the clusters are gone. Each is sized to a
// few tenths of a second.

const probeRounds = 5

// prober carries the probes' results and their sizing.
type prober struct {
	w    *workload
	m    map[string]float64
	size sizing
}

// perOpNs times rounds of iters calls of fn and returns the median round's
// nanoseconds per call.
func perOpNs(iters int, fn func(i int)) float64 {
	var rounds []float64
	for r := 0; r < probeRounds; r++ {
		t0 := time.Now()
		for i := 0; i < iters; i++ {
			fn(i)
		}
		rounds = append(rounds, float64(time.Since(t0).Nanoseconds())/float64(iters))
	}
	return median(rounds)
}

func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// runProbes fills the probe-sourced per-layer metrics into m.
func runProbes(w *workload, m map[string]float64, size sizing) error {
	p := &prober{w: w, m: m, size: size}
	for _, probe := range []func() error{
		p.client, p.wire, p.transport, p.gcs, p.adets, p.spec, p.shard, p.vtime, p.obs,
	} {
		if err := probe(); err != nil {
			return err
		}
	}
	return nil
}

// probeClient: Invoke against three SEQ counter replicas over the
// zero-latency in-process network on the real clock. Against lat_p50_us of
// counter-seq, the difference is what loopback TCP and the codec cost.
func (p *prober) client() error {
	m, n := p.m, p.size.count
	rt := vtime.Real()
	defer rt.Stop()
	c := replobj.NewCluster(rt, replobj.WithLatency(0))
	defer c.Close()
	dep, err := deployCounter(c)
	if err != nil {
		return err
	}
	dep.start()
	cl := c.NewClient("probe", replobj.WithInvocationTimeout(invokeTimeout))
	var durs []float64
	vtime.Run(rt, "probe-client", func() {
		for i := 0; i < n(2000) && err == nil; i++ {
			t0 := time.Now()
			_, err = cl.Invoke(dep.data[0].id, "add", []byte{1})
			durs = append(durs, float64(time.Since(t0).Nanoseconds())/1e3)
		}
	})
	m["client.invoke_inproc_us"] = median(durs)
	return err
}

// probeMessages are a request and a reply of the workload's own payload
// sizes, as they cross the wire.
func probeMessages(w *workload) (req, rep wire.Message) {
	id := wire.InvocationID{Logical: "client/c0#123456"}
	req = wire.Message{From: "client/c0", To: "obj/0", Payload: replica.Request{
		ID: id, Group: "obj", Method: w.method, Args: make([]byte, w.argBytes), ReplyTo: "client/c0"}}
	rep = wire.Message{From: "obj/0", To: "client/c0", Payload: replica.Reply{
		ID: id, From: "obj/0", Result: make([]byte, w.replyBytes)}}
	return req, rep
}

func (p *prober) wire() error {
	w, m, n := p.w, p.m, p.size.count
	iters := n(20000)
	req, rep := probeMessages(w)
	var err error
	m0 := mallocs()
	for _, c := range []struct {
		enc, dec string
		msg      wire.Message
	}{
		{"wire.encode_request_ns", "wire.decode_request_ns", req},
		{"wire.encode_reply_ns", "wire.decode_reply_ns", rep},
	} {
		var buf []byte
		m[c.enc] = perOpNs(iters, func(int) {
			var e error
			if buf, e = wire.AppendMessage(buf[:0], &c.msg); e != nil {
				err = e
			}
		})
		m[c.dec] = perOpNs(iters, func(int) {
			if _, _, _, e := wire.ConsumeMessage(buf); e != nil {
				err = e
			}
		})
	}
	// Four operations (encode and decode of two messages), probeRounds each.
	m["wire.codec_allocs_per_msg"] = float64(mallocs()-m0) / float64(2*probeRounds*iters)
	return err
}

// probeTransport: TCPEndpoint.Send/Recv between two endpoints on loopback,
// one message at a time and pipelined behind a window.
func (p *prober) transport() error {
	w, m, n := p.w, p.m, p.size.count
	rt := vtime.Real()
	defer rt.Stop()
	const window = 256
	net := transport.NewTCP(rt, map[wire.NodeID]string{"a": loopback, "b": loopback},
		transport.WithSendQueueDepth(2*window))
	a, err := net.Listen("a")
	if err != nil {
		return err
	}
	defer a.Close()
	b, err := net.Listen("b")
	if err != nil {
		return err
	}
	defer b.Close()
	_, rep := probeMessages(w)
	var echo atomic.Bool
	echo.Store(true)
	got := make(chan struct{}, window) // one slot per message in flight
	go func() {
		for {
			msg, ok := b.Recv()
			if !ok {
				return
			}
			if echo.Load() {
				b.Send(msg.From, msg.Payload)
			} else {
				got <- struct{}{}
			}
		}
	}()
	var durs []float64
	for i := 0; i < n(2000); i++ {
		t0 := time.Now()
		a.Send("b", rep.Payload)
		if _, ok := a.Recv(); !ok {
			return errors.New("transport probe: endpoint closed")
		}
		durs = append(durs, float64(time.Since(t0).Nanoseconds())/1e3)
	}
	m["transport.tcp_pingpong_us"] = median(durs)

	// The last echo has been received, so b's loop is idle in Recv and sees
	// the new mode with its next message.
	echo.Store(false)
	msgs := n(100_000)
	t0 := time.Now()
	inFlight := 0
	for i := 0; i < msgs; i++ {
		for inFlight >= window {
			<-got
			inFlight--
		}
		a.Send("b", rep.Payload)
		inFlight++
	}
	for ; inFlight > 0; inFlight-- {
		<-got
	}
	m["transport.tcp_pipelined_ns_per_msg"] = float64(time.Since(t0).Nanoseconds()) / float64(msgs)
	return nil
}

// probeGCS: three Members on the zero-latency in-process network; the time
// from Broadcast at the sequencer's peer to Deliver at all three.
func (p *prober) gcs() error {
	w, m, n := p.w, p.m, p.size.count
	rt := vtime.Real()
	defer rt.Stop()
	net := transport.NewInproc(rt, transport.WithLatency(0))
	ids := []wire.NodeID{"probe/0", "probe/1", "probe/2"}
	var members []*gcs.Member
	for _, id := range ids {
		ep := net.Endpoint(id)
		mem := gcs.NewMember(rt, gcs.Config{Group: "probe", Self: id, Members: ids, Send: ep.Send})
		members = append(members, mem)
		rt.Go("probe-recv/"+string(id), func() {
			for {
				msg, ok := ep.Recv()
				if !ok {
					return
				}
				mem.Handle(msg.From, msg.Payload)
			}
		})
		mem.Start()
		defer ep.Close()
		defer mem.Stop()
	}
	req, _ := probeMessages(w)
	var durs []float64
	var err error
	vtime.Run(rt, "probe-gcs", func() {
		for i := 0; i < n(2000); i++ {
			t0 := time.Now()
			members[1].Broadcast(fmt.Sprintf("probe#%d", i), req.Payload)
			for _, mem := range members {
				for {
					d, ok, timedOut := mem.DeliverTimeout(invokeTimeout)
					if !ok || timedOut {
						err = errors.New("gcs probe: delivery stream closed or stalled")
						return
					}
					if d.Payload != nil {
						break
					}
				}
			}
			durs = append(durs, float64(time.Since(t0).Nanoseconds())/1e3)
		}
	})
	m["gcs.broadcast_deliver_us"] = median(durs)
	return err
}

// probeAdets: the workload's own scheduler kind, alone: Submit to the start
// of Exec, and an uncontended Lock+Unlock on a running thread.
func (p *prober) adets() error {
	w, m, n := p.w, p.m, p.size.count
	rt := vtime.Real()
	defer rt.Stop()
	var s adets.Scheduler
	switch w.scheduler {
	case replobj.SEQ:
		s = seq.New()
	case replobj.MAT:
		s = mat.New()
	case replobj.CC:
		s = cc.New(cc.WithLanes(kvLanes))
	default:
		return fmt.Errorf("adets probe: no constructor for %s", w.scheduler)
	}
	self := wire.NodeID("probe/0")
	s.Start(adets.Env{RT: rt, Self: self, Peers: []wire.NodeID{self},
		SendPeer: func(wire.NodeID, any) {}, BroadcastOrdered: func(string, any) {}})
	defer s.Stop()
	reent := adets.NewReentrancy(rt, s)
	seqNo := uint64(0)
	// submit runs body as one request and returns how long Submit → Exec
	// start took.
	submit := func(body func(t *adets.Thread)) time.Duration {
		seqNo++
		logical := wire.LogicalID(fmt.Sprintf("probe#%d", seqNo))
		var started time.Time
		done := make(chan struct{})
		t0 := time.Now()
		s.Submit(adets.Request{
			ID: wire.InvocationID{Logical: logical}, Logical: logical,
			Classes: kvClasses[0], Seq: seqNo,
			Exec: func(t *adets.Thread) {
				started = time.Now()
				body(t)
				close(done)
			},
		})
		<-done
		return started.Sub(t0)
	}
	var starts []float64
	for i := 0; i < n(2000); i++ {
		starts = append(starts, float64(submit(func(*adets.Thread) {}).Nanoseconds())/1e3)
	}
	m["adets.submit_start_us"] = median(starts)
	var err error
	submit(func(t *adets.Thread) {
		m["adets.lock_unlock_ns"] = perOpNs(n(20000), func(int) {
			if e := reent.Lock(t, kvMutexes[0]); e != nil {
				err = e
			}
			if e := reent.Unlock(t, kvMutexes[0]); e != nil {
				err = e
			}
		})
	})
	return err
}

// probeSpec: one speculation record's life in the Manager — Begin, Finish,
// Confirm, then Resolve so the record table stays small.
func (p *prober) spec() error {
	m, n := p.m, p.size.count
	mgr := spec.NewManager()
	mgr.SetImage(make([]byte, kvRecord), false, 0)
	ids := make([]string, 1024)
	for i := range ids {
		ids[i] = fmt.Sprintf("client/c0#%d#0", i)
	}
	var err error
	m["spec.manager_cycle_ns"] = perOpNs(n(20000), func(i int) {
		id := ids[i%len(ids)]
		classes := kvClasses[i%kvBuckets]
		if !mgr.Begin(id, 0, classes) {
			err = errors.New("spec probe: Begin declined")
		}
		mgr.Finish(id, replica.Reply{})
		if _, out := mgr.Confirm(id, classes); out != spec.Hit {
			err = fmt.Errorf("spec probe: Confirm = %v, want hit", out)
		}
		mgr.Resolve(id)
	})
	return err
}

func (p *prober) shard() error {
	m, n := p.m, p.size.count
	ring := shard.NewRing(shard.NewTable(kvObject, kvShards, 0))
	var sink int
	m["shard.home_lookup_ns"] = perOpNs(n(20000), func(i int) {
		sink += len(ring.HomeGroup(kvKeyNames[i%kvKeys]))
	})
	if sink == 0 {
		return errors.New("shard probe: empty home group ids")
	}
	return nil
}

// probeVtime: the process-wide runtime mutex every layer is a monitor over,
// alone, under nproc goroutines, and as a Park/Unpark hand-off.
func (p *prober) vtime() error {
	m, n := p.m, p.size.count
	rt := vtime.Real()
	defer rt.Stop()
	iters := n(200_000)
	m["vtime.lock_unlock_ns"] = perOpNs(iters, func(int) {
		rt.Lock()
		rt.Unlock() //nolint:staticcheck // empty critical section is the point
	})
	workers := runtime.GOMAXPROCS(0)
	var rounds []float64
	for r := 0; r < probeRounds; r++ {
		var wg sync.WaitGroup
		t0 := time.Now()
		for g := 0; g < workers; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < iters/workers; i++ {
					rt.Lock()
					rt.Unlock() //nolint:staticcheck
				}
			}()
		}
		wg.Wait()
		rounds = append(rounds, float64(time.Since(t0).Nanoseconds())/float64(iters/workers*workers))
	}
	m["vtime.lock_unlock_contended_ns"] = median(rounds)

	// Two goroutines hand a token back and forth; each hop is one Unpark
	// and the matching return from Park.
	hops := n(20000)
	ping, pong := vtime.NewParker("probe-ping"), vtime.NewParker("probe-pong")
	done := make(chan struct{})
	go func() {
		defer close(done)
		rt.Lock()
		for i := 0; i < hops; i++ {
			rt.Park(ping)
			rt.Unpark(pong)
		}
		rt.Unlock()
	}()
	t0 := time.Now()
	rt.Lock()
	for i := 0; i < hops; i++ {
		rt.Unpark(ping)
		rt.Park(pong)
	}
	rt.Unlock()
	<-done
	m["vtime.park_unpark_us"] = float64(time.Since(t0).Nanoseconds()) / 1e3 / float64(2*hops)
	return nil
}

func (p *prober) obs() error {
	m, n := p.m, p.size.count
	col := tracing.NewCollector(1 << 12)
	sp := tracing.Span{Trace: 1, ID: 2, Name: "exec", Node: "probe/0", Dur: time.Microsecond}
	m["obs.span_record_ns"] = perOpNs(n(200_000), func(i int) {
		sp.Start = time.Duration(i)
		col.Record(sp)
	})
	h := obs.NewRegistry().Histogram("probe_seconds", obs.LatencyBuckets())
	m["obs.histogram_observe_ns"] = perOpNs(n(200_000), func(i int) {
		h.Observe(float64(i%1000) * 1e-5)
	})
	return nil
}
