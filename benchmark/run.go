package main

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	replobj "github.com/replobj/replobj"
	"github.com/replobj/replobj/internal/replica"
	"github.com/replobj/replobj/internal/transport"
	"github.com/replobj/replobj/internal/vtime"
	"github.com/replobj/replobj/internal/wire"
)

const (
	loopback = "127.0.0.1:0"
	// invokeTimeout bounds one invocation. Nothing in these workloads takes
	// seconds; an invoke that does has failed, and the run with it.
	invokeTimeout = 10 * time.Second
	// setupRepeats is how many times a run sets the cluster up; setup_s is
	// the median, because a single set-up of a couple of seconds moves by
	// tens of percent from run to run on the reference machine.
	setupRepeats = 3
	slowShare    = 0.05
)

// bench is one set-up cluster: real clock, loopback TCP, every replica and
// every client in this process.
type bench struct {
	w        *workload
	rt       *vtime.RealRuntime
	cluster  *replobj.Cluster
	dep      *deployment
	invokers []func(request) ([]byte, error)
	scripts  []script
	verifier *replobj.Client
	metrics  *replobj.MetricsRegistry // traced clusters only
	spans    *replobj.SpanCollector   // traced clusters only
}

// setUp builds the cluster, installs it, preloads the state and runs the
// fixed-count closed-loop warm-up: everything setup_s covers.
func setUp(w *workload, seed int64, clients, warmup int, traced bool) (*bench, error) {
	rt := vtime.Real()
	net := transport.NewTCP(rt, nil)
	opts := []replobj.ClusterOption{replobj.WithNetwork(net)}
	b := &bench{w: w, rt: rt}
	if traced {
		b.metrics = replobj.NewMetricsRegistry()
		b.spans = replobj.NewSpanCollector(spanRing)
		opts = append(opts, replobj.WithMetrics(b.metrics), replobj.WithSpans(b.spans))
	}
	b.cluster = replobj.NewCluster(rt, opts...)
	dep, err := w.deploy(b.cluster)
	if err != nil {
		b.tearDown()
		return nil, fmt.Errorf("deploy %s: %w", w.name, err)
	}
	b.dep = dep
	for _, h := range dep.groups {
		for _, node := range h.g.Members() {
			net.Register(node, loopback)
		}
	}
	dep.start()
	newClient := func(name string) *replobj.Client {
		net.Register(wire.ClientID(name), loopback)
		return b.cluster.NewClient(name, replobj.WithInvocationTimeout(invokeTimeout))
	}
	for i := 0; i < clients; i++ {
		cl := newClient(fmt.Sprintf("c%d", i))
		b.scripts = append(b.scripts, w.newScript(seed, i, clients, dep))
		if dep.object != "" {
			router := cl.Router(dep.object)
			b.invokers = append(b.invokers, func(r request) ([]byte, error) {
				return router.Invoke(r.method, r.args, replobj.WithShardKey(r.shardKey))
			})
		} else {
			group := dep.data[0].id
			b.invokers = append(b.invokers, func(r request) ([]byte, error) {
				return cl.Invoke(group, r.method, r.args)
			})
		}
	}
	b.verifier = newClient("verify")

	if w.preload != nil {
		if err := w.preload(dep, b.invokers[0]); err != nil {
			b.tearDown()
			return nil, fmt.Errorf("preload %s: %w", w.name, err)
		}
	}
	warm := b.drive(func(_ time.Duration, done int) bool { return done < warmup }, nil, 0)
	if warm.err != nil {
		b.tearDown()
		return nil, fmt.Errorf("warm-up %s: %w", w.name, warm.err)
	}
	return b, nil
}

func (b *bench) tearDown() {
	b.cluster.Close()
	b.rt.Stop()
}

// sample is one successful invocation: completion time since the phase
// started and latency. 8 bytes each, so recording does not grow the
// process.
type sample struct {
	endUs uint32
	durNs uint32
}

// driven is what one closed-loop drive of all clients saw.
type driven struct {
	wall      time.Duration
	samples   [][]sample // per client
	attempted int
	failed    int
	err       error // first invoke failure or model violation
	incorrect bool  // a reply contradicted the client-side model
}

func (d *driven) ops() int { return d.attempted - d.failed }

// add folds the next stretch of the same clients into d; its sample buffers
// continue d's.
func (d *driven) add(next driven) {
	d.wall += next.wall
	d.samples = next.samples
	d.attempted += next.attempted
	d.failed += next.failed
	d.incorrect = d.incorrect || next.incorrect
	if d.err == nil {
		d.err = next.err
	}
}

// drive runs every client closed-loop — the next request leaves when the
// previous reply arrived — while more(elapsed, done) holds for that client.
// bufs, when non-nil, are preallocated per-client sample buffers that drive
// appends to, stamping completions offset after the phase's start.
func (b *bench) drive(more func(elapsed time.Duration, done int) bool, bufs [][]sample, offset time.Duration) driven {
	var (
		mu  sync.Mutex
		out = driven{samples: make([][]sample, len(b.invokers))}
		wg  sync.WaitGroup
	)
	start := time.Now()
	for i := range b.invokers {
		wg.Add(1)
		// Invoke parks on the runtime, so clients run on its goroutines.
		b.rt.Go(fmt.Sprintf("bench-client-%d", i), func() {
			defer wg.Done()
			invoke, sc := b.invokers[i], b.scripts[i]
			var buf []sample
			if bufs != nil {
				buf = bufs[i]
			}
			attempted, failed := 0, 0
			var firstErr error
			incorrect := false
			for more(time.Since(start), attempted) {
				req := sc.next()
				t0 := time.Now()
				reply, err := invoke(req)
				t1 := time.Now()
				attempted++
				if err != nil {
					failed++
					if firstErr == nil {
						firstErr = fmt.Errorf("client %d %s: %w", i, req.method, err)
					}
					continue
				}
				if err := sc.applied(req, reply); err != nil {
					incorrect = true
					if firstErr == nil {
						firstErr = fmt.Errorf("client %d: %w", i, err)
					}
				}
				if bufs != nil {
					buf = append(buf, sample{
						endUs: uint32(min((offset + t1.Sub(start)).Microseconds(), math.MaxUint32)),
						durNs: uint32(min(t1.Sub(t0).Nanoseconds(), math.MaxUint32)),
					})
				}
			}
			mu.Lock()
			out.samples[i] = buf
			out.attempted += attempted
			out.failed += failed
			out.incorrect = out.incorrect || incorrect
			if out.err == nil {
				out.err = firstErr
			}
			mu.Unlock()
		})
	}
	wg.Wait()
	out.wall = time.Since(start)
	return out
}

// phase is one measured closed-loop phase with its process-level deltas.
type phase struct {
	driven
	length     time.Duration // measured length asked for
	startRT    time.Duration // runtime clock at phase start (span timestamps)
	mallocs    uint64
	allocBytes uint64
	gcCycles   uint32
	gcPause    time.Duration
	cpu        time.Duration
	refRate    float64 // mean reference-load rate around the stretches, round trips/s (scaled phases)
	stealPct   float64 // share of the machine's CPU time the hypervisor took away
	spinBefore float64
	spinAfter  float64
	goroutines int // peak, sampled
	peakRSSMiB float64
}

// sampleCap sizes the per-client sample buffer: room for more invocations
// per second than loopback TCP can carry, allocated before the phase so the
// buffer never shows up in the phase's allocation counts.
const sampleCap = 60_000

// phaseSegments is how many stretches a scaled phase is cut into: the
// reference load runs before, between and after them, so the machine speed
// the metrics are scaled by is sampled across the phase, not only at its
// ends. Segments are whole windows long.
const phaseSegments = 4

// measure runs a measured phase: canary, GC, length of closed loop, canary.
// A scaled phase is cut into phaseSegments stretches bracketed by the
// reference load; everything the phase counts (allocations, CPU, samples) is
// taken over the stretches only. tick, when non-nil, is called every 20 ms
// while the clients run (traced runs sample gauges with it).
func (b *bench) measure(length time.Duration, tick func(), scaled bool) (phase, error) {
	segments := 1
	if scaled && length >= phaseSegments*time.Second {
		segments = phaseSegments
	}
	segment := length / time.Duration(segments)
	bufs := make([][]sample, len(b.invokers))
	for i := range bufs {
		bufs[i] = make([]sample, 0, int(sampleCap*length.Seconds())+1)
	}
	p := phase{length: length}
	var refSum float64
	reference := func() error {
		if !scaled {
			return nil
		}
		rate, err := machineRate(min(refSlice, segment), len(b.invokers))
		refSum += rate
		return err
	}
	if err := reference(); err != nil {
		return p, err
	}
	p.spinBefore = spinMillis()
	runtime.GC()

	var driving atomic.Bool
	stop := make(chan struct{})
	var sampler sync.WaitGroup
	sampler.Add(1)
	go func() {
		defer sampler.Done()
		t := time.NewTicker(20 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-stop:
				return
			case <-t.C:
				if driving.Load() {
					p.goroutines = max(p.goroutines, runtime.NumGoroutine())
					if tick != nil {
						tick()
					}
				}
			}
		}
	}()

	p.startRT = b.rt.Now()
	var total, steal float64
	for seg := 0; seg < segments; seg++ {
		if seg > 0 {
			if err := reference(); err != nil {
				close(stop)
				sampler.Wait()
				return p, err
			}
		}
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		cpu0 := cpuTime()
		total0, steal0 := cpuJiffies()
		driving.Store(true)
		d := b.drive(func(elapsed time.Duration, _ int) bool { return elapsed < segment }, bufs, time.Duration(seg)*segment)
		driving.Store(false)
		p.cpu += cpuTime() - cpu0
		total1, steal1 := cpuJiffies()
		total, steal = total+total1-total0, steal+steal1-steal0
		runtime.ReadMemStats(&m1)
		p.mallocs += m1.Mallocs - m0.Mallocs
		p.allocBytes += m1.TotalAlloc - m0.TotalAlloc
		p.gcCycles += m1.NumGC - m0.NumGC
		p.gcPause += time.Duration(m1.PauseTotalNs - m0.PauseTotalNs)
		p.add(d)
		bufs = d.samples
	}
	close(stop)
	sampler.Wait()
	p.stealPct = 100 * ratio(steal, total)

	rss, err := peakRSSMiB()
	if err != nil {
		return p, err
	}
	p.peakRSSMiB = rss
	p.spinAfter = spinMillis()
	if err := reference(); err != nil {
		return p, err
	}
	p.refRate = refSum / float64(segments+1)
	return p, nil
}

// latencySummary is the client-observed timing of a phase.
type latencySummary struct {
	samples     int
	opsPerS     float64 // median over the phase's whole windows, per second
	opsPerSMean float64 // successful invocations / wall time
	p50us       float64
	slow5us     float64 // median over windows of the mean of the window's slowest 5 %
	p99us       float64
	p999us      float64
	maxus       float64
}

// summarize cuts the phase into one-second windows by completion time (one
// window when the phase is shorter, as in tests) and pools the latencies.
func summarize(p *phase) latencySummary {
	var s latencySummary
	window := min(time.Second, p.length)
	windows := make([][]float64, p.length/window)
	var all []float64
	for _, cs := range p.samples {
		for _, smp := range cs {
			us := float64(smp.durNs) / 1e3
			all = append(all, us)
			if w := int(int64(smp.endUs) / window.Microseconds()); w < len(windows) {
				windows[w] = append(windows[w], us)
			}
		}
	}
	s.samples = len(all)
	if s.samples == 0 {
		return s
	}
	s.opsPerSMean = float64(p.ops()) / p.wall.Seconds()
	sort.Float64s(all)
	s.p50us = quantile(all, 0.50)
	s.p99us = quantile(all, 0.99)
	s.p999us = quantile(all, 0.999)
	s.maxus = all[len(all)-1]
	var counts, slows []float64
	for _, w := range windows {
		counts = append(counts, float64(len(w))/window.Seconds())
		if len(w) > 0 {
			sort.Float64s(w)
			slows = append(slows, slowMean(w, slowShare))
		}
	}
	s.opsPerS = median(counts)
	s.slow5us = median(slows)
	return s
}

// gate is the correctness gate of a set-up cluster after its phases: final
// state read from every replica of every data group and compared across
// replicas and against the client-side models, and no schedule-trace
// divergence between any two replicas of any group.
func (b *bench) gate() error {
	var err error
	vtime.Run(b.rt, "bench-verify", func() {
		err = b.w.verify(b.dep, b.scripts, func(g replobj.GroupID, method string) (map[replobj.NodeID]replica.Reply, error) {
			return b.verifier.InvokeAll(g, method, nil)
		})
	})
	if err != nil {
		return fmt.Errorf("final state: %w", err)
	}
	for _, h := range b.dep.groups {
		for i := 0; i < replicasPerGroup; i++ {
			for j := i + 1; j < replicasPerGroup; j++ {
				if d := replobj.FirstTraceDivergence(h.g.Trace(i), h.g.Trace(j)); d != nil {
					return fmt.Errorf("schedule traces of %s ranks %d and %d diverge: %v", h.id, i, j, d)
				}
			}
		}
	}
	for _, h := range b.dep.data {
		if h.g.Trace(0) == nil {
			return fmt.Errorf("group %s records no schedule trace", h.id)
		}
	}
	return nil
}

// machineSpeed is how fast the machine ran around the phase, as a share of
// the nominal reference machine: wall-clock metrics are scaled by it.
func (p *phase) machineSpeed() float64 { return p.refRate / refNominal }

// phaseErr turns what a phase saw into the run's verdict.
func phaseErr(p *phase) error {
	if p.err != nil {
		return p.err
	}
	if p.ops() == 0 {
		return errors.New("no invocation completed")
	}
	return nil
}
