package bench

import (
	"encoding/binary"
	"fmt"
	"time"

	replobj "github.com/replobj/replobj"
	"github.com/replobj/replobj/internal/vtime"
)

// This file measures the memory-bounding effect of deterministic
// checkpoints: without them a replica retains the ordered message log (for
// NACK gap repair) up to its retention cap; with WithCheckpointEvery(n) it
// is truncated at stream-pure points and stays within a small multiple of
// n. The replies held for at-most-once replay are one per client in both
// cases.

// ckptRegister is a checkpointable counter state for the memory experiment
// (an explicit Snapshotter — the gob fallback cannot serialize unexported
// fields, and a silently skipped checkpoint would make the experiment
// measure nothing).
type ckptRegister struct{ v uint64 }

func (s *ckptRegister) Snapshot() ([]byte, error) {
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], s.v)
	return b[:], nil
}

func (s *ckptRegister) Restore(b []byte) error {
	s.v = binary.BigEndian.Uint64(b)
	return nil
}

var _ replobj.Snapshotter = (*ckptRegister)(nil)

// MemoryBounds reports the retained ordered-log length and the number of
// replies held for retransmission (worst rank) after a duplicate-free
// workload, as a function of the checkpoint interval; interval 0 is
// checkpointing off, where only the log is unbounded — a replica holds one
// reply per client either way.
func MemoryBounds(cfg Config) (Result, error) {
	res := Result{
		ID:     "memory",
		Title:  "Retained gcs log and held replies vs checkpoint interval",
		XLabel: "checkpoint interval (0 = off)",
		YLabel: "entries after run",
	}
	logS := Series{Label: "gcs-log"}
	cacheS := Series{Label: "replies-held"}
	for _, every := range []int{0, 8, 16, 32} {
		logLen, cacheLen, err := memoryRun(cfg, every)
		if err != nil {
			return res, fmt.Errorf("memory every=%d: %w", every, err)
		}
		logS.Points = append(logS.Points, Point{X: float64(every), Y: float64(logLen)})
		cacheS.Points = append(cacheS.Points, Point{X: float64(every), Y: float64(cacheLen)})
	}
	res.Series = append(res.Series, logS, cacheS)
	return res, nil
}

// memoryRun drives 2 clients × cfg.PerClient unique invocations against a
// checkpointing group and returns the worst retained log length and count of
// held replies across the replicas.
func memoryRun(cfg Config, every int) (logLen, cacheLen int, err error) {
	const clients = 2
	rt := vtime.Virtual()
	defer rt.Stop()
	c := replobj.NewCluster(rt, replobj.WithLatency(cfg.Latency))
	opts := []replobj.GroupOption{
		replobj.WithScheduler(replobj.ADSAT),
		replobj.WithState(func() any { return &ckptRegister{} }),
	}
	if every > 0 {
		opts = append(opts, replobj.WithCheckpointEvery(every))
	}
	g, gerr := c.NewGroup("mem", cfg.Replicas, opts...)
	if gerr != nil {
		return 0, 0, gerr
	}
	g.Register("add", func(inv *replobj.Invocation) ([]byte, error) {
		st := inv.State().(*ckptRegister)
		if err := inv.Lock("state"); err != nil {
			return nil, err
		}
		defer func() { _ = inv.Unlock("state") }()
		st.v++
		return nil, nil
	})
	g.Start()
	var firstErr error
	vtime.Run(rt, "bench-mem", func() {
		defer c.Close()
		done := vtime.NewMailbox[error](rt, "mem-done")
		for i := 0; i < clients; i++ {
			i := i
			rt.Go(fmt.Sprintf("mem-client-%d", i), func() {
				cl := c.NewClient(fmt.Sprintf("mc%d", i),
					replobj.WithReplyPolicy(cfg.Policy),
					replobj.WithInvocationTimeout(5*time.Minute))
				var err error
				for k := 0; k < cfg.PerClient && err == nil; k++ {
					_, err = cl.Invoke("mem", "add", nil)
				}
				done.Put(err)
			})
		}
		for i := 0; i < clients; i++ {
			if err, _ := done.Get(); err != nil && firstErr == nil {
				firstErr = err
			}
		}
		rt.Sleep(100 * time.Millisecond)
		for rank := 0; rank < cfg.Replicas; rank++ {
			r := g.Replica(rank)
			if n := r.Member().LogLen(); n > logLen {
				logLen = n
			}
			if n := r.CacheSize(); n > cacheLen {
				cacheLen = n
			}
		}
	})
	return logLen, cacheLen, firstErr
}
