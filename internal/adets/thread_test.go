package adets

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"github.com/replobj/replobj/internal/gcs"
	"github.com/replobj/replobj/internal/vtime"
	"github.com/replobj/replobj/internal/wire"
)

// TestQuickFIFOMatchesModel drives the FIFO with random operation sequences
// and compares against a plain-slice reference model.
func TestQuickFIFOMatchesModel(t *testing.T) {
	mk := func(id uint64) *Thread { return &Thread{ID: id} }
	f := func(seed int64, opsRaw []uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		var q FIFO
		var model []*Thread
		pool := make([]*Thread, 8)
		for i := range pool {
			pool[i] = mk(uint64(i))
		}
		for _, op := range opsRaw {
			switch op % 5 {
			case 0: // Push
				th := pool[rng.Intn(len(pool))]
				q.Push(th)
				model = append(model, th)
			case 1: // PushFront
				th := pool[rng.Intn(len(pool))]
				q.PushFront(th)
				model = append([]*Thread{th}, model...)
			case 2: // Pop
				got := q.Pop()
				if len(model) == 0 {
					if got != nil {
						return false
					}
				} else {
					want := model[0]
					model = model[1:]
					if got != want {
						return false
					}
				}
			case 3: // Remove
				th := pool[rng.Intn(len(pool))]
				got := q.Remove(th)
				found := false
				for i, x := range model {
					if x == th {
						model = append(model[:i], model[i+1:]...)
						found = true
						break
					}
				}
				if got != found {
					return false
				}
			case 4: // Peek + invariants
				got := q.Peek()
				if len(model) == 0 && got != nil {
					return false
				}
				if len(model) > 0 && got != model[0] {
					return false
				}
			}
			if q.Len() != len(model) {
				return false
			}
		}
		// Final drain must equal the model.
		for _, want := range model {
			if q.Pop() != want {
				return false
			}
		}
		return q.Pop() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestRegistryAssignsSequentialIDs(t *testing.T) {
	rt := vtime.Virtual()
	defer rt.Stop()
	r := NewRegistry(rt)
	rt.Lock()
	for i := uint64(0); i < 5; i++ {
		th := r.Init(new(Thread), "t", "l", nil)
		if th.ID != i {
			t.Errorf("thread %d got ID %d", i, th.ID)
		}
	}
	rt.Unlock()
}

func TestThreadString(t *testing.T) {
	rt := vtime.Virtual()
	defer rt.Stop()
	r := NewRegistry(rt)
	r.next = 3
	th := r.Init(new(Thread), "w", "cl1", nil)
	if s := th.String(); s != "thread{3 w/cl1}" {
		t.Errorf("String = %q", s)
	}
	if s := r.Init(new(Thread), "pool-worker", "", nil).String(); s != "thread{4 pool-worker}" {
		t.Errorf("String = %q", s)
	}
}

// TestParkedThreadIsReportedByRoleAndLogical: a thread's name is kept in two
// parts and never built on the request path, but the virtual kernel's
// deadlock report still lists a parked thread under role/logical.
func TestParkedThreadIsReportedByRoleAndLogical(t *testing.T) {
	rt := vtime.Virtual()
	defer rt.Stop()
	r := NewRegistry(rt)
	var rec struct {
		Thread
		state int
	}
	detected := make(chan vtime.DeadlockInfo, 1)
	rt.SetDeadlockHandler(func(info vtime.DeadlockInfo) bool {
		detected <- info
		rec.Unpark(rt)
		return true
	})
	vtime.Run(rt, "main", func() {
		rt.Lock()
		r.Init(&rec.Thread, "mat", "client/c1#7", &rec)
		rec.Park(rt) // nobody unparks it: the kernel reports, the handler resolves
		rt.Unlock()
	})
	if info := <-detected; len(info.Parked) != 1 || info.Parked[0] != "mat/client/c1#7" {
		t.Errorf("deadlock report lists %v, want [mat/client/c1#7]", info.Parked)
	}
}

// --- Reentrancy ---

// TestQuickReentrancyDepth: a random sequence of balanced lock/unlock
// nesting reaches the scheduler exactly on the 0→1 and 1→0 transitions.
func TestQuickReentrancyDepth(t *testing.T) {
	f := func(depthsRaw []uint8) bool {
		rt := vtime.Virtual()
		defer rt.Stop()
		sched := &countingSched{}
		re := NewReentrancy(rt, sched)
		th := &Thread{ID: 0, Logical: wire.LogicalID("l")}
		for _, raw := range depthsRaw {
			depth := int(raw%5) + 1
			for i := 0; i < depth; i++ {
				if err := re.Lock(th, "m"); err != nil {
					return false
				}
				if re.Depth(th, "m") != i+1 {
					return false
				}
			}
			if !re.Held(th, "m") {
				return false
			}
			for i := depth; i > 0; i-- {
				if err := re.Unlock(th, "m"); err != nil {
					return false
				}
			}
			if re.Held(th, "m") {
				return false
			}
			if re.Unlock(th, "m") != ErrNotHeld {
				return false
			}
		}
		// One scheduler-level lock+unlock per nesting group.
		return sched.locks == len(depthsRaw) && sched.unlocks == len(depthsRaw)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// countingSched is a minimal Scheduler stub for reentrancy tests.
type countingSched struct {
	locks   int
	unlocks int
}

func (c *countingSched) Name() string                  { return "stub" }
func (c *countingSched) Capabilities() Capabilities    { return Capabilities{} }
func (c *countingSched) Start(Env)                     {}
func (c *countingSched) Stop()                         {}
func (c *countingSched) Submit(Request)                {}
func (c *countingSched) Lock(*Thread, MutexID) error   { c.locks++; return nil }
func (c *countingSched) Unlock(*Thread, MutexID) error { c.unlocks++; return nil }
func (c *countingSched) Wait(*Thread, MutexID, CondID, time.Duration) (bool, error) {
	return false, nil
}
func (c *countingSched) Notify(*Thread, MutexID, CondID) error    { return nil }
func (c *countingSched) NotifyAll(*Thread, MutexID, CondID) error { return nil }
func (c *countingSched) ViewChanged(gcs.View)                     {}
func (c *countingSched) Quiesce(report func(bool))                { report(true) }
func (c *countingSched) Yield(*Thread)                            {}
func (c *countingSched) BeginNested(*Thread)                      {}
func (c *countingSched) EndNested(*Thread)                        {}
func (c *countingSched) HandleOrdered(string, any) bool           { return false }

func TestTable1FormatContainsPaperRows(t *testing.T) {
	out := FormatTable1(PaperTable1)
	for _, want := range []string{"SEQ", "Eternal", "ADETS-SAT", "ADETS-MAT", "LSA", "PDS",
		"implicit", "interception", "transformation", "manual", "MA (restr.)"} {
		if !strings.Contains(out, want) {
			t.Errorf("FormatTable1 missing %q:\n%s", want, out)
		}
	}
	if len(PaperTable1) != 7 {
		t.Errorf("PaperTable1 has %d rows, want 7", len(PaperTable1))
	}
}
