package schedtest

import (
	"testing"

	"github.com/replobj/replobj/internal/adets"
	"github.com/replobj/replobj/internal/adets/cc"
	"github.com/replobj/replobj/internal/adets/mat"
	"github.com/replobj/replobj/internal/adets/sat"
	"github.com/replobj/replobj/internal/adets/seq"
	"github.com/replobj/replobj/internal/obs"
	"github.com/replobj/replobj/internal/vtime"
	"github.com/replobj/replobj/internal/wire"
)

// submitKinds are the scheduler kinds the wall-clock benchmark's cells run,
// and SAT, the other strategy with a record per request.
var submitKinds = []struct {
	name string
	mk   func() adets.Scheduler
}{
	{"SEQ", func() adets.Scheduler { return seq.New() }},
	{"MAT", func() adets.Scheduler { return mat.New() }},
	{"SAT", func() adets.Scheduler { return sat.New() }},
	{"CC", func() adets.Scheduler { return cc.New() }},
}

// submitter starts one scheduler alone on the real clock, schedule trace
// on, and returns a function that hands it one single-class request and
// returns once the request's Exec has begun — the scheduler layer's
// per-request cost, and for MAT and CC the life of one scheduler thread.
func submitter(tb testing.TB, mk func() adets.Scheduler) (submit func()) {
	rt := vtime.Real()
	s := mk()
	self := wire.ReplicaID("g", 0)
	s.Start(adets.Env{RT: rt, Self: self, Peers: []wire.NodeID{self},
		SendPeer: func(wire.NodeID, any) {}, BroadcastOrdered: func(string, any) {},
		Obs: adets.NewSchedObs(nil, obs.NewTrace(0), s.Name(), string(self))})
	tb.Cleanup(func() { s.Stop(); rt.Stop() })
	started := make(chan struct{})
	exec := func(*adets.Thread) { started <- struct{}{} }
	classes := []string{"k"}
	req := adets.Request{ID: wire.InvocationID{Logical: "c0"}, Logical: "c0", Classes: classes, Exec: exec}
	return func() {
		req.ID.Seq++
		req.Seq++
		s.Submit(req)
		<-started
	}
}

// BenchmarkSchedulerSubmit is the scheduler layer's microbench: Submit to
// the start of Exec, one request at a time.
func BenchmarkSchedulerSubmit(b *testing.B) {
	for _, k := range submitKinds {
		b.Run(k.name, func(b *testing.B) {
			submit := submitter(b, k.mk)
			for i := 0; i < 200; i++ {
				submit()
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				submit()
			}
		})
	}
}
