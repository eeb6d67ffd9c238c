package replica

import (
	"time"

	"github.com/replobj/replobj/internal/adets"
	"github.com/replobj/replobj/internal/gcs"
	"github.com/replobj/replobj/internal/obs/tracing"
	"github.com/replobj/replobj/internal/spec"
)

// Speculative execution on optimistic delivery.
//
// Clients send a Submit to the members of a speculating group (a
// direct-copy group, see Directory) whose replies they wait for — the
// contact and the next need − 1 members (Request.Copies) — so each of those
// followers sees a request the moment it arrives, long before the
// sequencer's Ordered reaches it. (The member that orders the request on
// arrival delivers it at once and does not speculate; a member the client
// sent no copy learns the request from the Ordered and does not either.)
// With Config.Speculative set, the replica uses that window: it executes
// the request immediately against a private fork of the object
// state, and when the total order confirms the request it releases the
// precomputed reply at once if no conflicting request was dispatched in
// between (a hit). The ordered execution still runs unchanged on every
// replica — it is what mutates the primary state, feeds the schedule-trace
// digests, and populates the reply cache — so committed state, traces and
// at-most-once behaviour are bit-identical to a non-speculative run; a
// speculation only ever touches a fork. What speculation changes is purely
// when the client's reply leaves the replica.
//
// Forks are few and long-lived (see package spec): restoring one costs a
// copy of the whole state, so a fork is restored from a snapshot image once
// and from then on follows the total order through its own work. A
// speculation the order confirms leaves its conflict classes on the fork
// exactly as the primary will have them; a request dispatched without a
// valid speculation (it arrived late, went stale, aborted) is re-run on a
// fork that held its classes current — a catch-up, its reply discarded — so
// the next request of those classes finds a fork to run on. Only when no
// fork and no cached image is current for a request's classes is the state
// snapshotted again, and only while it is quiescent (see the gate below).
//
// Validity is judged with conflict classes (the same classes ADETS-CC
// schedules by): a run on a fork that holds the request's classes at stream
// position v is valid iff no request whose classes intersect was dispatched
// after v. A handler must therefore confine its reads and writes to its
// declared classes and be a pure function of (state, args) — and because a
// fork carries confirmed writes forward from one request to the next, a
// handler that strays outside its classes corrupts the fork for every later
// request, not just its own reply. A released reply that differs from the
// ordered one is the evidence: the mismatch counter surfaces it and every
// fork is discarded.
//
// A speculation whose handler is still running when the order confirms it
// is not discarded: its validity verdict is frozen (later dispatches are
// ordered after it and cannot conflict retroactively) and the reply is
// released the moment the handler finishes — the deferred hit that keeps
// speculation profitable when execution time exceeds the ordering delay.

// errSpecAbort is the sentinel a speculative invocation panics with when
// the handler uses a facility that cannot run against a private fork
// (condition variables, nested invocations). runSpeculation recovers it
// and poisons the record; the ordered execution runs the request normally.
type specAbort struct{}

// onOptimisticSubmit fires (outside the runtime lock) for every fresh
// Submit arriving at this member, before the total order positions it.
// It feeds the conflict classes to an early-scheduling-capable scheduler
// and starts a speculative execution.
func (r *Replica) onOptimisticSubmit(sub gcs.Submit) {
	req, ok := sub.Payload.(Request)
	if !ok || req.Kind != KindClient {
		return
	}
	classes := r.conflictClasses(&req)
	// Early scheduling: the class→lane plan is computed (and cached) now,
	// so the ordered Submit finds it ready.
	if es, ok := r.sched.(adets.EarlyScheduler); ok {
		es.EarlySubmit(req.ID, classes)
	}
	if h, ok := r.handlers[req.Method]; ok {
		id := req.ID.String()
		r.rt.Go("spec", func() { r.runSpeculation(id, req, h, classes) })
	}
}

// The image gate. A speculation that finds neither a fork nor the cached
// image current for its classes snapshots the primary state — a copy of all
// of it, too long to hold the runtime lock for, which every replica of the
// process shares. It copies with the lock released and imaging set, and only
// while the state is quiescent: no request thread live and the dispatch
// goroutine outside the gate. The dispatch goroutine makes every other
// off-lock access to the state — it hands requests to their threads,
// checkpoints and installs snapshots — and waits at the gate before each.
// gateBusy marks it inside for the accesses it makes itself; a request it
// hands over needs no mark, its thread being live from the lock hold that
// waited.

// waitImageLocked parks the dispatch goroutine while an image is being taken.
func (r *Replica) waitImageLocked() {
	for r.imaging {
		r.rt.Park(&r.gate)
	}
}

// enterGateLocked takes the dispatch goroutine into the gate; leaveGate lets
// it out.
func (r *Replica) enterGateLocked() {
	r.waitImageLocked()
	r.gateBusy = true
}

func (r *Replica) leaveGate() {
	r.rt.Lock()
	r.gateBusy = false
	r.rt.Unlock()
}

// imageOffLock is the snapshot a quiescent replica offers Speculate, which
// calls it under the runtime lock: it copies the state with the lock
// released, imaging keeping the dispatch goroutine at the gate.
func (r *Replica) imageOffLock() ([]byte, error) {
	r.imaging = true
	r.rt.Unlock()
	data, err := r.snapshotState()
	r.rt.Lock()
	r.imaging = false
	r.rt.Unpark(&r.gate)
	return data, err
}

// restoreFork gives f a fresh state instance restored from img.
func (r *Replica) restoreFork(f *spec.Fork, img *spec.Image) error {
	f.State = r.stateFactory()
	if s, ok := f.State.(Snapshotter); ok {
		return s.Restore(img.Data)
	}
	return nil
}

// runOnFork executes req's handler against fork, entirely outside the
// scheduler: the caller holds the fork, so locks degenerate to no-ops and no
// deterministic decision is ever taken (nothing here reaches the trace
// streams). ok is false when the handler used a facility that cannot run
// against a fork.
func (r *Replica) runOnFork(req Request, h Handler, fork *spec.Fork) (reply Reply, ok bool) {
	defer func() {
		if p := recover(); p != nil {
			if _, abort := p.(specAbort); !abort {
				panic(p)
			}
			ok = false
		}
	}()
	result, herr := h(&Invocation{r: r, req: req, speculative: true, fork: fork.State})
	reply = Reply{ID: req.ID, From: r.self, Result: result}
	if herr != nil {
		reply.Err = herr.Error()
	}
	return reply, true
}

// runSpeculation is the body of a speculation's goroutine. The fork is
// picked here, when the handler is about to run, not when the submit
// arrived: a fork is then held for the length of the handler instead of
// also for the goroutine's scheduling delay. On completion the reply is
// stored for the confirm path — or sent directly when the total order
// already confirmed the speculation as valid (deferred hit).
func (r *Replica) runSpeculation(id string, req Request, h Handler, classes []string) {
	r.rt.Lock()
	if r.stopped {
		r.rt.Unlock()
		return
	}
	if verdict, _ := r.classifyLocked(req.ref()); verdict != amoFresh {
		// Already ordered and dispatched (or superseded: it never will be):
		// speculating now cannot beat it.
		r.rt.Unlock()
		return
	}
	// The state may be snapshotted only while quiescent: no dispatched
	// request is between submission and completed execution, and the
	// dispatch goroutine is outside the gate, so the primary state is exactly
	// the ordered prefix up to the last dispatch and stays so (see the gate).
	var snapshot func() ([]byte, error)
	if len(r.threads) == 0 && !r.gateBusy && !r.imaging {
		snapshot = r.imageOffLock
	}
	fork, img := r.specMgr.Speculate(id, classes, snapshot)
	r.rt.Unlock()
	if fork == nil {
		// The ordered execution alone serves this request.
		r.specSkipped.Inc()
		return
	}
	r.specAttempts.Inc()
	if img == nil {
		r.specForkReuses.Inc()
	} else {
		r.specRefreshes.Inc()
		if err := r.restoreFork(fork, img); err != nil {
			r.rt.Lock()
			r.specMgr.Abort(id)
			r.specMgr.Discard(fork)
			r.rt.Unlock()
			return
		}
	}
	traced := r.spans != nil && req.Trace.Valid()
	var tStart time.Duration
	if traced {
		tStart = r.rt.Now()
	}
	reply, ok := r.runOnFork(req, h, fork)
	if traced {
		// A released speculative reply links back to this span exactly as an
		// ordered reply links to its exec span. (Speculation is off on shard
		// groups, so the span carries no shard label.)
		reply.Trace = tracing.Context{TraceID: req.Trace.TraceID, Span: r.recordSpan(&req, "spec", 0, tStart)}
	}
	r.rt.Lock()
	release := false
	if ok {
		release, _ = r.specMgr.Finish(id, reply)
	} else {
		r.specMgr.Abort(id)
	}
	r.specMgr.Release(fork)
	stopped := r.stopped
	r.rt.Unlock()
	if release && !stopped {
		// Deferred hit: the order confirmed this speculation while the
		// handler was still running; release the reply now.
		r.specHits.Inc()
		r.sendReply(req, reply)
	}
}

// runCatchUp re-runs a request that was dispatched without a valid
// speculation on a fork that held its classes as the primary did at that
// point (see specAction), so that the fork keeps following the order. The
// reply is discarded: the ordered execution answers.
func (r *Replica) runCatchUp(req Request, h Handler, act specAction) {
	r.rt.Lock()
	var fork *spec.Fork
	if !r.stopped {
		fork = r.specMgr.BindCatchUp(act.classes, act.floor, act.seq)
	}
	r.rt.Unlock()
	if fork == nil {
		return
	}
	r.specCatchUps.Inc()
	_, ok := r.runOnFork(req, h, fork)
	r.rt.Lock()
	if ok {
		r.specMgr.CaughtUp(fork, act.classes, act.seq)
	} else {
		r.specMgr.Release(fork)
	}
	r.rt.Unlock()
}

// specAction is what the ordered dispatch of a request owes speculation
// once the runtime lock is released. The zero value owes nothing.
type specAction struct {
	reply Reply
	send  bool // hit: release the precomputed reply now
	abort bool // stale or poisoned: count it
	// catchUp: no valid speculation, but a fork held classes current up to
	// floor, their floor before the dispatch at seq — re-run the request
	// there.
	catchUp    bool
	classes    []string
	floor, seq uint64
}

// specDispatchLocked resolves a request against the speculation state at
// its totally ordered dispatch point and raises the floors with it. Called
// under the runtime lock; the returned action is performed by
// specDispatchFinish after unlocking.
func (r *Replica) specDispatchLocked(req *Request, seq uint64, classes []string) specAction {
	act := specAction{classes: classes, floor: r.specMgr.Floor(classes), seq: seq}
	out := spec.Miss
	if req.Kind == KindClient {
		var rep any
		rep, out = r.specMgr.Dispatch(req.ID.String(), seq, classes)
		act.reply, act.send = rep.(Reply)
	} else {
		// Never speculated, but it moves the state all the same.
		r.specMgr.TrackDispatch(seq, classes)
	}
	switch out {
	case spec.Stale, spec.Aborted:
		act.abort = true
		fallthrough
	case spec.Miss:
		// A client sends its later requests where it sent this one: a member
		// it sent no copy of its own speculates on none of them, and a
		// catch-up would keep a fork current for no reply.
		act.catchUp = req.CopiedTo(r.rank) && r.specMgr.CanCatchUp(classes, act.floor, seq)
	case spec.Hit, spec.Pending:
		// Pending: the running handler releases the reply on finish (or the
		// ordered execution outruns it — counted there).
	}
	return act
}

// specDispatchFinish performs the side effects of a dispatch outcome
// outside the runtime lock.
func (r *Replica) specDispatchFinish(req *Request, act specAction) {
	if act.abort {
		r.specAborts.Inc()
	}
	if act.send {
		r.specHits.Inc()
		r.sendReply(*req, act.reply)
	}
	if act.catchUp {
		r.startCatchUp(*req, act)
	}
}

// startCatchUp is a function of its own so that only dispatches that do
// catch up pay for moving req and act to the heap for the goroutine. The
// goroutine gets a copy of the request: the one the dispatch read from is
// gone by the time it runs (see dispatched).
func (r *Replica) startCatchUp(req Request, act specAction) {
	if h, ok := r.handlers[req.Method]; ok {
		r.rt.Go("spec-catchup", func() { r.runCatchUp(req, h, act) })
	}
}
