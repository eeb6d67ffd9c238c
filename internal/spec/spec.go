// Package spec implements the bookkeeping for speculative execution on
// optimistic delivery: replicas begin executing a request against a private
// copy of the object state as soon as the Submit arrives, before the
// sequencer assigns it a position. When the total order later confirms the
// request, the precomputed reply is released immediately if the speculation
// is still valid — i.e. no conflicting request was dispatched between the
// position the copy reflected and the confirmed position — and discarded
// (the ordered execution alone answers) otherwise.
//
// The private copies are a small pool of long-lived forks. A fork is
// restored from a snapshot image of the primary state once and then follows
// the total order through its own work: every run the order confirms (a
// speculation that hit, or the re-execution of a request that was dispatched
// without one) leaves the run's conflict classes on the fork exactly as the
// primary has them after that position. Validity is therefore tracked per
// fork and per class, with the same rule that judges a speculation at
// confirm time — no conflicting dispatch after the version the fork holds —
// applied when a fork is picked, and the image is snapshotted again only
// when neither a fork nor the cached image is current for the classes at
// hand — and only within a budget of bytes copied per ordered request (see
// copyPerDispatch), so that a large state under frequent conflicts costs
// some speculations rather than a copy of itself per conflict.
//
// The Manager holds per-replica speculation state: the fork pool, the cached
// image, per-conflict-class dispatch floors and the in-flight speculation
// records. It performs no locking of its own — every method must be called
// under the replica's runtime lock (vtime.Runtime), matching how the rest of
// the replica's bookkeeping is guarded; only the snapshot Speculate is handed
// may release the lock while it runs.
//
// Correctness does not depend on speculation: a run only ever touches its
// fork, never the primary state, so an abort costs at most a fork. The
// validation here is deliberately conservative (a stale fork is never
// declared a hit), which keeps committed trace digests and replica state
// bit-identical to a non-speculative run. What a fork carries forward is
// only as good as the handlers' contract, though: a handler that reads or
// writes outside its declared classes, or is not a pure function of
// (state, args), leaves a fork that disagrees with the primary — the
// caller detects the resulting wrong reply and must DropForks.
package spec

import (
	"math"
	"slices"
)

// Record tracks one in-flight speculative execution.
type Record struct {
	// Base is the stream position the fork image was taken at: every
	// dispatch at or below Base is reflected in the forked state.
	Base uint64
	// Classes are the request's declared conflict classes (empty = global).
	Classes []string
	// Done marks the speculative handler as finished with Reply valid.
	Done bool
	// Aborted marks the speculation as poisoned (handler used a facility
	// that cannot run speculatively, e.g. locks or nested invocations).
	Aborted bool
	// Confirmed marks the total order as having validated this speculation
	// while the handler was still running: its validity verdict is frozen
	// (later dispatches are ordered after this request and cannot conflict
	// retroactively) and Finish releases the reply the moment it lands.
	Confirmed bool
	// Released marks the reply as already sent to the client — at confirm
	// time (Hit) or at Finish after a Pending confirm; the ordered
	// execution then suppresses its own duplicate send.
	Released bool
	// Reply is the precomputed reply (opaque to this package).
	Reply any

	// fork is the fork the speculation runs on (nil for a bare Begin) and
	// gen its generation at that time; seq is the confirmed position. A
	// confirmed speculation carries its fork to seq unless the fork has been
	// restored since.
	fork *Fork
	gen  uint64
	seq  uint64
	// serial orders records by age for eviction at the cap.
	serial uint64
}

// Outcome classifies a confirmation.
type Outcome int

// Confirmation outcomes.
const (
	// Miss: no speculation record exists for the request (it was never
	// started, or the map was reset by a snapshot install).
	Miss Outcome = iota
	// Hit: the speculation finished and its fork base is at or above every
	// conflicting dispatch — the precomputed reply equals what the ordered
	// execution will compute. Pinned by benchmark/probes.go.
	Hit
	// Stale: a conflicting request was dispatched after the fork base; the
	// precomputed reply may be wrong and must be discarded.
	Stale
	// Aborted: the speculative handler bailed out (unsupported facility).
	Aborted
	// Pending: the speculation is valid but the handler is still running —
	// the reply is released by Finish when it lands (deferred hit), unless
	// the ordered execution completes first (see Resolve).
	Pending
)

func (o Outcome) String() string {
	switch o {
	case Hit:
		return "hit"
	case Stale:
		return "stale"
	case Aborted:
		return "abort"
	case Pending:
		return "pending"
	default:
		return "miss"
	}
}

// maxRecords caps in-flight speculations; beyond it Begin declines, which
// only costs latency, never correctness.
const maxRecords = 1 << 12

// A fork restore copies the whole state — once to snapshot it, unless the
// cached image will do, and once into the fork — so the copying is rationed
// in bytes: every ordered dispatch earns copyPerDispatch, up to copyBurst, a
// restore spends the bytes it copies, and while the balance is negative a
// request that no fork serves goes unspeculated. What speculation copies is
// then bounded by the request rate and not by the conflict rate times the
// size of the state (a state of a few KiB never meets the bound).
const (
	copyPerDispatch = 16 << 10
	copyBurst       = 4 << 20
)

// maxForks caps the fork pool. The pool grows only while every fork is
// busy, so it settles at the number of runs the replica really overlaps.
const maxForks = 4

// Image is a serialized snapshot of the primary state, taken at stream
// position Seq with no executions in flight.
type Image struct {
	Data []byte
	Seq  uint64
}

// Fork is one long-lived private copy of the object state. While a run
// holds it (from Speculate or BindCatchUp until Release or CaughtUp) the
// run owns State; everything else belongs to the Manager.
type Fork struct {
	// State is the instance handlers run against, set by the caller after
	// restoring it from the Image that Speculate returned.
	State any

	// base is the stream position the restored image reflected; ver holds
	// the classes that confirmed runs have since carried further. A class
	// at version v is, on this fork, what the primary holds once every
	// dispatch up to v has executed.
	base uint64
	ver  map[string]uint64
	// dirty holds the classes written by a run the order has not confirmed
	// (still open, or discarded); allDirty stands for every class, after a
	// classless run. Dirty classes stay unusable until the next restore.
	dirty    map[string]struct{}
	allDirty bool
	busy     bool
	// gen counts restores, so that the verdict on a run from before a
	// restore does not move the fork.
	gen uint64
}

func (f *Fork) version(class string) uint64 {
	if v, ok := f.ver[class]; ok {
		return v
	}
	return f.base
}

// serves reports whether a run on classes may use f: none of the classes
// is dirty and each is at a version in [floor, limit). A classless run
// touches everything, so it needs the whole fork clean and is judged by
// base, the lowest version on it.
func (f *Fork) serves(classes []string, floor, limit uint64) bool {
	if f.allDirty {
		return false
	}
	if len(classes) == 0 {
		return len(f.dirty) == 0 && f.base >= floor && f.base < limit
	}
	for _, c := range classes {
		if _, d := f.dirty[c]; d {
			return false
		}
		if v := f.version(c); v < floor || v >= limit {
			return false
		}
	}
	return true
}

// take hands f to a run on classes: busy, and the classes dirty until the
// order confirms the run.
func (f *Fork) take(classes []string) {
	f.busy = true
	if len(classes) == 0 {
		f.allDirty = true
		return
	}
	if f.dirty == nil {
		f.dirty = make(map[string]struct{})
	}
	for _, c := range classes {
		f.dirty[c] = struct{}{}
	}
}

// advance records that the run on classes was confirmed at seq: by the
// handlers' contract those classes now equal the primary's after seq.
func (f *Fork) advance(classes []string, seq uint64) {
	if len(classes) == 0 {
		f.base, f.allDirty = seq, false
		clear(f.ver)
		return
	}
	if f.ver == nil {
		f.ver = make(map[string]uint64)
	}
	for _, c := range classes {
		f.ver[c] = seq
		delete(f.dirty, c)
	}
}

// lowest returns the lowest version among classes on f.
func (f *Fork) lowest(classes []string) uint64 {
	if len(classes) == 0 {
		return f.base
	}
	low := f.version(classes[0])
	for _, c := range classes[1:] {
		if v := f.version(c); v < low {
			low = v
		}
	}
	return low
}

// Manager is a replica's speculation state. All methods must run under the
// replica's runtime lock; Manager does no locking of its own.
type Manager struct {
	// classFloor[c] is the highest stream position at which a request
	// declaring class c was dispatched to local execution.
	classFloor map[string]uint64
	// globalFloor is the highest position of a classless (global) dispatch,
	// which conflicts with every class.
	globalFloor uint64
	// maxFloor is the highest position of any dispatch; a classless
	// speculation conflicts with everything and validates against it.
	maxFloor uint64
	// lastSeq is the highest dispatched position — the position a snapshot
	// of the quiescent primary state reflects.
	lastSeq uint64

	// image is the cached snapshot forks are restored from (nil = none).
	image *Image
	forks []*Fork
	// copyBudget is the balance of bytes restores may still copy.
	copyBudget int

	records map[string]*Record
	serial  uint64
}

// NewManager returns an empty speculation manager.
//
// Pinned by benchmark/probes.go (DESIGN.md "Pinned by the ruler"), with
// SetImage, Begin, Finish, Confirm, Resolve and Hit.
func NewManager() *Manager {
	return &Manager{
		copyBudget: copyBurst,
		classFloor: make(map[string]uint64),
		records:    make(map[string]*Record),
	}
}

// TrackDispatch records that a fresh request with the given conflict
// classes was dispatched to local execution at stream position seq. Every
// later speculation whose classes intersect must run on a fork that holds
// them at seq or above to be valid.
func (m *Manager) TrackDispatch(seq uint64, classes []string) {
	if seq > m.maxFloor {
		m.maxFloor = seq
	}
	if seq > m.lastSeq {
		m.lastSeq = seq
	}
	m.copyBudget = min(m.copyBudget+copyPerDispatch, copyBurst)
	if len(classes) == 0 {
		if seq > m.globalFloor {
			m.globalFloor = seq
		}
		return
	}
	for _, c := range classes {
		if seq > m.classFloor[c] {
			m.classFloor[c] = seq
		}
	}
}

// SetImage installs a fresh image snapshotted at stream position seq, and
// charges the copy it took to the budget. The bool is ignored.
// Pinned by benchmark/probes.go.
func (m *Manager) SetImage(data []byte, _ bool, seq uint64) {
	m.image = &Image{Data: data, Seq: seq}
	m.copyBudget -= len(data)
}

// Begin opens a speculation record for id, for a run on a copy of the
// state as of base. It declines (returns false) when a record already
// exists, or when too many are in flight and none can be evicted (only
// unconfirmed records — speculations whose request was never ordered, e.g.
// a submit lost before the sequencer — are evictable).
// Pinned by benchmark/probes.go.
func (m *Manager) Begin(id string, base uint64, classes []string) bool {
	if !m.admit(id) {
		return false
	}
	m.open(id, base, classes)
	return true
}

// admit reports whether a record for id may be opened, evicting at the cap.
func (m *Manager) admit(id string) bool {
	if _, dup := m.records[id]; dup {
		return false
	}
	return len(m.records) < maxRecords || m.evictOldest()
}

func (m *Manager) open(id string, base uint64, classes []string) *Record {
	m.serial++
	rec := &Record{Base: base, Classes: classes, serial: m.serial}
	m.records[id] = rec
	return rec
}

// evictOldest drops the oldest record that the total order has not yet
// touched. The scan is linear, but it runs only at the cap, which takes
// maxRecords submits that were never ordered.
func (m *Manager) evictOldest() bool {
	var oldest string
	var found *Record
	for id, rec := range m.records {
		if !rec.Confirmed && !rec.Released && (found == nil || rec.serial < found.serial) {
			oldest, found = id, rec
		}
	}
	if found == nil {
		return false
	}
	delete(m.records, oldest)
	return true
}

// Speculate picks the fork a speculation of request id on classes runs on,
// marks it busy and opens the record. A fork that already holds the classes
// clean and at their current version is reused as it stands. Failing that,
// an idle fork (or a new one, while all are busy and the pool is under its
// cap) is to be restored from an image that is current for the classes: the
// cached one, or a fresh one from snapshot, which the caller passes only
// while the primary state is quiescent. The snapshot may release the
// caller's lock while it copies the state, provided no dispatch is tracked
// meanwhile: the image is taken at the last dispatched position and the fork
// picked after it is in. restore is then that image and the caller must set
// f.State from it before running — or Discard(f) if it cannot. f is nil when
// the speculation cannot start: a duplicate id, the record cap, every fork
// busy, the copy budget overdrawn, or a stale image with the state in motion
// — running then would only produce a certain Stale.
func (m *Manager) Speculate(id string, classes []string, snapshot func() ([]byte, error)) (f *Fork, restore *Image) {
	if !m.admit(id) {
		return nil, nil
	}
	floor := m.Floor(classes)
	if f = m.bind(classes, floor, math.MaxUint64); f == nil {
		if m.copyBudget < 0 || m.spare() == nil {
			return nil, nil
		}
		if m.image == nil || m.image.Seq < floor {
			if snapshot == nil {
				return nil, nil
			}
			seq := m.lastSeq
			data, err := snapshot()
			if err != nil {
				return nil, nil
			}
			m.SetImage(data, false, seq)
		}
		// Other runs may have taken forks while the snapshot had the lock
		// released.
		if f = m.spare(); f == nil {
			return nil, nil
		}
		restore = m.image
		m.copyBudget -= len(restore.Data)
		if f.gen == 0 {
			m.forks = append(m.forks, f)
		}
		*f = Fork{base: restore.Seq, gen: f.gen + 1}
		f.take(classes)
	}
	rec := m.open(id, f.lowest(classes), classes)
	rec.fork, rec.gen = f, f.gen
	return f, restore
}

// bind hands out an idle fork that serves classes within [floor, limit).
func (m *Manager) bind(classes []string, floor, limit uint64) *Fork {
	for _, f := range m.forks {
		if !f.busy && f.serves(classes, floor, limit) {
			f.take(classes)
			return f
		}
	}
	return nil
}

// spare returns the fork to restore next: the idle one whose image is
// oldest, or a new one (gen 0, not yet in the pool) when all are busy and
// the pool is under its cap.
func (m *Manager) spare() *Fork {
	var idle *Fork
	for _, f := range m.forks {
		if !f.busy && (idle == nil || f.base < idle.base) {
			idle = f
		}
	}
	if idle == nil && len(m.forks) < maxForks {
		idle = &Fork{}
	}
	return idle
}

// Release returns f to the pool after a run. Whatever the run wrote stays
// dirty on f unless the order confirms (or has confirmed) it.
func (m *Manager) Release(f *Fork) { f.busy = false }

// Discard removes f from the pool: its State could not be restored.
func (m *Manager) Discard(f *Fork) {
	m.forks = slices.DeleteFunc(m.forks, func(g *Fork) bool { return g == f })
}

// DropForks empties the pool. Called when a released speculative reply
// turned out wrong: a handler broke the purity/class-confinement contract,
// so no fork can be trusted to mirror the primary any more. Runs still
// holding a fork finish on it and release it into the void.
func (m *Manager) DropForks() { m.forks = nil }

// CanCatchUp reports whether some fork — busy or not — held classes clean
// and current just before the dispatch at seq, floor being their floor as
// of then: re-running the request on it (see BindCatchUp) keeps those
// classes speculable.
func (m *Manager) CanCatchUp(classes []string, floor, seq uint64) bool {
	for _, f := range m.forks {
		if f.serves(classes, floor, seq) {
			return true
		}
	}
	return false
}

// BindCatchUp hands out an idle fork for re-running the request dispatched
// at seq on it, or nil: one that holds classes clean at a version in
// [floor, seq), i.e. exactly as the primary held them when the request was
// dispatched. The caller runs the request and reports CaughtUp, or Release
// if the run did not complete.
func (m *Manager) BindCatchUp(classes []string, floor, seq uint64) *Fork {
	return m.bind(classes, floor, seq)
}

// CaughtUp records that f re-ran the request dispatched at seq and returns
// it to the pool with classes at seq.
func (m *Manager) CaughtUp(f *Fork, classes []string, seq uint64) {
	f.advance(classes, seq)
	f.busy = false
}

// carry moves the fork of a speculation confirmed valid to the confirmed
// position, unless the fork has been restored since the speculation ran.
func (m *Manager) carry(rec *Record) {
	if f := rec.fork; f != nil && f.gen == rec.gen {
		f.advance(rec.Classes, rec.seq)
	}
}

// Finish stores the speculative reply for id. ok is false when the record
// is gone (already resolved) or aborted. release is true when the total
// order already confirmed this speculation as valid (a Pending confirm):
// the caller must send the reply now — the deferred-hit path — and the
// speculation's fork moves to the confirmed position.
// Pinned by benchmark/probes.go.
func (m *Manager) Finish(id string, reply any) (release, ok bool) {
	rec := m.records[id]
	if rec == nil || rec.Aborted {
		return false, false
	}
	rec.Done = true
	rec.Reply = reply
	if rec.Confirmed && !rec.Released {
		rec.Released = true
		m.carry(rec)
		return true, true
	}
	return false, true
}

// Abort poisons the speculation record for id (if any).
func (m *Manager) Abort(id string) {
	if rec := m.records[id]; rec != nil {
		rec.Aborted = true
	}
}

// Floor returns the highest dispatched position conflicting with the given
// class set.
func (m *Manager) Floor(classes []string) uint64 {
	if len(classes) == 0 {
		// Global request: conflicts with every prior dispatch.
		return m.maxFloor
	}
	floor := m.globalFloor
	for _, c := range classes {
		if f := m.classFloor[c]; f > floor {
			floor = f
		}
	}
	return floor
}

// Dispatch is the ordered dispatch of request id with the given conflict
// classes at stream position seq: Confirm against the floors as of the
// previous dispatch, then TrackDispatch — a request's own dispatch must not
// invalidate its own speculation. A speculation confirmed valid takes its
// fork along to seq: at once on Hit, from Finish on Pending.
func (m *Manager) Dispatch(id string, seq uint64, classes []string) (reply any, out Outcome) {
	reply, out, rec := m.confirm(id, classes)
	if rec != nil {
		rec.seq = seq
		if out == Hit {
			m.carry(rec)
		}
	}
	m.TrackDispatch(seq, classes)
	return reply, out
}

// Confirm is the verdict half of Dispatch: it resolves the speculation for
// id against the current floors. On Hit the returned reply must be sent
// immediately; on Pending the speculation is valid but still running
// (Finish releases it); on Stale/Aborted the speculation is discarded and
// the ordered execution alone produces the reply. Hit/Pending records
// survive until Resolve.
// Pinned by benchmark/probes.go.
func (m *Manager) Confirm(id string, classes []string) (reply any, out Outcome) {
	reply, out, _ = m.confirm(id, classes)
	return reply, out
}

// confirm also returns the record when the verdict is Hit or Pending.
func (m *Manager) confirm(id string, classes []string) (any, Outcome, *Record) {
	rec := m.records[id]
	if rec == nil {
		return nil, Miss, nil
	}
	switch {
	case rec.Aborted:
		delete(m.records, id)
		return nil, Aborted, nil
	case m.Floor(classes) > rec.Base:
		delete(m.records, id)
		return nil, Stale, nil
	case !rec.Done:
		// Valid but still running: freeze the verdict. Every later dispatch
		// is ordered after this request and cannot conflict retroactively.
		rec.Confirmed = true
		return nil, Pending, rec
	default:
		rec.Confirmed = true
		rec.Released = true
		return rec.Reply, Hit, rec
	}
}

// Resolve consumes the record at ordered-execution completion. released
// reports that the precomputed reply was (or is being) sent — the caller
// compares it against the authoritative reply and suppresses its own send
// on a match. late reports a confirmed-valid speculation that the ordered
// execution outran: no reply was released early.
// Pinned by benchmark/probes.go.
func (m *Manager) Resolve(id string) (reply any, released, late bool) {
	rec := m.records[id]
	if rec == nil {
		return nil, false, false
	}
	delete(m.records, id)
	if rec.Released {
		return rec.Reply, true, false
	}
	return nil, false, rec.Confirmed
}

// Pending returns the number of open speculation records (tests).
func (m *Manager) Pending() int { return len(m.records) }

// Reset drops every record and fork and the cached image, and raises all
// floors to seq. Called when a snapshot install rewrites the primary state
// wholesale: nothing forked before it can be valid afterwards.
func (m *Manager) Reset(seq uint64) {
	m.classFloor = make(map[string]uint64)
	m.globalFloor = seq
	m.maxFloor = seq
	if seq > m.lastSeq {
		m.lastSeq = seq
	}
	m.image = nil
	m.forks = nil
	m.records = make(map[string]*Record)
}
