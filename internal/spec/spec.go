// Package spec is the record table of a speculation that the replica no
// longer runs: one record per request, opened with the stream position the
// request's run reflected, given its reply when the run finished, and judged
// against per-conflict-class dispatch floors when the total order confirmed
// the request — valid (Hit, or Pending while still running) if no request
// whose classes intersect was dispatched after that position, Stale
// otherwise.
//
// Speculation is gone from the replica: every request runs once, at its
// total-order position. The table is kept only because the frozen
// benchmark's probe compiles against it and measures one record's life
// (spec.manager_cycle_ns); see DESIGN.md "Pinned by the ruler". Nothing
// outside tests and that probe calls it.
//
// The Manager does no locking of its own.
package spec

// Record tracks one in-flight speculation.
type Record struct {
	// Base is the stream position the run's state reflected: every dispatch
	// at or below Base is reflected in it.
	Base uint64
	// Classes are the request's declared conflict classes (empty = global).
	Classes []string
	// Done marks the run as finished with Reply valid.
	Done bool
	// Aborted marks the run as poisoned (it used a facility that cannot
	// run off the scheduler).
	Aborted bool
	// Confirmed marks the total order as having validated this record while
	// the run was still going: its verdict is frozen (later dispatches are
	// ordered after this request and cannot conflict retroactively) and
	// Finish releases the reply the moment it lands.
	Confirmed bool
	// Released marks the reply as already released — at confirm time (Hit)
	// or at Finish after a Pending confirm.
	Released bool
	// Reply is the precomputed reply (opaque to this package).
	Reply any

	// serial orders records by age for eviction at the cap.
	serial uint64
}

// Outcome classifies a confirmation.
type Outcome int

// Confirmation outcomes.
const (
	// Miss: no record exists for the request.
	Miss Outcome = iota
	// Hit: the run finished and its base is at or above every conflicting
	// dispatch — the precomputed reply equals what the ordered execution
	// will compute. Pinned by benchmark/probes.go.
	Hit
	// Stale: a conflicting request was dispatched after the base; the
	// precomputed reply may be wrong and must be discarded.
	Stale
	// Aborted: the run bailed out.
	Aborted
	// Pending: the record is valid but the run is still going — the reply
	// is released by Finish when it lands, unless the ordered execution
	// completes first (see Resolve).
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

// maxRecords caps open records; beyond it Begin evicts or declines.
const maxRecords = 1 << 12

// Manager is the record table and the dispatch floors its verdicts read.
type Manager struct {
	// classFloor[c] is the highest stream position at which a request
	// declaring class c was dispatched.
	classFloor map[string]uint64
	// globalFloor is the highest position of a classless (global) dispatch,
	// which conflicts with every class.
	globalFloor uint64
	// maxFloor is the highest position of any dispatch; a classless record
	// conflicts with everything and is judged against it.
	maxFloor uint64

	records map[string]*Record
	serial  uint64
}

// NewManager returns an empty manager.
//
// Pinned by benchmark/probes.go (DESIGN.md "Pinned by the ruler"), with
// SetImage, Begin, Finish, Confirm, Resolve and Hit.
func NewManager() *Manager {
	return &Manager{
		classFloor: make(map[string]uint64),
		records:    make(map[string]*Record),
	}
}

// TrackDispatch records that a request with the given conflict classes was
// dispatched at stream position seq: every open record whose classes
// intersect and whose base is below seq goes stale.
func (m *Manager) TrackDispatch(seq uint64, classes []string) {
	m.maxFloor = max(m.maxFloor, seq)
	if len(classes) == 0 {
		m.globalFloor = max(m.globalFloor, seq)
		return
	}
	for _, c := range classes {
		m.classFloor[c] = max(m.classFloor[c], seq)
	}
}

// SetImage took the state image speculations were restored from. It
// does nothing now: there are no runs to restore.
// Pinned by benchmark/probes.go.
func (m *Manager) SetImage([]byte, bool, uint64) {}

// Begin opens a record for id, for a run on the state as of base. It
// declines (returns false) when a record already exists, or when too many
// are open and none can be evicted (only unconfirmed records — requests that
// were never ordered — are evictable).
// Pinned by benchmark/probes.go.
func (m *Manager) Begin(id string, base uint64, classes []string) bool {
	if _, dup := m.records[id]; dup {
		return false
	}
	if len(m.records) >= maxRecords && !m.evictOldest() {
		return false
	}
	m.serial++
	m.records[id] = &Record{Base: base, Classes: classes, serial: m.serial}
	return true
}

// evictOldest drops the oldest record that the total order has not yet
// touched. The scan is linear, but it runs only at the cap.
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

// Finish stores the reply for id. ok is false when the record is gone
// (already resolved) or aborted. release is true when the total order
// already confirmed the record as valid (a Pending confirm): the reply is
// to be released now.
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
		return true, true
	}
	return false, true
}

// Abort poisons the record for id (if any).
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
		floor = max(floor, m.classFloor[c])
	}
	return floor
}

// Confirm resolves the record for id against the current floors. On Hit the
// returned reply is released; on Pending the record is valid but still
// running (Finish releases it); on Stale/Aborted the record is dropped.
// Hit/Pending records survive until Resolve.
// Pinned by benchmark/probes.go.
func (m *Manager) Confirm(id string, classes []string) (reply any, out Outcome) {
	rec := m.records[id]
	if rec == nil {
		return nil, Miss
	}
	switch {
	case rec.Aborted:
		delete(m.records, id)
		return nil, Aborted
	case m.Floor(classes) > rec.Base:
		delete(m.records, id)
		return nil, Stale
	case !rec.Done:
		// Valid but still running: freeze the verdict. Every later dispatch
		// is ordered after this request and cannot conflict retroactively.
		rec.Confirmed = true
		return nil, Pending
	}
	rec.Confirmed = true
	rec.Released = true
	return rec.Reply, Hit
}

// Resolve consumes the record at ordered-execution completion. released
// reports that the precomputed reply was (or is being) released. late
// reports a confirmed-valid record that the ordered execution outran: no
// reply was released early.
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

// Pending returns the number of open records (tests).
func (m *Manager) Pending() int { return len(m.records) }
