package shard

import "sync"

// DirectoryState is the replicated state of a shard directory group: the
// routing table of one sharded object, fixed at creation. Routers read it
// through the directory's "get" method. The mutex only guards against a
// snapshot install writing while a handler reads.
type DirectoryState struct {
	mu    sync.Mutex
	table Table
}

// StateFactory returns a per-replica state factory for the directory
// group, seeded with the initial table. Each replica gets its own
// DirectoryState instance (replicated state must never be shared between
// co-hosted replicas).
func StateFactory(initial Table) func() any {
	return func() any { return &DirectoryState{table: initial} }
}

// Get returns the table.
func (d *DirectoryState) Get() Table {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.table
}

// Snapshot implements the replica Snapshotter shape: directory state
// rides checkpoints as the encoded table.
func (d *DirectoryState) Snapshot() ([]byte, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.table.Encode(), nil
}

// Restore implements the replica Snapshotter shape.
func (d *DirectoryState) Restore(b []byte) error {
	t, err := DecodeTable(b)
	if err != nil {
		return err
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	d.table = t
	return nil
}
