//go:build !race

package vtime

import (
	"runtime"
	"testing"
)

// Allocation budgets of the mailbox, on both runtimes. They are upper
// bounds on a warm mailbox; the race detector allocates on its own, hence
// the build tag.

// TestMailboxPutGetDoesNotAllocate: an item that is there when the reader
// comes costs nothing.
func TestMailboxPutGetDoesNotAllocate(t *testing.T) {
	onBothRuntimes(t, func(t *testing.T, rt Runtime) {
		m := NewMailbox[[4]uint64](rt, "m")
		m.Put([4]uint64{})
		m.Get() // warm: the ring has its first buffer
		if n := testing.AllocsPerRun(1000, func() {
			m.Put([4]uint64{1})
			m.Get()
		}); n != 0 {
			t.Errorf("Put then Get: %v allocs, want 0", n)
		}
	})
}

// TestMailboxBlockingGetDoesNotAllocate: a reader that has to park costs
// nothing either, once the mailbox owns a parker for it.
func TestMailboxBlockingGetDoesNotAllocate(t *testing.T) {
	onBothRuntimes(t, func(t *testing.T, rt Runtime) {
		m := NewMailbox[int](rt, "m")
		rt.Go("producer", func() {
			// Puts only while a reader is parked, so every Get below blocks.
			for {
				rt.Lock()
				if m.closed {
					rt.Unlock()
					return
				}
				if m.waitHead != nil {
					m.PutLocked(1)
				}
				rt.Unlock()
				runtime.Gosched()
			}
		})
		defer m.Close()
		m.Get() // the first blocked reader allocates the parker
		if n := testing.AllocsPerRun(200, func() { m.Get() }); n != 0 {
			t.Errorf("blocking Get: %v allocs, want 0", n)
		}
	})
}
