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
// nothing either, once the mailbox owns a parker for it. An echo goroutine
// answers every item only once the reader is parked on the answer, so every
// Get below blocks: the echo's on the request, the reader's on the reply.
func TestMailboxBlockingGetDoesNotAllocate(t *testing.T) {
	onBothRuntimes(t, func(t *testing.T, rt Runtime) {
		in, out := NewMailbox[int](rt, "in"), NewMailbox[int](rt, "out")
		rt.Go("echo", func() {
			for {
				if _, ok := in.Get(); !ok {
					return
				}
				for answered := false; !answered; {
					rt.Lock()
					if answered = out.waitHead != nil; answered {
						out.PutLocked(1)
					}
					rt.Unlock()
					if !answered {
						runtime.Gosched()
					}
				}
			}
		})
		defer in.Close()
		in.Put(1)
		out.Get() // the first blocked readers allocate the parkers
		if n := testing.AllocsPerRun(200, func() {
			in.Put(1)
			out.Get()
		}); n != 0 {
			t.Errorf("blocking Get: %v allocs, want 0", n)
		}
	})
}
