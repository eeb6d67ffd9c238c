package main

import (
	"encoding/binary"
	"errors"
	"fmt"

	replobj "github.com/replobj/replobj"
)

const (
	lockSlots  = 32
	lockPerOp  = 8
	lockWindow = 16 // each client draws its mutexes from a window this wide
	// lockStride offsets consecutive clients' windows: neighbours share
	// lockWindow-lockStride mutexes, so about half of two concurrent
	// requests touch a common mutex.
	lockStride = 13
	// lcgSteps sizes the work under each mutex: a dependent multiply-add
	// chain of this length is about 2 µs of real CPU on the reference
	// machine. It is computation, not inv.Compute — a sleep would measure
	// the timer.
	lcgSteps = 1500
	lcgA     = 6364136223846793005
	lcgC     = 1442695040888963407
	golden   = 0x9e3779b97f4a7c15
)

var (
	lockIDs [lockSlots]replobj.MutexID
	// lcgJumpA/C collapse lcgSteps iterations into one multiply-add, so a
	// client predicts the handler's result without repeating its work.
	lcgJumpA, lcgJumpC uint64
)

func init() {
	for i := range lockIDs {
		lockIDs[i] = replobj.MutexID(fmt.Sprintf("m%02d", i))
	}
	a, c := uint64(1), uint64(0)
	for i := 0; i < lcgSteps; i++ {
		a, c = a*lcgA, c*lcgA+lcgC
	}
	lcgJumpA, lcgJumpC = a, c
}

// lcgRun is the ALU work done under a held mutex.
func lcgRun(x uint64) uint64 {
	for i := 0; i < lcgSteps; i++ {
		x = x*lcgA + lcgC
	}
	return x
}

func lcgJump(x uint64) uint64 { return x*lcgJumpA + lcgJumpC }

func lockSeed(nonce uint64, slot byte) uint64 { return nonce ^ uint64(slot+1)*golden }

type lockState struct{ slots [lockSlots]uint64 }

func deployLocks(c *replobj.Cluster) (*deployment, error) {
	g, err := c.NewGroup("locks", replicasPerGroup,
		replobj.WithScheduler(replobj.MAT),
		replobj.WithState(func() any { return &lockState{} }),
		replobj.WithSchedTrace(0))
	if err != nil {
		return nil, err
	}
	// work8 locks its mutexes in ascending order (nested), adds real ALU
	// output to the slot behind each, and unlocks in reverse. Slot updates
	// are additions, so the final state does not depend on the order in
	// which the total order interleaved the clients.
	g.Register("work8", func(inv *replobj.Invocation) ([]byte, error) {
		args := inv.Args()
		if len(args) != lockPerOp+8 {
			return nil, errors.New("work8: bad args")
		}
		st := inv.State().(*lockState)
		nonce := binary.BigEndian.Uint64(args[lockPerOp:])
		var sum uint64
		for _, slot := range args[:lockPerOp] {
			if err := inv.Lock(lockIDs[slot]); err != nil {
				return nil, err
			}
			inc := lcgRun(lockSeed(nonce, slot))
			st.slots[slot] += inc
			sum += inc
		}
		for i := lockPerOp - 1; i >= 0; i-- {
			if err := inv.Unlock(lockIDs[args[i]]); err != nil {
				return nil, err
			}
		}
		return u64(sum), nil
	})
	g.Register("read", func(inv *replobj.Invocation) ([]byte, error) {
		st := inv.State().(*lockState)
		out := make([]byte, 0, lockSlots*8)
		for i := range st.slots {
			if err := inv.Lock(lockIDs[i]); err != nil {
				return nil, err
			}
			out = binary.BigEndian.AppendUint64(out, st.slots[i])
			if err := inv.Unlock(lockIDs[i]); err != nil {
				return nil, err
			}
		}
		return out, nil
	})
	return plainDeployment("locks", g), nil
}

type lockScript struct {
	rng   prng
	base  int
	slots [lockSlots]uint64 // this client's contribution to every slot
}

func newLockScript(seed int64, client int) *lockScript {
	return &lockScript{rng: newPRNG(seed, client), base: client * lockStride % lockSlots}
}

func (s *lockScript) next() request {
	// Choose lockPerOp distinct offsets inside the client's window by a
	// seeded bitmask walk, emitted in ascending mutex order.
	var picked [lockSlots]bool
	for n := 0; n < lockPerOp; {
		slot := (s.base + int(s.rng.next()%lockWindow)) % lockSlots
		if !picked[slot] {
			picked[slot] = true
			n++
		}
	}
	args := make([]byte, 0, lockPerOp+8)
	for slot, on := range picked {
		if on {
			args = append(args, byte(slot))
		}
	}
	args = binary.BigEndian.AppendUint64(args, s.rng.next())
	return request{method: "work8", args: args}
}

func (s *lockScript) applied(req request, reply []byte) error {
	if len(reply) != 8 {
		return fmt.Errorf("work8: %d-byte reply, want 8", len(reply))
	}
	nonce := binary.BigEndian.Uint64(req.args[lockPerOp:])
	var sum uint64
	for _, slot := range req.args[:lockPerOp] {
		inc := lcgJump(lockSeed(nonce, slot))
		s.slots[slot] += inc
		sum += inc
	}
	if got := binary.BigEndian.Uint64(reply); got != sum {
		return fmt.Errorf("work8: reply %x, want %x", got, sum)
	}
	return nil
}

func verifyLocks(d *deployment, scripts []script, readAll readAllFunc) error {
	replies, err := readAll(d.data[0].id, "read")
	if err != nil {
		return err
	}
	got, err := sameReplies(replies, replicasPerGroup)
	if err != nil {
		return err
	}
	var want [lockSlots]uint64
	for _, s := range scripts {
		for i, v := range s.(*lockScript).slots {
			want[i] += v
		}
	}
	if len(got) != lockSlots*8 {
		return fmt.Errorf("read: %d bytes, want %d", len(got), lockSlots*8)
	}
	for i := range want {
		if v := binary.BigEndian.Uint64(got[i*8:]); v != want[i] {
			return fmt.Errorf("slot %d = %x, client-side model says %x", i, v, want[i])
		}
	}
	return nil
}
