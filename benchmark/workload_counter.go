package main

import (
	"encoding/binary"
	"fmt"

	replobj "github.com/replobj/replobj"
)

type counterState struct{ v uint64 }

func deployCounter(c *replobj.Cluster) (*deployment, error) {
	g, err := c.NewGroup("counter", replicasPerGroup,
		replobj.WithScheduler(replobj.SEQ),
		replobj.WithState(func() any { return &counterState{} }),
		replobj.WithSchedTrace(0))
	if err != nil {
		return nil, err
	}
	g.Register("add", func(inv *replobj.Invocation) ([]byte, error) {
		st := inv.State().(*counterState)
		if err := inv.Lock("state"); err != nil {
			return nil, err
		}
		st.v += uint64(inv.Args()[0])
		out := u64(st.v)
		return out, inv.Unlock("state")
	})
	g.Register("get", func(inv *replobj.Invocation) ([]byte, error) {
		st := inv.State().(*counterState)
		if err := inv.Lock("state"); err != nil {
			return nil, err
		}
		out := u64(st.v)
		return out, inv.Unlock("state")
	})
	return plainDeployment("counter", g), nil
}

type counterScript struct {
	rng  prng
	sum  uint64 // successful adds of this client
	last uint64 // last counter value this client saw
}

func (s *counterScript) next() request {
	return request{method: "add", args: []byte{byte(1 + s.rng.next()%255)}}
}

func (s *counterScript) applied(req request, reply []byte) error {
	if len(reply) != 8 {
		return fmt.Errorf("add: %d-byte reply, want 8", len(reply))
	}
	s.sum += uint64(req.args[0])
	v := binary.BigEndian.Uint64(reply)
	if v < s.last+uint64(req.args[0]) || v < s.sum {
		return fmt.Errorf("add: counter read %d after %d (own adds total %d): not monotonic", v, s.last, s.sum)
	}
	s.last = v
	return nil
}

func verifyCounter(d *deployment, scripts []script, readAll readAllFunc) error {
	replies, err := readAll(d.data[0].id, "get")
	if err != nil {
		return err
	}
	got, err := sameReplies(replies, replicasPerGroup)
	if err != nil {
		return err
	}
	var want uint64
	for _, s := range scripts {
		want += s.(*counterScript).sum
	}
	if v := binary.BigEndian.Uint64(got); v != want {
		return fmt.Errorf("counter = %d, client-side model says %d", v, want)
	}
	return nil
}
