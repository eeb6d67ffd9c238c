package main

import (
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// The reference load is how a run learns how fast the machine is right now.
//
// The shared reference machine changes speed for minutes at a time: the CPU
// cost of one and the same invocation moves by up to 45 %, ten runs of an
// unchanged tree spread by 20–38 % on every wall-clock metric, and no
// statistic inside a run undoes a shift that outlasts it (README, "Noise
// floor"). So each measured phase is interleaved with a fixed load that shares
// nothing with the program under test but slows down with it — goroutines
// handing small freshly allocated frames over loopback TCP and channels,
// standard library only — and the wall-clock metrics are scaled by how fast
// that load ran. A pure ALU canary does not work: it barely notices what
// slows the program by a third.

const (
	// refNominal is the reference rate the wall-clock metrics are scaled to:
	// about what the quiet reference machine does, so scaled and raw figures
	// agree there. Any constant would do; it must never change.
	refNominal = 40_000.0
	refSlice   = 800 * time.Millisecond
	refFanOut  = 3
	refFrame   = 64
)

// machineRate runs the reference load for d and returns its round trips per
// second: each of `clients` goroutines sends a fresh 64-byte frame to three
// echo servers over loopback TCP and collects the three echoes, which a
// reader goroutine per connection hands over on a channel.
func machineRate(d time.Duration, clients int) (float64, error) {
	var (
		wg        sync.WaitGroup // servers and readers
		listeners []net.Listener
		trips     atomic.Int64
		firstErr  atomic.Pointer[error]
	)
	fail := func(err error) { firstErr.CompareAndSwap(nil, &err) }
	defer func() {
		for _, ln := range listeners {
			ln.Close()
		}
		wg.Wait()
	}()
	echo := func(c net.Conn) {
		defer wg.Done()
		defer c.Close()
		for {
			in := make([]byte, refFrame)
			if _, err := io.ReadFull(c, in); err != nil {
				return // the client hung up: the slice is over
			}
			out := make([]byte, refFrame)
			copy(out, in)
			if _, err := c.Write(out); err != nil {
				return
			}
		}
	}
	for i := 0; i < refFanOut; i++ {
		ln, err := net.Listen("tcp", loopback)
		if err != nil {
			return 0, fmt.Errorf("reference load: %w", err)
		}
		listeners = append(listeners, ln)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				c, err := ln.Accept()
				if err != nil {
					return // listener closed
				}
				wg.Add(1)
				go echo(c)
			}
		}()
	}

	var drivers sync.WaitGroup
	start := time.Now()
	for cl := 0; cl < clients; cl++ {
		drivers.Add(1)
		go func() {
			defer drivers.Done()
			echoes := make(chan []byte, refFanOut) // one slot per echo of a round trip
			var conns []net.Conn
			defer func() {
				for _, c := range conns {
					c.Close()
				}
			}()
			for _, ln := range listeners {
				c, err := net.Dial("tcp", ln.Addr().String())
				if err != nil {
					fail(err)
					return
				}
				conns = append(conns, c)
				wg.Add(1)
				go func() {
					defer wg.Done()
					for {
						in := make([]byte, refFrame)
						if _, err := io.ReadFull(c, in); err != nil {
							return // closed by the driver
						}
						echoes <- in
					}
				}()
			}
			for n := byte(0); time.Since(start) < d; n++ {
				frame := make([]byte, refFrame)
				frame[0] = n
				for _, c := range conns {
					if _, err := c.Write(frame); err != nil {
						fail(err)
						return
					}
				}
				for range conns {
					<-echoes
				}
				trips.Add(1)
			}
		}()
	}
	drivers.Wait()
	elapsed := time.Since(start)
	if err := firstErr.Load(); err != nil {
		return 0, fmt.Errorf("reference load: %w", *err)
	}
	return float64(trips.Load()) / elapsed.Seconds(), nil
}
