package shard

import (
	"fmt"
	"testing"
)

// Ring assignment must be a pure function of (table, key): rebuilding the
// ring from an independently decoded copy of the table — as a second
// process would — yields identical homes for every key.
func TestRingPurityAcrossDecode(t *testing.T) {
	for _, s := range []int{1, 2, 3, 4, 8, 16} {
		tab := NewTable("kv", s, 0)
		remote, err := DecodeTable(tab.Encode())
		if err != nil {
			t.Fatalf("decode: %v", err)
		}
		local, far := NewRing(tab), NewRing(remote)
		for i := 0; i < 5000; i++ {
			k := fmt.Sprintf("user:%06d", i)
			if a, b := local.Home(k), far.Home(k); a != b {
				t.Fatalf("S=%d key %q: local home %d, decoded-table home %d", s, k, a, b)
			}
		}
	}
}

// Growing the shard set from S to S+1 moves only the keys the new
// shard's virtual nodes capture — about 1/(S+1) of the space. Assert the
// classic consistent-hashing rebalance-delta bound with generous slack
// (2× expected above, expected/4 below so the test also proves the ring
// actually rebalances).
func TestRingRebalanceDeltaBound(t *testing.T) {
	const keys = 20000
	for _, s := range []int{1, 2, 3, 4, 7} {
		// 256 vnodes tighten the variance so the 2× bound has huge margin.
		small := NewTable("kv", s, 256)
		big := NewTable("kv", s+1, 256)
		a, b := NewRing(small), NewRing(big)
		moved, movedElsewhere := 0, 0
		for i := 0; i < keys; i++ {
			k := fmt.Sprintf("acct:%07d", i)
			ha, hb := a.Home(k), b.Home(k)
			if ha != hb {
				moved++
				if hb != s {
					movedElsewhere++
				}
			}
		}
		expected := float64(keys) / float64(s+1)
		if f := float64(moved); f > 2*expected {
			t.Fatalf("S=%d->%d moved %d keys, above 2x the 1/(S+1) bound (%.0f)", s, s+1, moved, expected)
		} else if f < expected/4 {
			t.Fatalf("S=%d->%d moved only %d keys — ring is not rebalancing (expected ~%.0f)", s, s+1, moved, expected)
		}
		// Consistent hashing's defining property: keys only ever move TO
		// the new shard, never between surviving shards.
		if movedElsewhere != 0 {
			t.Fatalf("S=%d->%d: %d keys moved between surviving shards", s, s+1, movedElsewhere)
		}
	}
}

// Every shard must own a non-trivial slice of the key space (vnode
// smoothing working as intended).
func TestRingBalance(t *testing.T) {
	const keys = 40000
	tab := NewTable("kv", 8, 0)
	r := NewRing(tab)
	counts := make([]int, 8)
	for i := 0; i < keys; i++ {
		counts[r.Home(fmt.Sprintf("sess:%07d", i))]++
	}
	fair := keys / 8
	for i, c := range counts {
		if c < fair/3 || c > fair*3 {
			t.Fatalf("shard %d owns %d of %d keys (fair share %d): imbalance beyond 3x", i, c, keys, fair)
		}
	}
}

func TestRingHomeGroup(t *testing.T) {
	tab := NewTable("kv", 4, 0)
	r := NewRing(tab)
	for i := 0; i < 100; i++ {
		k := fmt.Sprintf("x%d", i)
		if got, want := r.HomeGroup(k), tab.Shards[r.Home(k)]; got != want {
			t.Fatalf("HomeGroup(%q) = %s, want %s", k, got, want)
		}
	}
	if got := r.Table(); got.VNodes != DefaultVNodes || len(got.Shards) != 4 {
		t.Fatalf("Table() = %+v", got)
	}
}

// FuzzRingPurity: for arbitrary keys and shard counts, assignment is in
// range, stable across ring rebuilds, and identical when computed from a
// decoded copy of the table.
func FuzzRingPurity(f *testing.F) {
	f.Add("user:42", uint8(4), uint8(16))
	f.Add("", uint8(1), uint8(1))
	f.Add("\x00\xff\x17", uint8(9), uint8(3))
	f.Fuzz(func(t *testing.T, key string, shards, vnodes uint8) {
		s := int(shards%16) + 1
		v := int(vnodes%64) + 1
		tab := NewTable("obj", s, v)
		r1 := NewRing(tab)
		h := r1.Home(key)
		if h < 0 || h >= s {
			t.Fatalf("home %d out of range [0,%d)", h, s)
		}
		if r1.Home(key) != h {
			t.Fatalf("unstable within one ring")
		}
		dec, err := DecodeTable(tab.Encode())
		if err != nil {
			t.Fatalf("decode round-trip: %v", err)
		}
		if NewRing(dec).Home(key) != h {
			t.Fatalf("home differs across decode: key %q S=%d V=%d", key, s, v)
		}
	})
}
