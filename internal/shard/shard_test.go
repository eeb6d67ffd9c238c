package shard

import (
	"bytes"
	"slices"
	"testing"

	"github.com/replobj/replobj/internal/wire"
)

func TestGroupNaming(t *testing.T) {
	if g := GroupName("kv", 3); g != "kv@3" {
		t.Fatalf("GroupName = %s", g)
	}
	if d := DirGroup("kv"); d != "kv.dir" {
		t.Fatalf("DirGroup = %s", d)
	}
}

func TestTableEncodeRoundTrip(t *testing.T) {
	tab := NewTable("bank", 4, 32)
	dec, err := DecodeTable(tab.Encode())
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if dec.Object != "bank" || dec.VNodes != 32 || len(dec.Shards) != 4 {
		t.Fatalf("round trip mangled table: %+v", dec)
	}
	if !slices.Equal(dec.Shards, tab.Shards) {
		t.Fatalf("shard set mangled: %v vs %v", dec.Shards, tab.Shards)
	}
	// Canonical: re-encoding a decoded table is byte-identical.
	if !bytes.Equal(dec.Encode(), tab.Encode()) {
		t.Fatalf("re-encode not byte-stable")
	}
}

func TestTableDecodeRejectsGarbage(t *testing.T) {
	good := NewTable("bank", 2, 8).Encode()
	cases := map[string][]byte{
		"empty":     {},
		"truncated": good[:len(good)-3],
		"trailing":  append(append([]byte{}, good...), 0x01),
	}
	for name, b := range cases {
		if _, err := DecodeTable(b); err == nil {
			t.Fatalf("%s: decode unexpectedly succeeded", name)
		}
	}
	// Structurally invalid tables are rejected even when well-framed.
	dup := Table{Object: "bank", Shards: []wire.GroupID{"bank@0", "bank@0"}, VNodes: 8}
	if _, err := DecodeTable(dup.Encode()); err == nil {
		t.Fatalf("duplicate-shard table decoded without error")
	}
}

func TestTableValidate(t *testing.T) {
	ok := NewTable("kv", 2, 0)
	if err := ok.Validate(); err != nil {
		t.Fatalf("valid table rejected: %v", err)
	}
	for name, tab := range map[string]Table{
		"no-object": {Shards: []wire.GroupID{"a@0"}, VNodes: 1},
		"no-shards": {Object: "kv", VNodes: 1},
		"no-vnodes": {Object: "kv", Shards: []wire.GroupID{"kv@0"}},
	} {
		if err := tab.Validate(); err == nil {
			t.Fatalf("%s: Validate unexpectedly passed", name)
		}
	}
}

// TestRedirectError pins the operator-facing text of a wrong-shard reply
// (the protocol itself goes by the reply code).
func TestRedirectError(t *testing.T) {
	if e, want := RedirectError("k", "kv@1"), `shard: wrong shard (key "k" is homed on kv@1)`; e != want {
		t.Fatalf("redirect error %q, want %q", e, want)
	}
}

// TestDecodeTableBoundsTheRing: a directory reply is bytes off the wire, and
// NewRing allocates one point per shard per virtual node. A short table
// asking for 2^40 virtual nodes (or more points than the bound in all) is
// refused, not handed to NewRing.
func TestDecodeTableBoundsTheRing(t *testing.T) {
	for name, tab := range map[string]Table{
		"vnodes 2^40":     {Object: "kv", Shards: []wire.GroupID{"kv@0", "kv@1"}, VNodes: 1 << 40},
		"vnodes above":    {Object: "kv", Shards: []wire.GroupID{"kv@0"}, VNodes: maxVNodes + 1},
		"points above":    NewTable("kv", maxRingPoints/maxVNodes+1, maxVNodes),
		"negative vnodes": {Object: "kv", Shards: []wire.GroupID{"kv@0"}, VNodes: -1},
	} {
		if dec, err := DecodeTable(tab.Encode()); err == nil {
			t.Errorf("%s: decoded a table of %d shards x %d vnodes without error", name, len(dec.Shards), dec.VNodes)
		}
	}
	at := NewTable("kv", maxRingPoints/maxVNodes, maxVNodes)
	if _, err := DecodeTable(at.Encode()); err != nil {
		t.Fatalf("table at the bound refused: %v", err)
	}
}

// claimingTable is a table whose shard count claims one shard per byte
// after it, the most the reader took, over 2 KiB of 0xff on which the
// first shard name already fails.
func claimingTable() []byte {
	const filler = 2048
	head := wire.Append(nil, func(b *wire.Buffer) {
		b.Uvarint(16)
		b.String("kv")
		b.Uvarint(filler)
	})
	return append(head, bytes.Repeat([]byte{0xff}, filler)...)
}

// FuzzDecodeTable: arbitrary bytes never panic the decoder, anything that
// decodes re-encodes byte-identically (canonical form), and its ring can be
// built.
func FuzzDecodeTable(f *testing.F) {
	f.Add(NewTable("kv", 4, 16).Encode())
	f.Add(claimingTable())
	f.Add([]byte{})
	f.Add([]byte{0x01, 0x01, 0x00, 0x00})
	// NewTable("kv", 2, 16) but for vnodes 16 written as a two-byte varint:
	// it decodes only if the reader takes non-minimal varints, and then
	// re-encodes to other bytes.
	f.Add([]byte("\x90\x00\x02kv\x02\x04kv@0\x04kv@1"))
	f.Fuzz(func(t *testing.T, b []byte) {
		tab, err := DecodeTable(b)
		if err != nil {
			return
		}
		if !bytes.Equal(tab.Encode(), b) {
			t.Fatalf("non-canonical table encoding accepted: %x", b)
		}
		NewRing(tab)
	})
}
