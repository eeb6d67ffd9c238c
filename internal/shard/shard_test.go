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
	if dec.Object != "bank" || dec.Epoch != 1 || dec.VNodes != 32 || len(dec.Shards) != 4 {
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
	bad := Table{Object: "bank", Epoch: 0, Shards: []wire.GroupID{"bank@0"}, VNodes: 8}
	if _, err := DecodeTable(bad.Encode()); err == nil {
		t.Fatalf("epoch-0 table decoded without error")
	}
	dup := Table{Object: "bank", Epoch: 1, Shards: []wire.GroupID{"bank@0", "bank@0"}, VNodes: 8}
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
		"no-object": {Epoch: 1, Shards: []wire.GroupID{"a@0"}, VNodes: 1},
		"no-shards": {Object: "kv", Epoch: 1, VNodes: 1},
		"no-vnodes": {Object: "kv", Epoch: 1, Shards: []wire.GroupID{"kv@0"}},
	} {
		if err := tab.Validate(); err == nil {
			t.Fatalf("%s: Validate unexpectedly passed", name)
		}
	}
}

func TestDirectoryStateSnapshotRestore(t *testing.T) {
	d := StateFactory(NewTable("kv", 3, 8))().(*DirectoryState)
	img, err := d.Snapshot()
	if err != nil {
		t.Fatalf("snapshot: %v", err)
	}
	fresh := StateFactory(NewTable("kv", 2, 16))().(*DirectoryState)
	if err := fresh.Restore(img); err != nil {
		t.Fatalf("restore: %v", err)
	}
	if got := fresh.Get(); len(got.Shards) != 3 || got.VNodes != 8 {
		t.Fatalf("restore mangled table: %+v", got)
	}
	if err := fresh.Restore([]byte{0xff}); err == nil {
		t.Fatalf("garbage restore accepted")
	}
}

func TestNewEpoch(t *testing.T) {
	tab := NewTable("kv", 2, 16)
	e := NewEpoch(tab)
	if e.Table.Epoch != 1 || e.Ring.Table().VNodes != 16 {
		t.Fatalf("epoch view %+v", e.Table)
	}
	if e.Ring.HomeGroup("k") != NewRing(tab).HomeGroup("k") {
		t.Fatalf("epoch ring differs from the table's")
	}
}

// TestRedirectError pins the operator-facing texts of a wrong-shard reply
// (the protocol itself goes by the reply code).
func TestRedirectError(t *testing.T) {
	if e, want := RedirectError(3, "k", "kv@1"), `shard: wrong shard (epoch 3; key "k" is homed on kv@1)`; e != want {
		t.Fatalf("redirect error %q, want %q", e, want)
	}
	if e, want := RedirectError(2, "k", ""), "shard: wrong shard (epoch 2)"; e != want {
		t.Fatalf("epoch-only redirect %q, want %q", e, want)
	}
}

// FuzzDecodeTable: arbitrary bytes never panic the decoder, and anything
// that decodes re-encodes byte-identically (canonical form).
func FuzzDecodeTable(f *testing.F) {
	f.Add(NewTable("kv", 4, 16).Encode())
	f.Add([]byte{})
	f.Add([]byte{0x01, 0x01, 0x00, 0x00})
	f.Fuzz(func(t *testing.T, b []byte) {
		tab, err := DecodeTable(b)
		if err != nil {
			return
		}
		if !bytes.Equal(tab.Encode(), b) {
			t.Fatalf("non-canonical table encoding accepted: %x", b)
		}
	})
}
