package shard

import (
	"bytes"
	"strings"
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
	obj, idx, ok := SplitGroup("kv@3")
	if !ok || obj != "kv" || idx != 3 {
		t.Fatalf("SplitGroup(kv@3) = %q %d %v", obj, idx, ok)
	}
	for _, bad := range []wire.GroupID{"kv.dir", "kv", "@3", "kv@", "kv@x", "kv@-1"} {
		if _, _, ok := SplitGroup(bad); ok {
			t.Fatalf("SplitGroup(%q) unexpectedly ok", bad)
		}
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
	if !dec.SameShards(tab) {
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

func TestDirectoryStateApply(t *testing.T) {
	d := StateFactory(NewTable("kv", 2, 16))().(*DirectoryState)
	if d.Get().Epoch != 1 {
		t.Fatalf("initial epoch %d", d.Get().Epoch)
	}
	next := d.Get().Next(32)
	if err := d.Apply(next); err != nil {
		t.Fatalf("apply next: %v", err)
	}
	if d.Get().Epoch != 2 || d.Get().VNodes != 32 {
		t.Fatalf("apply did not install: %+v", d.Get())
	}
	// Epoch must advance by exactly one.
	skip := d.Get().Next(32)
	skip.Epoch++
	if err := d.Apply(skip); err == nil || !strings.Contains(err.Error(), "does not follow") {
		t.Fatalf("epoch skip accepted: %v", err)
	}
	// Replays of the current epoch are rejected too (epoch 2 again).
	if err := d.Apply(next); err == nil {
		t.Fatalf("epoch replay accepted")
	}
	// Object renames and shard-set changes are rejected.
	wrongObj := d.Get().Next(0)
	wrongObj.Object = "other"
	if err := d.Apply(wrongObj); err == nil {
		t.Fatalf("object rename accepted")
	}
	// Shard-set changes are allowed — the directory flip is half of the
	// resharding fence; the shard replicas' own EpochMethod path keeps its
	// SameShards guard.
	grown := d.Get().Reshape(3)
	if err := d.Apply(grown); err != nil {
		t.Fatalf("shard-set change rejected: %v", err)
	}
	if got := d.Get(); len(got.Shards) != 3 || got.Epoch != grown.Epoch {
		t.Fatalf("reshape did not install: %+v", got)
	}
}

func TestDirectoryStateSnapshotRestore(t *testing.T) {
	d := StateFactory(NewTable("kv", 2, 16))().(*DirectoryState)
	if err := d.Apply(d.Get().Next(8)); err != nil {
		t.Fatalf("apply: %v", err)
	}
	img, err := d.Snapshot()
	if err != nil {
		t.Fatalf("snapshot: %v", err)
	}
	fresh := StateFactory(NewTable("kv", 2, 16))().(*DirectoryState)
	if err := fresh.Restore(img); err != nil {
		t.Fatalf("restore: %v", err)
	}
	if fresh.Get().Epoch != 2 || fresh.Get().VNodes != 8 {
		t.Fatalf("restore mangled table: %+v", fresh.Get())
	}
	if err := fresh.Restore([]byte{0xff}); err == nil {
		t.Fatalf("garbage restore accepted")
	}
}

func TestGroupStateInstall(t *testing.T) {
	tab := NewTable("kv", 2, 16)
	g := NewGroupState(GroupName("kv", 0), tab)
	if g.Self() != "kv@0" {
		t.Fatalf("Self = %s", g.Self())
	}
	if g.Current().Table.Epoch != 1 || g.Current().Ring == nil {
		t.Fatalf("initial epoch not installed")
	}
	// Same epoch: idempotent no-op.
	if err := g.Install(tab); err != nil {
		t.Fatalf("idempotent install: %v", err)
	}
	// Forward: installs, with a fresh ring.
	if err := g.Install(tab.Next(32)); err != nil {
		t.Fatalf("forward install: %v", err)
	}
	if e := g.Current(); e.Table.Epoch != 2 || e.Ring.Table().VNodes != 32 {
		t.Fatalf("install did not switch: %+v", e.Table)
	}
	// Backward: rejected.
	if err := g.Install(tab); err == nil {
		t.Fatalf("backward install accepted")
	}
	// Wrong object: rejected.
	if err := g.Install(NewTable("other", 2, 16)); err == nil {
		t.Fatalf("cross-object install accepted")
	}
	// Invalid table: rejected.
	if err := g.Install(Table{}); err == nil {
		t.Fatalf("invalid install accepted")
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
