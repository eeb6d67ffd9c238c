package main

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"

	replobj "github.com/replobj/replobj"
	"github.com/replobj/replobj/internal/shard"
)

const (
	kvKeys      = 4096
	kvValSize   = 256
	kvBuckets   = 64
	kvLoadBatch = 64
	kvRecord    = 2 + kvValSize
	kvObject    = "kv"
	kvShards    = 2
	kvCkptEvery = 4096
	kvLanes     = 8
)

var (
	kvClasses  [kvBuckets][]string
	kvMutexes  [kvBuckets]replobj.MutexID
	kvKeyNames [kvKeys]string // shard keys of the routed workload
)

func init() {
	for b := range kvClasses {
		name := fmt.Sprintf("b%02d", b)
		kvClasses[b] = []string{name}
		kvMutexes[b] = replobj.MutexID(name)
	}
	for k := range kvKeyNames {
		kvKeyNames[k] = fmt.Sprintf("k%04d", k)
	}
}

// kvValue writes the value of (key, version) into dst. Values describe
// themselves — the header names the key and version, the body is a pure
// function of the header — so any reader can tell a whole value from a torn
// or misplaced one. Version 0 is the preloaded value.
func kvValue(dst []byte, key int, version uint32) {
	head := uint64(key)<<32 | uint64(version)
	binary.BigEndian.PutUint64(dst, head)
	p := prng(head)
	for off := 8; off < kvValSize; off += 8 {
		binary.LittleEndian.PutUint64(dst[off:], p.next())
	}
}

// kvVersion checks that val is a whole value of key and returns its version.
func kvVersion(val []byte, key int) (uint32, error) {
	if len(val) != kvValSize {
		return 0, fmt.Errorf("key %d: %d-byte value, want %d", key, len(val), kvValSize)
	}
	head := binary.BigEndian.Uint64(val)
	if int(head>>32) != key {
		return 0, fmt.Errorf("key %d: value belongs to key %d", key, head>>32)
	}
	var want [kvValSize]byte
	kvValue(want[:], key, uint32(head))
	if !bytes.Equal(val, want[:]) {
		return 0, fmt.Errorf("key %d: value body does not match its header", key)
	}
	return uint32(head), nil
}

// kvState is the KV object: fixed-size values behind 64 conflict classes.
// Values are immutable once stored (put installs a fresh copy), so a get
// may return the stored slice while later puts run.
type kvState struct {
	vals [kvKeys][]byte // nil = absent on this shard
}

var (
	_ replobj.Snapshotter     = (*kvState)(nil)
	_ replobj.ConflictClasser = (*kvState)(nil)
)

// Snapshot serializes the present keys as (key, value) records.
func (s *kvState) Snapshot() ([]byte, error) {
	n := 0
	for _, v := range s.vals {
		if v != nil {
			n++
		}
	}
	out := make([]byte, 0, n*kvRecord)
	for k, v := range s.vals {
		if v != nil {
			out = append(out, byte(k>>8), byte(k))
			out = append(out, v...)
		}
	}
	return out, nil
}

// Restore replaces the state with an image: one copy of the image, sliced
// per key — the cheapest restore an application can offer, so what the
// benchmark sees of a speculative fork is the middleware's share.
func (s *kvState) Restore(data []byte) error {
	if len(data)%kvRecord != 0 {
		return fmt.Errorf("kv: image of %d bytes is not a whole number of records", len(data))
	}
	buf := append([]byte(nil), data...)
	s.vals = [kvKeys][]byte{}
	for off := 0; off < len(buf); off += kvRecord {
		k := int(buf[off])<<8 | int(buf[off+1])
		if k >= kvKeys {
			return fmt.Errorf("kv: image names key %d", k)
		}
		s.vals[k] = buf[off+2 : off+kvRecord : off+kvRecord]
	}
	return nil
}

// ConflictClasses maps get and put to their key's bucket; everything else
// (load, digest) is global.
func (s *kvState) ConflictClasses(method string, args []byte) []string {
	if (method == "get" || method == "put") && len(args) >= 2 {
		return kvClasses[kvKey(args)%kvBuckets]
	}
	return nil
}

func kvKey(args []byte) int { return (int(args[0])<<8 | int(args[1])) % kvKeys }

func registerKV(g *replobj.Group) {
	g.Register("get", func(inv *replobj.Invocation) ([]byte, error) {
		args := inv.Args()
		if len(args) != 2 {
			return nil, errors.New("get: bad args")
		}
		k := kvKey(args)
		m := kvMutexes[k%kvBuckets]
		if err := inv.Lock(m); err != nil {
			return nil, err
		}
		v := inv.State().(*kvState).vals[k]
		if err := inv.Unlock(m); err != nil {
			return nil, err
		}
		if v == nil {
			return nil, fmt.Errorf("get: key %d absent", k)
		}
		return v, nil
	})
	g.Register("put", func(inv *replobj.Invocation) ([]byte, error) {
		args := inv.Args()
		if len(args) != kvRecord {
			return nil, errors.New("put: bad args")
		}
		k := kvKey(args)
		m := kvMutexes[k%kvBuckets]
		if err := inv.Lock(m); err != nil {
			return nil, err
		}
		inv.State().(*kvState).vals[k] = append([]byte(nil), args[2:]...)
		if err := inv.Unlock(m); err != nil {
			return nil, err
		}
		return args[2:10], nil // echo the value header: key and version
	})
	// load installs version 0 of a batch of keys (global: no classes).
	g.Register("load", func(inv *replobj.Invocation) ([]byte, error) {
		args := inv.Args()
		if len(args)%2 != 0 {
			return nil, errors.New("load: bad args")
		}
		st := inv.State().(*kvState)
		for off := 0; off < len(args); off += 2 {
			k := kvKey(args[off:])
			v := make([]byte, kvValSize)
			kvValue(v, k, 0)
			st.vals[k] = v
		}
		return u64(uint64(len(args) / 2)), nil
	})
	// digest returns the key count and an FNV-1a hash over every present
	// (key, value) in key order (global: runs alone on every lane).
	g.Register("digest", func(inv *replobj.Invocation) ([]byte, error) {
		st := inv.State().(*kvState)
		d := newKVDigest()
		for k, v := range st.vals {
			if v != nil {
				d.add(k, v)
			}
		}
		return d.sum(), nil
	})
}

type kvDigest struct{ n, h uint64 }

func newKVDigest() *kvDigest { return &kvDigest{h: 14695981039346656037} }

func (d *kvDigest) add(key int, val []byte) {
	d.n++
	h := d.h
	h = (h ^ uint64(key>>8)) * 1099511628211
	h = (h ^ uint64(key&0xff)) * 1099511628211
	for _, b := range val {
		h = (h ^ uint64(b)) * 1099511628211
	}
	d.h = h
}

func (d *kvDigest) sum() []byte {
	out := make([]byte, 16)
	binary.BigEndian.PutUint64(out, d.n)
	binary.BigEndian.PutUint64(out[8:], d.h)
	return out
}

func deployKV(c *replobj.Cluster, sharded bool) (*deployment, error) {
	opts := []replobj.GroupOption{
		replobj.WithScheduler(replobj.CC),
		replobj.WithCCLanes(kvLanes),
		replobj.WithState(func() any { return &kvState{} }),
		replobj.WithCheckpointEvery(kvCkptEvery),
		replobj.WithSchedTrace(0),
	}
	if !sharded {
		g, err := c.NewGroup(kvObject, replicasPerGroup, append(opts, replobj.WithSpeculation())...)
		if err != nil {
			return nil, err
		}
		registerKV(g)
		d := plainDeployment(kvObject, g)
		d.homes = make([]int, kvKeys)
		return d, nil
	}
	d := &deployment{homes: make([]int, kvKeys)}
	sh, err := c.NewSharded(kvObject, replicasPerGroup, append(opts, replobj.WithShards(kvShards))...)
	if err != nil {
		return nil, err
	}
	d.groups = append(d.groups, hosted{replobj.ShardDirGroup(kvObject), sh.Dir()})
	ids := sh.Groups()
	sh.EachShard(func(i int, g *replobj.Group) {
		registerKV(g)
		d.groups = append(d.groups, hosted{ids[i], g})
		d.data = append(d.data, hosted{ids[i], g})
	})
	ring := shard.NewRing(sh.Table())
	for k := range d.homes {
		d.homes[k] = ring.Home(kvKeyNames[k])
	}
	d.object, d.start = kvObject, sh.Start
	return d, nil
}

func preloadKV(d *deployment, invoke func(request) ([]byte, error)) error {
	// Batches hold keys of one home only, so a routed batch is valid on the
	// shard its first key routes it to.
	batches := make([][]byte, len(d.data))
	flush := func(home int) error {
		args := batches[home]
		batches[home] = nil
		if len(args) == 0 {
			return nil
		}
		req := request{method: "load", args: args}
		if d.object != "" {
			req.shardKey = kvKeyNames[kvKey(args)]
		}
		_, err := invoke(req)
		return err
	}
	for k := 0; k < kvKeys; k++ {
		home := d.homes[k]
		batches[home] = append(batches[home], byte(k>>8), byte(k))
		if len(batches[home]) == 2*kvLoadBatch {
			if err := flush(home); err != nil {
				return err
			}
		}
	}
	for home := range batches {
		if err := flush(home); err != nil {
			return err
		}
	}
	return nil
}

// kvScript reads keys uniformly and writes only inside the client's own
// contiguous key range, so the last value of every key is known to exactly
// one client-side model.
type kvScript struct {
	rng      prng
	issued   uint64 // requests generated so far
	putPct   uint64
	routed   bool
	lo, span int
	version  []uint32 // per owned key (index key-lo): last version written
}

func kvOwner(key, nclients int) int { return key * nclients / kvKeys }

func newKVScript(seed int64, client, nclients, putPct int, routed bool) *kvScript {
	lo := (client*kvKeys + nclients - 1) / nclients
	hi := ((client+1)*kvKeys + nclients - 1) / nclients
	return &kvScript{rng: newPRNG(seed, client), putPct: uint64(putPct), routed: routed,
		lo: lo, span: hi - lo, version: make([]uint32, hi-lo)}
}

func (s *kvScript) next() request {
	// The mix is exact, not drawn: requests i with a new value of
	// floor(i*putPct/100) are puts, so every run issues the same share and
	// the per-operation allocation figures carry no binomial noise. The seed
	// chooses keys only.
	s.issued++
	isPut := s.issued*s.putPct/100 != (s.issued-1)*s.putPct/100
	r := s.rng.next()
	var req request
	var key int
	if isPut {
		key = s.lo + int(r%uint64(s.span))
		args := make([]byte, kvRecord)
		args[0], args[1] = byte(key>>8), byte(key)
		kvValue(args[2:], key, s.version[key-s.lo]+1)
		req = request{method: "put", args: args}
	} else {
		key = int(r % kvKeys)
		req = request{method: "get", args: []byte{byte(key >> 8), byte(key)}}
	}
	if s.routed {
		req.shardKey = kvKeyNames[key]
	}
	return req
}

func (s *kvScript) applied(req request, reply []byte) error {
	key := kvKey(req.args)
	own := key >= s.lo && key < s.lo+s.span
	if req.method == "put" {
		if !bytes.Equal(reply, req.args[2:10]) {
			return fmt.Errorf("put key %d: reply %x, want %x", key, reply, req.args[2:10])
		}
		s.version[key-s.lo]++
		return nil
	}
	v, err := kvVersion(reply, key)
	if err != nil {
		return fmt.Errorf("get: %w", err)
	}
	if own && v != s.version[key-s.lo] {
		return fmt.Errorf("get key %d: version %d, this client last wrote %d", key, v, s.version[key-s.lo])
	}
	return nil
}

func verifyKV(d *deployment, scripts []script, readAll readAllFunc) error {
	want := make([]*kvDigest, len(d.data))
	for i := range want {
		want[i] = newKVDigest()
	}
	var val [kvValSize]byte
	for k := 0; k < kvKeys; k++ {
		owner := scripts[kvOwner(k, len(scripts))].(*kvScript)
		if k < owner.lo || k >= owner.lo+owner.span {
			return fmt.Errorf("key %d has no owning client", k)
		}
		kvValue(val[:], k, owner.version[k-owner.lo])
		want[d.homes[k]].add(k, val[:])
	}
	for i, h := range d.data {
		replies, err := readAll(h.id, "digest")
		if err != nil {
			return fmt.Errorf("%s: %w", h.id, err)
		}
		got, err := sameReplies(replies, replicasPerGroup)
		if err != nil {
			return fmt.Errorf("%s: %w", h.id, err)
		}
		if !bytes.Equal(got, want[i].sum()) {
			return fmt.Errorf("%s: state digest %x, client-side model says %x", h.id, got, want[i].sum())
		}
	}
	return nil
}
