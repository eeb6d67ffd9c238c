package shard

import (
	"sort"
	"strconv"

	"github.com/replobj/replobj/internal/wire"
)

// Ring is the consistent-hash ring derived from a Table: each shard
// places Table.VNodes virtual nodes on a 64-bit hash circle, and a key's
// home is the owner of the first point at or clockwise of the key's hash.
//
// Purity is the load-bearing property — replicas validate routing and
// handlers pick nested cross-shard targets at totally ordered points, so
// assignment must be a pure function of (table, key), identical in every
// process. Two deliberate consequences:
//
//   - A virtual node's position depends only on its shard group id and
//     vnode index. A table with S+1 shards therefore homes elsewhere only
//     the keys captured by the extra shard's points — about 1/(S+1) of the
//     space (the classic consistent-hashing rebalance bound,
//     property-tested in this package).
//   - Hash-point ties break by (shard rank, vnode index), both taken from
//     the table, so even colliding points resolve identically everywhere.
type Ring struct {
	table  Table
	points []ringPoint
}

type ringPoint struct {
	hash  uint64
	shard int // index into table.Shards
	vnode int
}

// NewRing builds the ring of a table. The table is assumed valid
// (Validate'd by DecodeTable or built by NewTable).
func NewRing(t Table) *Ring {
	r := &Ring{table: t, points: make([]ringPoint, 0, len(t.Shards)*t.VNodes)}
	for si, g := range t.Shards {
		for v := 0; v < t.VNodes; v++ {
			h := hashPoint(string(g), v)
			r.points = append(r.points, ringPoint{hash: h, shard: si, vnode: v})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		a, b := r.points[i], r.points[j]
		if a.hash != b.hash {
			return a.hash < b.hash
		}
		if a.shard != b.shard {
			return a.shard < b.shard
		}
		return a.vnode < b.vnode
	})
	return r
}

// Table returns the table the ring was built from.
func (r *Ring) Table() Table { return r.table }

// Home returns the shard index owning a key: the owner of the first point
// at or clockwise of the key's hash.
func (r *Ring) Home(key string) int {
	h := hashKey(key)
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		i = 0 // wrap: first point clockwise of the top of the circle
	}
	return r.points[i].shard
}

// HomeGroup returns the shard group id owning a key.
func (r *Ring) HomeGroup(key string) wire.GroupID {
	return r.table.Shards[r.Home(key)]
}

// FNV-1a 64-bit with disjoint domain prefixes (so vnode placements and
// key hashes can never alias each other), finished with a splitmix64
// avalanche: raw FNV mixes trailing bytes weakly, which visibly skews the
// arc lengths of vnode points that differ only in their index suffix.
const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

func fnv1a(h uint64, s string) uint64 {
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= fnvPrime
	}
	return h
}

func mix64(h uint64) uint64 {
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	h *= 0x94d049bb133111eb
	h ^= h >> 31
	return h
}

func hashPoint(group string, vnode int) uint64 {
	h := fnv1a(fnvOffset, "vn/")
	h = fnv1a(h, group)
	h = fnv1a(h, "/")
	h = fnv1a(h, strconv.Itoa(vnode))
	return mix64(h)
}

func hashKey(key string) uint64 {
	h := fnv1a(fnvOffset, "key/")
	return mix64(fnv1a(h, key))
}
