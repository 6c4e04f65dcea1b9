// Package clocksi implements the intra-DC transaction machinery of Colony
// (paper §3.6): data sharded across the DC's servers by consistent hashing
// (the riak_core substitute), loosely-synchronised shard clocks, and the
// ClockSI two-phase commit that makes the whole DC one Snapshot Isolation
// zone that externally behaves like a single sequential node.
package clocksi

import (
	"fmt"
	"hash/fnv"
	"sort"

	"colony/internal/txn"
)

// Ring is a consistent-hash ring mapping object ids to shard names. It is
// immutable after construction.
type Ring struct {
	points []ringPoint
}

type ringPoint struct {
	hash  uint64
	shard string
}

// NewRing builds a ring over the given shards with vnodes virtual nodes per
// shard (more vnodes → smoother balance).
func NewRing(shards []string, vnodes int) (*Ring, error) {
	if len(shards) == 0 {
		return nil, fmt.Errorf("clocksi: ring needs at least one shard")
	}
	if vnodes <= 0 {
		vnodes = 64
	}
	r := &Ring{points: make([]ringPoint, 0, len(shards)*vnodes)}
	for _, s := range shards {
		for v := 0; v < vnodes; v++ {
			r.points = append(r.points, ringPoint{hash: hash64(fmt.Sprintf("%s#%d", s, v)), shard: s})
		}
	}
	sort.Slice(r.points, func(i, j int) bool { return r.points[i].hash < r.points[j].hash })
	return r, nil
}

// Lookup returns the shard responsible for id.
func (r *Ring) Lookup(id txn.ObjectID) string {
	h := hash64(id.String())
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		i = 0
	}
	return r.points[i].shard
}

// Partition splits a transaction's updates by responsible shard: each part
// is t's Restrict view, t itself when one shard holds every update.
func (r *Ring) Partition(t *txn.Transaction) map[string]*txn.Transaction {
	shards := make(map[string]bool)
	for _, u := range t.Updates {
		shards[r.Lookup(u.Object)] = true
	}
	out := make(map[string]*txn.Transaction, len(shards))
	for s := range shards {
		s := s
		out[s] = t.Restrict(func(u txn.Update) bool { return r.Lookup(u.Object) == s })
	}
	return out
}

// hash64 hashes s with FNV-64a and then applies a splitmix64 finaliser; raw
// FNV output on short, similar keys clusters on the ring, and the finaliser
// restores uniformity.
func hash64(s string) uint64 {
	h := fnv.New64a()
	_, _ = h.Write([]byte(s))
	x := h.Sum64()
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}
