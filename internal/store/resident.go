package store

// This file is the store side of partial replication (paper §4.2 generalised
// to DCs): a resident filter bounding which buckets the store materialises,
// and residency accounting for the store.resident_buckets /
// store.resident_bytes gauges.

import (
	"colony/internal/crdt"
	"colony/internal/txn"
)

// SetResident installs the residency filter: Apply will not create objects
// for buckets the filter rejects (updates to them are skipped exactly like a
// cache-mode miss; the transaction itself is still recorded for duplicate
// filtering and causal metadata). Self-originated transactions always
// materialise. The filter is called under shard locks and must be cheap and
// must not call back into the store. A nil filter (the default) accepts
// everything. Must be installed before the store is shared, but the filter
// itself may consult evolving state (the DC's bucket table does).
func (s *Store) SetResident(f func(bucket string) bool) { s.resident = f }

// ObjectsInBucket returns the ids of every resident object of one bucket, in
// unspecified order (backfill serving iterates these).
func (s *Store) ObjectsInBucket(bucket string) []txn.ObjectID {
	var out []txn.ObjectID
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.RLock()
		for id := range sh.objects {
			if id.Bucket == bucket {
				out = append(out, id)
			}
		}
		sh.mu.RUnlock()
	}
	return out
}

// ResidentStats reports the store's resident footprint: distinct buckets with
// at least one object, total objects, and the summed canonical state size of
// every base version in bytes (crdt.MarshalState length — a stable,
// allocation-proportional measure of what full replication would pin).
// Journals are not counted; they are bounded by the advancement policy.
func (s *Store) ResidentStats() (buckets, objects int, bytes int64) {
	seen := make(map[string]bool)
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.RLock()
		for id, obj := range sh.objects {
			objects++
			seen[id.Bucket] = true
			if b, err := crdt.MarshalState(nil, obj.base); err == nil {
				bytes += int64(len(b))
			}
		}
		sh.mu.RUnlock()
	}
	return len(seen), objects, bytes
}
