package replication

// This file adds the partial-replication view to the mesh: which buckets each
// DC holds (its interest set), versioned by a per-DC sequence number, and the
// per-bucket K-stability cut computed over only the replicas that hold a
// bucket (Fisheye-style proximity scoping: strong bookkeeping only among the
// DCs that actually share the data).
//
// The view is deliberately conservative in the safe direction: a DC from
// which no bucket advertisement has ever been seen is *universal* — assumed
// to hold every bucket. Over-assuming interest only costs bandwidth (full
// payloads sent where stubs would do) and never correctness, so a joining or
// rebooting mesh degrades to full replication until BucketVec gossip
// converges.

import "colony/internal/vclock"

// bucketView is the mesh's record of one DC's interest set.
type bucketView struct {
	seq     uint64
	live    map[string]bool
	pending map[string]bool
}

// SetBuckets installs a DC's advertised bucket sets at version seq. Stale
// advertisements (seq lower than the recorded one) are ignored, so gossip may
// arrive out of order. The local DC records its own sets through the same
// path, and a full advertisement is the only way a DC's view changes.
// Returns true when the view changed.
func (m *Mesh) SetBuckets(dc int, seq uint64, live, pending []string) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.buckets == nil {
		m.buckets = make(map[int]*bucketView)
	}
	if v, ok := m.buckets[dc]; ok && seq <= v.seq {
		return false
	}
	v := &bucketView{seq: seq, live: make(map[string]bool, len(live)), pending: make(map[string]bool, len(pending))}
	for _, b := range live {
		v.live[b] = true
	}
	for _, b := range pending {
		v.pending[b] = true
	}
	m.buckets[dc] = v
	return true
}

// BucketSeq returns the version of the mesh's view of one DC's interest set
// (0 when the DC is still universal).
func (m *Mesh) BucketSeq(dc int) uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	if v := m.buckets[dc]; v != nil {
		return v.seq
	}
	return 0
}

// Wants reports whether a DC needs full payloads for a bucket: it holds the
// bucket live, is backfilling it (pending — concurrent commits must arrive
// with payloads so the journal catch-up is complete), or is universal (no
// advertisement ever seen).
func (m *Mesh) Wants(dc int, bucket string) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	v := m.buckets[dc]
	if v == nil {
		return true
	}
	return v.live[bucket] || v.pending[bucket]
}

// Replicas returns the DCs believed to hold a bucket *live* (serving reads
// and backfills; pending replicas are excluded). Universal DCs count.
func (m *Mesh) Replicas(bucket string) []int {
	m.mu.Lock()
	defer m.mu.Unlock()
	var out []int
	for dc := range m.known {
		v := m.buckets[dc]
		if v == nil || v.live[bucket] {
			out = append(out, dc)
		}
	}
	return out
}

// KStableBucket computes the K-stable cut for one bucket: componentwise the
// k-th largest value over the state vectors of only the DCs that hold the
// bucket live (universal DCs count). This is the partial-replication
// refinement of KStable — a DC that does not hold the bucket can neither
// serve it nor retard its stability. k is clamped to [1, live replica
// count]; a bucket nobody holds yields a nil (zero) cut.
func (m *Mesh) KStableBucket(bucket string, k int) vclock.Vector {
	m.mu.Lock()
	defer m.mu.Unlock()
	vs := make([]vclock.Vector, 0, len(m.known))
	width := 0
	for dc, v := range m.known {
		bv := m.buckets[dc]
		if bv != nil && !bv.live[bucket] {
			continue
		}
		vs = append(vs, v)
		if len(v) > width {
			width = len(v)
		}
	}
	if len(vs) == 0 {
		return nil
	}
	if k < 1 {
		k = 1
	}
	if k > len(vs) {
		k = len(vs)
	}
	out := vclock.NewVector(width)
	column := make([]uint64, 0, len(vs))
	for c := 0; c < width; c++ {
		column = column[:0]
		for _, v := range vs {
			column = append(column, v.Get(c))
		}
		for i := 0; i < k; i++ {
			maxIdx := i
			for j := i + 1; j < len(column); j++ {
				if column[j] > column[maxIdx] {
					maxIdx = j
				}
			}
			column[i], column[maxIdx] = column[maxIdx], column[i]
		}
		out[c] = column[k-1]
	}
	return out
}
