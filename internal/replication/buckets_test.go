package replication

import (
	"sort"
	"testing"

	"colony/internal/vclock"
)

// TestBucketViewVersioning: advertisements apply in seq order; stale ones
// are ignored, so gossip may reorder.
func TestBucketViewVersioning(t *testing.T) {
	m := NewMesh(0, 3)
	if !m.SetBuckets(1, 2, []string{"a", "b"}, nil) {
		t.Fatal("fresh advertisement rejected")
	}
	if m.SetBuckets(1, 2, []string{"c"}, nil) {
		t.Fatal("same-seq advertisement must be stale")
	}
	if m.SetBuckets(1, 1, []string{"c"}, nil) {
		t.Fatal("older advertisement must be stale")
	}
	if got := m.BucketSeq(1); got != 2 {
		t.Fatalf("BucketSeq = %d, want 2", got)
	}
	if !m.Wants(1, "a") || m.Wants(1, "c") {
		t.Fatal("view reflects a stale advertisement")
	}
}

// TestBucketUniversalDefault: a DC that never advertised is assumed to hold
// everything — full payloads, counted as a replica — so a joining mesh
// degrades to full replication, never to lost effects.
func TestBucketUniversalDefault(t *testing.T) {
	m := NewMesh(0, 3)
	for i := 0; i < 3; i++ {
		m.ObservePeer(i, vclock.Vector{1, 1, 1})
	}
	if !m.Wants(2, "anything") {
		t.Fatal("universal DC must want every bucket")
	}
	reps := m.Replicas("anything")
	sort.Ints(reps)
	if len(reps) != 3 {
		t.Fatalf("Replicas = %v, want all three universal DCs", reps)
	}

	// Pending buckets still need payloads (journal catch-up) but do not
	// serve backfills.
	m.SetBuckets(2, 1, nil, []string{"p"})
	if !m.Wants(2, "p") {
		t.Fatal("pending bucket must receive payloads")
	}
	for _, dc := range m.Replicas("p") {
		if dc == 2 {
			t.Fatal("pending replica must not serve backfills")
		}
	}
}

// TestKStableBucket: the per-bucket cut is the k-th largest over only the
// live holders, so a DC that dropped the bucket cannot retard its stability.
func TestKStableBucket(t *testing.T) {
	m := NewMesh(0, 3)
	m.ObservePeer(0, vclock.Vector{10, 0, 0})
	m.ObservePeer(1, vclock.Vector{4, 8, 0})
	m.ObservePeer(2, vclock.Vector{2, 2, 9})
	m.SetBuckets(0, 1, []string{"b"}, nil)
	m.SetBuckets(1, 1, []string{"b"}, nil)
	m.SetBuckets(2, 1, nil, nil) // dropped everything

	got := m.KStableBucket("b", 2)
	want := vclock.Vector{4, 0, 0}
	if !got.Equal(want) {
		t.Fatalf("KStableBucket(b, 2) = %v, want %v (2nd largest over dc0/dc1 only)", got, want)
	}

	// With k above the live holder count it clamps rather than stalls.
	if got := m.KStableBucket("b", 3); !got.Equal(vclock.Vector{4, 0, 0}) {
		t.Fatalf("clamped cut = %v, want {4 0 0}", got)
	}

	// A bucket nobody holds yields the zero cut.
	if got := m.KStableBucket("nowhere", 2); got.Sum() != 0 {
		t.Fatalf("cut of unheld bucket = %v, want zero", got)
	}
}
