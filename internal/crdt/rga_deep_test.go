package crdt

import (
	"testing"

	"colony/internal/vclock"
)

// TestRGADeepChain is the regression test for the old recursive tree kernel:
// a 100k-deep insert chain (every element anchored on the previous one) made
// walk/Clone/String recurse once per element. The chunked kernel iterates, so
// everything here must finish without growing the stack, and appends must
// stay O(1) amortised (the whole test is a fraction of a second).
func TestRGADeepChain(t *testing.T) {
	const n = 100_000
	r := NewRGA()
	tags := make([]Tag, n)
	after := Tag{}
	for i := 0; i < n; i++ {
		m := Meta{Dot: vclock.Dot{Node: "a", Seq: uint64(i + 1)}}
		mustApply(t, r, m, Op{RGA: &RGAOp{After: after, Value: "x"}})
		after = m.tag()
		tags[i] = after
	}
	if r.Len() != n {
		t.Fatalf("Len = %d, want %d", r.Len(), n)
	}
	if got := len(r.String()); got != n {
		t.Fatalf("String length = %d, want %d", got, n)
	}
	if got := len(r.Elements()); got != n {
		t.Fatalf("Elements length = %d, want %d", got, n)
	}
	cl := r.Clone().(*RGA)
	if cl.Len() != n || rgaElems(cl) != n {
		t.Fatalf("clone: live %d elements %d, want %d", cl.Len(), rgaElems(cl), n)
	}
	checkRGAChunks(t, 0, "clone", cl)

	r.Seal()
	fork := r.Fork().(*RGA)
	// Tombstone the back half by tag (O(1) per delete), then compact: the
	// 50k-long tombstone chain is unreferenced only at its very tail, so the
	// reclaim must cascade through the whole run in one backward pass.
	for i := n / 2; i < n; i++ {
		m := Meta{Dot: vclock.Dot{Node: "d", Seq: uint64(i + 1)}}
		mustApply(t, fork, m, fork.PrepareDelete(tags[i]))
	}
	if got := fork.CompactTombstones(); got != n/2 {
		t.Fatalf("compacted %d tombstones, want %d", got, n/2)
	}
	if fork.Len() != n/2 || rgaElems(fork) != n/2 {
		t.Fatalf("after compaction: live %d elements %d, want %d", fork.Len(), rgaElems(fork), n/2)
	}
	checkRGAChunks(t, 0, "compacted fork", fork)
	if got := len(fork.String()); got != n/2 {
		t.Fatalf("fork String length = %d, want %d", got, n/2)
	}
	// The sealed original is untouched by the fork's deletes and compaction.
	if r.Len() != n || len(r.String()) != n {
		t.Fatalf("sealed snapshot mutated: live %d", r.Len())
	}
}
