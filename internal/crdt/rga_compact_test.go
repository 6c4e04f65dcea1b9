package crdt

import (
	"fmt"
	"math/rand"
	"testing"

	"colony/internal/vclock"
)

// applyBoth applies one op to both replicas under the same tag.
func applyBoth(t *testing.T, seq *uint64, op Op, replicas ...*RGA) Tag {
	t.Helper()
	*seq++
	m := Meta{Dot: vclock.Dot{Node: "n", Seq: *seq}}
	for _, r := range replicas {
		mustApply(t, r, m, op)
	}
	return m.tag()
}

// TestRGACompactionEquivalence drives two replicas through the same random
// edit stream while only one of them compacts tombstones (at an aggressive
// cadence, as the store's K-stable advancement would). The live sequences
// must stay identical: compaction is pure garbage collection, never a
// semantic change.
func TestRGACompactionEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	a, b := NewRGA(), NewRGA()
	var seq uint64
	for step := 0; step < 2000; step++ {
		if b.Len() > 0 && rng.Intn(4) == 0 {
			op, ok := b.PrepareDeleteAt(rng.Intn(b.Len()))
			if !ok {
				t.Fatal("delete out of range")
			}
			applyBoth(t, &seq, op, a, b)
		} else {
			op := b.PrepareInsertAt(rng.Intn(b.Len()+1), fmt.Sprintf("%d,", step))
			applyBoth(t, &seq, op, a, b)
		}
		if step%97 == 0 {
			a.CompactTombstones()
		}
	}
	a.CompactTombstones()
	if a.Len() != b.Len() {
		t.Fatalf("live length diverged: compacted %d vs uncompacted %d", a.Len(), b.Len())
	}
	if a.String() != b.String() {
		t.Fatalf("contents diverged:\ncompacted:   %q\nuncompacted: %q", a.String(), b.String())
	}
	ae, be := a.Elements(), b.Elements()
	for i := range ae {
		if ae[i] != be[i] {
			t.Fatalf("element %d diverged: %v vs %v", i, ae[i], be[i])
		}
	}
	if rgaElems(a) >= rgaElems(b) {
		t.Fatalf("compaction reclaimed nothing: %d elements vs %d", rgaElems(a), rgaElems(b))
	}
	checkRGAChunks(t, 0, "compacted", a)
	checkRGAChunks(t, 0, "uncompacted", b)
}

// TestRGACompactedAnchorResurrection covers the late-op case: a replica
// compacts a tombstone, then receives a concurrent insert anchored on the
// reclaimed element. The element is resurrected at its original position, so
// the compacted replica converges with one that never compacted.
func TestRGACompactedAnchorResurrection(t *testing.T) {
	a, b := NewRGA(), NewRGA()
	var seq uint64
	// "b" must be a leaf (nothing anchored on it) to be compactable, so "c"
	// anchors on "a" too; "b" carries the later tag and sorts before "c".
	ta := applyBoth(t, &seq, Op{RGA: &RGAOp{After: Tag{}, Value: "a"}}, a, b)
	applyBoth(t, &seq, Op{RGA: &RGAOp{After: ta, Value: "c"}}, a, b)
	tb := applyBoth(t, &seq, Op{RGA: &RGAOp{After: ta, Value: "b"}}, a, b)
	if a.String() != "abc" {
		t.Fatalf("setup: got %q, want %q", a.String(), "abc")
	}
	applyBoth(t, &seq, a.PrepareDelete(tb), a, b) // delete "b"
	if n := a.CompactTombstones(); n != 1 {
		t.Fatalf("compacted %d tombstones, want 1", n)
	}
	if _, _, ok := a.lookup(tb); ok {
		t.Fatal("compacted tombstone still indexed")
	}

	// A concurrent editor that still saw "b" anchors an insert on it.
	applyBoth(t, &seq, Op{RGA: &RGAOp{After: tb, Value: "X"}}, a, b)
	if a.String() != b.String() {
		t.Fatalf("diverged after resurrection: %q vs %q", a.String(), b.String())
	}
	if a.String() != "aXc" {
		t.Fatalf("got %q, want %q", a.String(), "aXc")
	}

	// Deletes and duplicate inserts of reclaimed elements are no-ops.
	a2 := NewRGA()
	mustApply(t, a2, Meta{Dot: vclock.Dot{Node: "n", Seq: 1}}, Op{RGA: &RGAOp{After: Tag{}, Value: "z"}})
	zt := Tag{Dot: vclock.Dot{Node: "n", Seq: 1}}
	mustApply(t, a2, Meta{Dot: vclock.Dot{Node: "n", Seq: 2}}, a2.PrepareDelete(zt))
	a2.CompactTombstones()
	if err := a2.Apply(Meta{Dot: vclock.Dot{Node: "n", Seq: 3}}, a2.PrepareDelete(zt)); err != nil {
		t.Fatalf("delete of compacted element: %v", err)
	}
	if err := a2.Apply(Meta{Dot: vclock.Dot{Node: "n", Seq: 1}}, Op{RGA: &RGAOp{After: Tag{}, Value: "z"}}); err != nil {
		t.Fatalf("duplicate insert of compacted element: %v", err)
	}
	if a2.Len() != 0 {
		t.Fatalf("no-ops changed state: %q", a2.String())
	}
}

// TestRGACompactedChainResurrection exercises transitive resurrection: the
// late op anchors on a compacted element whose own anchor was also compacted.
func TestRGACompactedChainResurrection(t *testing.T) {
	a, b := NewRGA(), NewRGA()
	var seq uint64
	x := applyBoth(t, &seq, Op{RGA: &RGAOp{After: Tag{}, Value: "x"}}, a, b)
	y := applyBoth(t, &seq, Op{RGA: &RGAOp{After: x, Value: "y"}}, a, b)
	applyBoth(t, &seq, Op{RGA: &RGAOp{After: y, Value: "tail"}}, a, b)
	applyBoth(t, &seq, a.PrepareDelete(y), a, b)
	applyBoth(t, &seq, a.PrepareDelete(x), a, b)
	// "tail" anchors on y, so y survives this compaction; delete tail too so
	// the whole x<-y chain is reclaimable.
	tailOp, ok := a.PrepareDeleteAt(0)
	if !ok {
		t.Fatal("tail missing")
	}
	applyBoth(t, &seq, tailOp, a, b)
	if n := a.CompactTombstones(); n != 3 {
		t.Fatalf("compacted %d tombstones, want 3", n)
	}
	// Late concurrent insert anchored on y: A must resurrect y and,
	// transitively, x to place it deterministically.
	applyBoth(t, &seq, Op{RGA: &RGAOp{After: y, Value: "Z"}}, a, b)
	if a.String() != b.String() || a.String() != "Z" {
		t.Fatalf("diverged after chain resurrection: %q vs %q", a.String(), b.String())
	}
	// Convergence must survive a further compaction round.
	a.CompactTombstones()
	if a.String() != b.String() {
		t.Fatalf("diverged after post-resurrection compaction: %q vs %q", a.String(), b.String())
	}
}
