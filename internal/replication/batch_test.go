package replication

import (
	"testing"

	"colony/internal/txn"
	"colony/internal/vclock"
)

func TestAdmitBatchDrainsInCausalOrder(t *testing.T) {
	m := NewMesh(0, 2)
	// A coalesced batch arriving with its members already in commit order —
	// the common case from a per-peer sender.
	batch := []*txn.Transaction{
		tx("dc1", 1, vclock.Vector{0, 0}, 1, 1),
		tx("dc1", 2, vclock.Vector{0, 1}, 1, 2),
		tx("dc1", 3, vclock.Vector{0, 2}, 1, 3),
	}
	ready := m.AdmitBatch(batch, vclock.Vector{0, 0})
	if len(ready) != 3 {
		t.Fatalf("ready = %d txs, want 3", len(ready))
	}
	for i, want := range []uint64{1, 2, 3} {
		if ready[i].Dot.Seq != want {
			t.Fatalf("order: got seq %d at %d", ready[i].Dot.Seq, i)
		}
	}
	if len(m.pending) != 0 {
		t.Fatalf("pending = %d", len(m.pending))
	}
}

func TestAdmitBatchHoldsBackAndJoinsLaterBatch(t *testing.T) {
	m := NewMesh(0, 2)
	// The tail of the peer's log arrives before the head. Nothing may
	// release early, and the head batch must drain everything in causal
	// order.
	tail := []*txn.Transaction{tx("dc1", 3, vclock.Vector{0, 2}, 1, 3)}
	if got := m.AdmitBatch(tail, vclock.Vector{0, 0}); len(got) != 0 {
		t.Fatalf("tail released early: %v", got)
	}
	if len(m.pending) != 1 {
		t.Fatalf("pending = %d", len(m.pending))
	}
	head := []*txn.Transaction{
		tx("dc1", 1, vclock.Vector{0, 0}, 1, 1),
		tx("dc1", 2, vclock.Vector{0, 1}, 1, 2),
	}
	ready := m.AdmitBatch(head, vclock.Vector{0, 0})
	if len(ready) != 3 {
		t.Fatalf("ready = %d txs, want 3", len(ready))
	}
	for i, want := range []uint64{1, 2, 3} {
		if ready[i].Dot.Seq != want {
			t.Fatalf("order: got seq %d at %d", ready[i].Dot.Seq, i)
		}
	}
}

func TestAdmitBatchSkipsNilEntries(t *testing.T) {
	m := NewMesh(0, 2)
	batch := []*txn.Transaction{nil, tx("dc1", 1, vclock.Vector{0, 0}, 1, 1), nil}
	if got := m.AdmitBatch(batch, vclock.Vector{0, 0}); len(got) != 1 {
		t.Fatalf("ready = %d txs, want 1", len(got))
	}
	if got := m.AdmitBatch(nil, vclock.Vector{0, 1}); len(got) != 0 {
		t.Fatalf("empty batch released %d txs", len(got))
	}
}

// TestAdmitBatchKeepsOriginOrder: DC 1's commit 5 waits for DC 2's commit
// 3, while DC 1's commit 6, which depends on neither, is ready. Releasing 6
// would lift the state's component 1 past 5, a stamp it does not hold, so
// nothing of DC 1 is released until DC 2's commit arrives; then all three
// drain in order.
func TestAdmitBatchKeepsOriginOrder(t *testing.T) {
	m := NewMesh(0, 3)
	local := vclock.Vector{0, 4, 2}
	a5 := tx("edgeA", 1, vclock.Vector{0, 4, 3}, 1, 5)
	a6 := tx("edgeB", 1, vclock.Vector{0, 4, 0}, 1, 6)
	if got := m.AdmitBatch([]*txn.Transaction{a5, a6}, local); len(got) != 0 {
		t.Fatalf("released %v while dc1's commit 5 waits for a dependency", got[0].Commit)
	}
	b3 := tx("dc2", 3, vclock.Vector{0, 0, 2}, 2, 3)
	got := m.AdmitBatch([]*txn.Transaction{b3}, local)
	if len(got) != 3 || got[0] != b3 || got[1] != a5 || got[2] != a6 {
		t.Fatalf("ready = %v, want dc2's 3, then dc1's 5 and 6", got)
	}
}
