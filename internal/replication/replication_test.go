package replication

import (
	"testing"

	"colony/internal/crdt"
	"colony/internal/txn"
	"colony/internal/vclock"
)

func tx(node string, seq uint64, snap vclock.Vector, dc int, ts uint64) *txn.Transaction {
	t := &txn.Transaction{
		Dot:      vclock.Dot{Node: node, Seq: seq},
		Origin:   node,
		Snapshot: snap.Clone(),
		Commit:   vclock.CommitStamps{dc: ts},
	}
	t.AppendUpdate(txn.ObjectID{Bucket: "b", Key: "x"}, crdt.KindCounter,
		crdt.Op{Counter: &crdt.CounterOp{Delta: 1}})
	return t
}

func TestAdmitReadyImmediately(t *testing.T) {
	m := NewMesh(0, 3)
	remote := tx("dc1", 1, vclock.Vector{0, 0, 0}, 1, 1)
	ready := m.AdmitBatch([]*txn.Transaction{remote}, vclock.Vector{0, 0, 0})
	if len(ready) != 1 || ready[0] != remote {
		t.Fatalf("ready = %v", ready)
	}
	if len(m.pending) != 0 {
		t.Fatalf("pending = %d", len(m.pending))
	}
}

func TestAdmitHoldsBackMissingDeps(t *testing.T) {
	m := NewMesh(0, 3)
	// dep committed at DC2 ts=1; later tx from DC1 depends on it.
	dependent := tx("dc1", 2, vclock.Vector{0, 0, 1}, 1, 2)
	ready := m.AdmitBatch([]*txn.Transaction{dependent}, vclock.Vector{0, 0, 0})
	if len(ready) != 0 {
		t.Fatalf("dependent released early: %v", ready)
	}
	if len(m.pending) != 1 {
		t.Fatalf("pending = %d", len(m.pending))
	}
	// The missing dependency arrives; both drain in causal order.
	dep := tx("dc2", 1, vclock.Vector{0, 0, 0}, 2, 1)
	ready = m.AdmitBatch([]*txn.Transaction{dep}, vclock.Vector{0, 0, 0})
	if len(ready) != 2 {
		t.Fatalf("ready = %d txs, want 2", len(ready))
	}
	if ready[0].Dot.Node != "dc2" || ready[1].Dot.Node != "dc1" {
		t.Fatalf("wrong causal order: %v then %v", ready[0].Dot, ready[1].Dot)
	}
}

func TestAdmitChainDrains(t *testing.T) {
	m := NewMesh(0, 2)
	// Three txs from DC1 arriving out of causal order (pathological, FIFO
	// normally prevents this, but the mesh must still be safe).
	t3 := tx("dc1", 3, vclock.Vector{0, 2}, 1, 3)
	t2 := tx("dc1", 2, vclock.Vector{0, 1}, 1, 2)
	t1 := tx("dc1", 1, vclock.Vector{0, 0}, 1, 1)
	if got := m.AdmitBatch([]*txn.Transaction{t3}, vclock.Vector{0, 0}); len(got) != 0 {
		t.Fatalf("t3 released: %v", got)
	}
	if got := m.AdmitBatch([]*txn.Transaction{t2}, vclock.Vector{0, 0}); len(got) != 0 {
		t.Fatalf("t2 released: %v", got)
	}
	got := m.AdmitBatch([]*txn.Transaction{t1}, vclock.Vector{0, 0})
	if len(got) != 3 {
		t.Fatalf("chain did not drain: %d", len(got))
	}
	for i, want := range []uint64{1, 2, 3} {
		if got[i].Dot.Seq != want {
			t.Fatalf("order: got seq %d at %d", got[i].Dot.Seq, i)
		}
	}
}

func TestKStable(t *testing.T) {
	m := NewMesh(0, 3)
	m.ObserveSelf(vclock.Vector{5, 0, 0})
	m.ObservePeer(1, vclock.Vector{3, 4, 0})
	m.ObservePeer(2, vclock.Vector{1, 2, 6})
	tests := []struct {
		k    int
		want vclock.Vector
	}{
		{1, vclock.Vector{5, 4, 6}},
		{2, vclock.Vector{3, 2, 0}},
		{3, vclock.Vector{1, 0, 0}},
		{0, vclock.Vector{5, 4, 6}},  // clamped to 1
		{99, vclock.Vector{1, 0, 0}}, // clamped to N
	}
	for _, tt := range tests {
		if got := m.KStable(tt.k); !got.Equal(tt.want) {
			t.Errorf("KStable(%d) = %v, want %v", tt.k, got, tt.want)
		}
	}
}

func TestObserveIsMonotone(t *testing.T) {
	m := NewMesh(0, 2)
	m.ObservePeer(1, vclock.Vector{0, 5})
	m.ObservePeer(1, vclock.Vector{0, 3}) // stale update must not regress
	if got := m.Known(1); !got.Equal(vclock.Vector{0, 5}) {
		t.Fatalf("Known(1) = %v", got)
	}
}
