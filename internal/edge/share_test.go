package edge

import (
	"reflect"
	"sync"
	"testing"
	"time"

	"colony/internal/crdt"
	"colony/internal/store"
	"colony/internal/txn"
	"colony/internal/vclock"
	"colony/internal/wire"
)

// TestRelayedFrameSharedByEdges: the edges of one multicast subtree that
// integrate one relayed frame all hold the frame's transaction itself.
func TestRelayedFrameSharedByEdges(t *testing.T) {
	r := newPushRig(t, 3, nil)
	var mu sync.Mutex
	got := make(map[string]*txn.Transaction)
	for _, e := range r.edges {
		name := e.Name()
		e.SetHooks(Hooks{Push: func(m wire.PushTxs) {
			mu.Lock()
			defer mu.Unlock()
			if len(m.Txs) > 0 && got[name] == nil {
				got[name] = m.Txs[0]
			}
		}})
	}
	commitAt(t, r.d, &r.log, 1)
	waitFor(t, 2*time.Second, func() bool {
		mu.Lock()
		defer mu.Unlock()
		return len(got) == len(r.edges)
	}, "the commit never reached every edge")
	mu.Lock()
	defer mu.Unlock()
	frame := got[r.edges[0].Name()]
	for _, e := range r.edges {
		rec, ok := e.Store().Transaction(frame.Dot)
		if !ok || rec != frame || got[e.Name()] != frame {
			t.Errorf("%s holds %p (frame %p), want the relayed frame's %p", e.Name(), rec, got[e.Name()], frame)
		}
	}
}

// TestHandedOverTransactionNeverWritten hands one transaction to a store, to
// a DC's replication receive path, to an edge's push path and to another
// edge's group path. Every holder then learns a stamp or a snapshot join —
// Promote, a peer's stamp absorbed, ResolveSnapshot, a CommitStamps.Add on
// the shared stamps — and the transaction must still equal the copy taken
// before the hand-off.
func TestHandedOverTransactionNeverWritten(t *testing.T) {
	r := newRig(t, 3, 1)
	tx := &txn.Transaction{Dot: vclock.Dot{Node: "far", Seq: 1}, Origin: "far", Snapshot: vclock.NewVector(3), Commit: vclock.CommitStamps{1: 1}}
	tx.AppendUpdate(xID, crdt.KindCounter, crdt.Op{Counter: &crdt.CounterOp{Delta: 1}})
	before := tx.Clone()

	st := store.New("x")
	if err := st.Apply(tx); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Promote(tx.Dot, 2, 3); err != nil {
		t.Fatal(err)
	}
	resolved, err := st.ResolveSnapshot(tx.Dot, vclock.Vector{0, 0, 3})
	if err != nil || resolved.Snapshot.Get(2) != 3 || resolved.Commit[2] != 3 {
		t.Fatalf("store learned %v, %v", resolved, err)
	}

	peer := r.net.Transport().AddNode("peer", nil)
	if err := peer.Send("dc0", wire.ReplBatch{From: 1, Txs: []*txn.Transaction{tx}, State: vclock.Vector{0, 1, 0}, Gen: 1, Hi: 1}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 2*time.Second, func() bool { return r.dcs[0].State().Get(1) == 1 }, "dc0 never recorded the peer's transaction")
	absorbed := tx.WithCommit(vclock.CommitStamps{2: 1})
	if err := peer.Send("dc0", wire.ReplBatch{From: 2, Txs: []*txn.Transaction{absorbed}, State: vclock.Vector{0, 0, 1}, Gen: 1, Hi: 1}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 2*time.Second, func() bool { return r.dcs[0].State().Get(2) == 1 }, "dc0 never absorbed the second stamp")

	pushed := New(r.net.Transport(), Config{Name: "edgeA", DC: "dc0"})
	t.Cleanup(pushed.Close)
	pushed.mu.Lock()
	pushed.push = wire.PushCursor{Gen: 1}
	pushed.mu.Unlock()
	pushed.ApplyPush(wire.PushTxs{From: "dc0", Txs: []*txn.Transaction{tx}, Gen: 1, Lo: 0, Hi: 1})
	pushed.Promote(tx.Dot, 2, 3, nil)
	grouped := New(r.net.Transport(), Config{Name: "edgeB", DC: "dc0"})
	t.Cleanup(grouped.Close)
	grouped.ApplyGroupTx(tx)
	grouped.Promote(tx.Dot, 0, 9, nil)
	if _, err := grouped.Store().ResolveSnapshot(tx.Dot, vclock.Vector{9}); err != nil {
		t.Fatal(err)
	}
	if grown, err := tx.Commit.Add(0, 5); err != nil || len(grown) != 2 {
		t.Fatalf("Add on the shared stamps = %v, %v", grown, err)
	}

	if !reflect.DeepEqual(tx, before) {
		t.Fatalf("a holder wrote the transaction: %v, handed over as %v", tx, before)
	}
	for _, h := range []struct {
		n    *Node
		want vclock.CommitStamps
	}{{pushed, vclock.CommitStamps{1: 1, 2: 3}}, {grouped, vclock.CommitStamps{1: 1, 0: 9}}} {
		if rec, ok := h.n.Store().Transaction(tx.Dot); !ok || !reflect.DeepEqual(rec.Commit, h.want) {
			t.Errorf("%s holds %v, want stamps %v", h.n.Name(), rec, h.want)
		}
	}
	if rec, _ := grouped.Store().Transaction(tx.Dot); rec.Snapshot.Get(0) != 9 || !grouped.Store().GroupVisible(tx.Dot) {
		t.Errorf("edgeB holds %v, want its snapshot joined and the group mark", rec)
	}
}
