package dc

import (
	"context"
	"reflect"
	"sync"
	"testing"
	"time"

	"colony/internal/crdt"
	"colony/internal/simnet"
	"colony/internal/txn"
	"colony/internal/vclock"
	"colony/internal/wire"
)

// TestCommitSharedByEveryHolder: a commit is one value at the DC, whatever
// path it came by. A local commit's history record is the transaction its
// push frame carries; an edge commit's record shares the update log the
// edge sent; a peer's copy is recorded as it arrived. A stamp absorbed later
// swaps the record and writes none of those values.
func TestCommitSharedByEveryHolder(t *testing.T) {
	net := simnet.New(simnet.Config{})
	defer net.Close()
	d := singleDC(t, net, func(c *Config) { c.NumDCs = 3 })
	var mu sync.Mutex
	var pushed []*txn.Transaction
	sub := net.AddNode("sub", func(_ string, msg any) any {
		if p, ok := msg.(wire.PushTxs); ok {
			mu.Lock()
			pushed = append(pushed, p.Txs...)
			mu.Unlock()
		}
		return nil
	})
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if _, err := sub.Call(ctx, "dc0", wire.Subscribe{Node: "sub", Objects: []txn.ObjectID{alphaID}}); err != nil {
		t.Fatal(err)
	}
	inc := func(node string, commit vclock.CommitStamps) *txn.Transaction {
		tx := &txn.Transaction{Dot: vclock.Dot{Node: node, Seq: 1}, Origin: node, Snapshot: vclock.NewVector(3), Commit: commit}
		tx.AppendUpdate(alphaID, crdt.KindCounter, crdt.Op{Counter: &crdt.CounterOp{Delta: 1}})
		return tx
	}

	commitN(t, d, alphaID, 1)
	edgeTx := inc("edgeA", nil)
	edgeSent := edgeTx.Clone()
	if r := awaitReply(t, d.handle("edgeA", wire.EdgeCommit{Tx: edgeTx})); !isAck(r) {
		t.Fatalf("edge commit: reply %#v, want an ack", r)
	}
	peerTx := inc("dc1", vclock.CommitStamps{1: 1})
	peerSent := peerTx.Clone()
	d.receiveReplicated(wire.ReplBatch{From: 1, Txs: []*txn.Transaction{peerTx}, State: vclock.Vector{0, 1, 0}, Gen: 1, Hi: 1})
	waitFor(t, 2*time.Second, func() bool {
		mu.Lock()
		defer mu.Unlock()
		return len(pushed) == 3
	}, "three commits never pushed")

	record := func(dot vclock.Dot) *txn.Transaction {
		d.mu.Lock()
		defer d.mu.Unlock()
		return d.hist[d.byDot[dot]].t
	}
	mu.Lock()
	for _, p := range pushed {
		if record(p.Dot) != p {
			t.Errorf("%s: the push frame carries a copy of the history record", p.Dot)
		}
	}
	mu.Unlock()
	if rec := record(edgeTx.Dot); &rec.Updates[0] != &edgeTx.Updates[0] {
		t.Error("the edge commit's record copied the updates the edge sent")
	}
	if record(peerTx.Dot) != peerTx {
		t.Error("a peer's copy was recorded as a copy")
	}

	// Another peer sequenced the same transaction: its stamp swaps the record.
	d.receiveReplicated(wire.ReplBatch{From: 2, Txs: []*txn.Transaction{peerTx.WithCommit(vclock.CommitStamps{2: 1})}, State: vclock.Vector{0, 0, 1}, Gen: 1, Hi: 1})
	if rec := record(peerTx.Dot); len(rec.Commit) != 2 || d.State().Get(2) != 1 {
		t.Fatalf("absorbed record %v, state %v: want both stamps", rec, d.State())
	}
	if !reflect.DeepEqual(peerTx, peerSent) || !reflect.DeepEqual(edgeTx, edgeSent) {
		t.Fatalf("a handed-over transaction was written: peer %v (sent %v), edge %v (sent %v)", peerTx, peerSent, edgeTx, edgeSent)
	}
}
