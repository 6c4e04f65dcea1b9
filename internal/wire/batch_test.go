package wire

import (
	"reflect"
	"testing"

	"colony/internal/crdt"
	"colony/internal/txn"
	"colony/internal/vclock"
)

// TestReplBatchCloneSafety mirrors TestReplTxCloneSafety for the coalesced
// form: the sender keeps mutating its retained transactions and its live
// state vector after the send; nothing inside the batch may move.
func TestReplBatchCloneSafety(t *testing.T) {
	state := vclock.Vector{4, 4, 4}
	var retained []*txn.Transaction
	var clones []*txn.Transaction
	var want []*txn.Transaction
	for seq := uint64(1); seq <= 3; seq++ {
		tx := makeTx()
		tx.Dot.Seq = seq
		retained = append(retained, tx)
		clones = append(clones, tx.Clone())
		want = append(want, tx.Clone())
	}
	msg := ReplBatch{From: 1, Txs: clones, State: state.Clone()}

	state = state.Set(0, 9) // the sender's vector keeps advancing
	for _, tx := range retained {
		tx.Snapshot = tx.Snapshot.Join(vclock.Vector{9, 9, 9})
		tx.AppendUpdate(txn.ObjectID{Bucket: "b", Key: "late"}, crdt.KindCounter,
			crdt.Op{Counter: &crdt.CounterOp{Delta: 1}})
	}
	if !msg.State.Equal(vclock.Vector{4, 4, 4}) {
		t.Errorf("batch state mutated: %v", msg.State)
	}
	for i := range want {
		if !reflect.DeepEqual(msg.Txs[i], want[i]) {
			t.Errorf("batched tx %d diverged from wire image:\n got %+v\nwant %+v", i, msg.Txs[i], want[i])
		}
	}
}

// TestBatchUnits pins the unit accounting the network substrate uses: a
// replication batch stands for one logical message per payload-bearing
// transaction (partial-replication stubs are free beyond the frame itself),
// a push with no transactions (pure stability advance) still counts as
// one, and an uplink flight and its ack count one per transaction.
func TestBatchUnits(t *testing.T) {
	var txs []*txn.Transaction
	for seq := uint64(1); seq <= 5; seq++ {
		tx := makeTx()
		tx.Dot.Seq = seq
		txs = append(txs, tx)
	}
	if got := (ReplBatch{Txs: txs}).Units(); got != 5 {
		t.Errorf("ReplBatch units = %d, want 5", got)
	}
	if got := (ReplBatch{}).Units(); got != 1 {
		t.Errorf("empty ReplBatch units = %d, want 1", got)
	}
	stubbed := []*txn.Transaction{txs[0]}
	for _, tx := range txs[1:] {
		s := tx.Clone()
		s.Updates = nil
		stubbed = append(stubbed, s)
	}
	if got := (ReplBatch{Txs: stubbed}).Units(); got != 1 {
		t.Errorf("stub-heavy ReplBatch units = %d, want 1", got)
	}
	if got := (PushTxs{Txs: txs[:2]}).Units(); got != 2 {
		t.Errorf("PushTxs units = %d, want 2", got)
	}
	if got := (PushTxs{}).Units(); got != 1 {
		t.Errorf("stability-only PushTxs units = %d, want 1", got)
	}
	if got := (EdgeCommit{Tx: txs[0], Next: txs[1:]}).Units(); got != 5 {
		t.Errorf("EdgeCommit flight of 5 units = %d, want 5", got)
	}
	if got := (EdgeCommit{Tx: txs[0]}).Units(); got != 1 {
		t.Errorf("single EdgeCommit units = %d, want 1", got)
	}
	if got := (EdgeCommitAck{Next: make([]EdgeCommitAck, 2)}).Units(); got != 3 {
		t.Errorf("EdgeCommitAck covering 3 units = %d, want 3", got)
	}
}
