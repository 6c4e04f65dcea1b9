package store

import (
	"reflect"
	"sync"
	"testing"

	"colony/internal/crdt"
	"colony/internal/txn"
	"colony/internal/vclock"
	"colony/internal/wire"
)

// TestSharedTxWritersAndReaders shares one transaction between a store whose
// holder learns stamps and a snapshot join (Promote, a duplicate
// ApplyGroupVisible carrying a stamp, ResolveSnapshot) while its objects
// are read, an encoder, and a second store that applies and promotes it.
// Under the race detector it shows no holder writes the transaction; the
// value must also still equal the copy taken before the hand-off.
func TestSharedTxWritersAndReaders(t *testing.T) {
	other := txn.ObjectID{Bucket: "c", Key: "y"}
	everything := vclock.Vector{100, 100, 100}
	for seq := uint64(1); seq <= 50; seq++ {
		tx := &txn.Transaction{Dot: vclock.Dot{Node: "edgeA", Seq: seq}, Origin: "edgeA", Snapshot: vclock.Vector{1, 0, 0}}
		for _, id := range []txn.ObjectID{counterID, other} {
			tx.AppendUpdate(id, crdt.KindCounter, crdt.Op{Counter: &crdt.CounterOp{Delta: 1}})
		}
		before := tx.Clone()
		owner, second := New("edgeA"), New("dc0")
		if err := owner.Apply(tx); err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		run := func(f func()) {
			wg.Add(1)
			go func() {
				defer wg.Done()
				f()
			}()
		}
		run(func() {
			if _, err := owner.Promote(tx.Dot, 0, 7); err != nil {
				t.Error(err)
			}
			if err := owner.ApplyGroupVisible(tx.WithCommit(vclock.CommitStamps{1: 4})); err != ErrDuplicate {
				t.Errorf("duplicate ApplyGroupVisible = %v", err)
			}
			if _, err := owner.ResolveSnapshot(tx.Dot, vclock.Vector{1, 2, 3}); err != nil {
				t.Error(err)
			}
		})
		run(func() {
			for i := 0; i < 4; i++ {
				_, _ = owner.Value(counterID, everything, ReadOptions{})
				_, _ = owner.Value(other, everything, ReadOptions{SelfVisible: true})
			}
		})
		run(func() {
			if _, err := wire.EncodeMessage(nil, wire.ReplBatch{From: 0, Txs: []*txn.Transaction{tx}}); err != nil {
				t.Error(err)
			}
		})
		run(func() {
			if err := second.Apply(tx); err != nil {
				t.Error(err)
			}
			if _, err := second.Promote(tx.Dot, 2, 9); err != nil {
				t.Error(err)
			}
			_, _ = second.Value(counterID, everything, ReadOptions{})
		})
		wg.Wait()
		if !reflect.DeepEqual(tx, before) {
			t.Fatalf("a holder wrote the shared transaction: %v, handed over as %v", tx, before)
		}
		rec, _ := owner.Transaction(tx.Dot)
		if !reflect.DeepEqual(rec.Commit, vclock.CommitStamps{0: 7, 1: 4}) || !rec.Snapshot.Equal(vclock.Vector{1, 2, 3}) || !owner.GroupVisible(tx.Dot) {
			t.Fatalf("owner holds %v, group-visible %v", rec, owner.GroupVisible(tx.Dot))
		}
		if rec, _ := second.Transaction(tx.Dot); !reflect.DeepEqual(rec.Commit, vclock.CommitStamps{2: 9}) {
			t.Fatalf("second store holds %v", rec)
		}
	}
}
