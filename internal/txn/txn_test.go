package txn

import (
	"testing"

	"colony/internal/crdt"
	"colony/internal/vclock"
)

func sample() *Transaction {
	t := &Transaction{
		Dot:      vclock.Dot{Node: "edgeA", Seq: 3},
		Origin:   "edgeA",
		Actor:    "alice",
		Snapshot: vclock.Vector{1, 2, 0},
	}
	t.AppendUpdate(ObjectID{Bucket: "b", Key: "x"}, crdt.KindCounter,
		crdt.Op{Counter: &crdt.CounterOp{Delta: 1}})
	t.AppendUpdate(ObjectID{Bucket: "b", Key: "y"}, crdt.KindCounter,
		crdt.Op{Counter: &crdt.CounterOp{Delta: 2}})
	t.AppendUpdate(ObjectID{Bucket: "b", Key: "x"}, crdt.KindCounter,
		crdt.Op{Counter: &crdt.CounterOp{Delta: 3}})
	return t
}

func TestObjectIDString(t *testing.T) {
	id := ObjectID{Bucket: "users", Key: "alice"}
	if got := id.String(); got != "users/alice" {
		t.Fatalf("String = %q", got)
	}
}

func TestAppendUpdateAssignsSeq(t *testing.T) {
	tx := sample()
	for i, u := range tx.Updates {
		if u.Seq != i {
			t.Fatalf("update %d has seq %d", i, u.Seq)
		}
	}
	// Meta ties the tag to the dot and seq.
	m := tx.Meta(2)
	if m.Dot != tx.Dot || m.Seq != 2 {
		t.Fatalf("meta = %+v", m)
	}
}

func TestObjectsDeduplicates(t *testing.T) {
	tx := sample()
	objs := tx.Objects()
	if len(objs) != 2 {
		t.Fatalf("objects = %v", objs)
	}
	if objs[0].Key != "x" || objs[1].Key != "y" {
		t.Fatalf("order = %v", objs)
	}
}

func TestSymbolicAndVisibility(t *testing.T) {
	tx := sample()
	if !tx.Symbolic() {
		t.Fatal("fresh tx should be symbolic")
	}
	if tx.VisibleAt(vclock.Vector{9, 9, 9}) {
		t.Fatal("symbolic tx visible")
	}
	if _, ok := tx.CommitVector(); ok {
		t.Fatal("symbolic tx has no commit vector")
	}
	tx.Commit = vclock.CommitStamps{1: 3}
	if tx.Symbolic() {
		t.Fatal("stamped tx still symbolic")
	}
	if !tx.VisibleAt(vclock.Vector{1, 3, 0}) {
		t.Fatal("tx not visible at its commit vector")
	}
	if tx.VisibleAt(vclock.Vector{1, 2, 0}) {
		t.Fatal("tx visible below its commit vector")
	}
	cv, ok := tx.CommitVector()
	if !ok || !cv.Equal(vclock.Vector{1, 3, 0}) {
		t.Fatalf("commit vector = %v", cv)
	}
}

func TestCloneIsDeep(t *testing.T) {
	tx := sample()
	tx.Commit = vclock.CommitStamps{0: 5}
	cp := tx.Clone()
	cp.Snapshot[0] = 99
	cp.Commit[0] = 99
	cp.Updates[0].Seq = 99
	if tx.Snapshot[0] == 99 || tx.Commit[0] == 99 || tx.Updates[0].Seq == 99 {
		t.Fatal("Clone shares mutable state")
	}
	if cp.Dot != tx.Dot || cp.Origin != tx.Origin || cp.Actor != tx.Actor {
		t.Fatal("Clone lost identity fields")
	}
}

func TestRestrictPreservesSeqs(t *testing.T) {
	tx := sample()
	onlyX := tx.Restrict(func(u Update) bool { return u.Object.Key == "x" })
	if len(onlyX.Updates) != 2 {
		t.Fatalf("restricted updates = %d", len(onlyX.Updates))
	}
	if onlyX.Updates[0].Seq != 0 || onlyX.Updates[1].Seq != 2 {
		t.Fatalf("seqs = %d, %d", onlyX.Updates[0].Seq, onlyX.Updates[1].Seq)
	}
	// Restriction must not disturb the original.
	if len(tx.Updates) != 3 {
		t.Fatalf("original mutated: %d updates", len(tx.Updates))
	}
	// Meta on a restricted tx uses the preserved seq.
	if m := onlyX.Meta(1); m.Seq != 2 {
		t.Fatalf("restricted meta seq = %d", m.Seq)
	}
	// A view keeping every update is the transaction itself; one keeping
	// none is nil.
	if all := tx.Restrict(func(Update) bool { return true }); all != tx {
		t.Fatal("a view keeping every update is a copy")
	}
	if none := tx.Restrict(func(Update) bool { return false }); none != nil {
		t.Fatalf("a view keeping no update = %v", none)
	}
}

func TestWithLeavesOriginal(t *testing.T) {
	tx := sample()
	stamped := tx.WithCommit(vclock.CommitStamps{1: 4})
	joined := stamped.WithSnapshot(vclock.Vector{5, 2, 0})
	if !tx.Symbolic() || !tx.Snapshot.Equal(vclock.Vector{1, 2, 0}) {
		t.Fatalf("original written: %v", tx)
	}
	if stamped.Commit[1] != 4 || !stamped.Snapshot.Equal(tx.Snapshot) {
		t.Fatalf("WithCommit = %v", stamped)
	}
	if joined.Commit[1] != 4 || !joined.Snapshot.Equal(vclock.Vector{5, 2, 0}) {
		t.Fatalf("WithSnapshot = %v", joined)
	}
	if &joined.Updates[0] != &tx.Updates[0] {
		t.Fatal("a shallow copy copied the updates")
	}
}

func TestStringIsInformative(t *testing.T) {
	tx := sample()
	s := tx.String()
	if s == "" {
		t.Fatal("empty String")
	}
}
