package wire

import (
	"reflect"
	"testing"

	"colony/internal/crdt"
	"colony/internal/txn"
	"colony/internal/vclock"
)

// makeTx builds a two-update transaction the way an edge node does.
func makeTx() *txn.Transaction {
	t := &txn.Transaction{
		Dot:      vclock.Dot{Node: "edgeA", Seq: 7},
		Origin:   "edgeA",
		Actor:    "alice",
		Snapshot: vclock.Vector{3, 1, 0},
	}
	t.AppendUpdate(txn.ObjectID{Bucket: "b", Key: "n"}, crdt.KindCounter,
		crdt.Op{Counter: &crdt.CounterOp{Delta: 2}})
	t.AppendUpdate(txn.ObjectID{Bucket: "b", Key: "s"}, crdt.KindORSet,
		crdt.Op{Set: &crdt.ORSetOp{Elem: "x"}})
	return t
}

// TestReplTxCloneSafety asserts the package's sender contract: a
// transaction placed in a message is immutable, so a sender that clones
// before sending may keep mutating its own copy (snapshot resolution,
// commit promotion, update appends) without the in-flight message changing.
func TestReplTxCloneSafety(t *testing.T) {
	local := makeTx()
	msg := ReplBatch{From: 1, Txs: []*txn.Transaction{local.Clone()}, State: vclock.Vector{4, 4, 4}}
	sent := msg.Txs[0]
	want := local.Clone() // expected wire image

	// The sender's copy keeps evolving after the send.
	local.Snapshot = local.Snapshot.Join(vclock.Vector{9, 9, 9})
	stamps, err := local.Commit.Add(2, 42)
	if err != nil {
		t.Fatal(err)
	}
	local.Commit = stamps
	local.AppendUpdate(txn.ObjectID{Bucket: "b", Key: "late"}, crdt.KindCounter,
		crdt.Op{Counter: &crdt.CounterOp{Delta: 1}})

	if !sent.Snapshot.Equal(want.Snapshot) {
		t.Errorf("message snapshot mutated: %v, want %v", sent.Snapshot, want.Snapshot)
	}
	if len(sent.Commit) != len(want.Commit) {
		t.Errorf("message commit mutated: %v, want %v", sent.Commit, want.Commit)
	}
	if len(sent.Updates) != len(want.Updates) {
		t.Errorf("message updates mutated: %d entries, want %d", len(sent.Updates), len(want.Updates))
	}
	if !reflect.DeepEqual(sent, want) {
		t.Errorf("message transaction diverged from wire image:\n got %+v\nwant %+v", sent, want)
	}
}

// TestCloneRoundTripPreservesTags checks that a clone is a faithful wire
// round-trip: dots, per-update sequence tags and op payloads all survive, so
// the receiver derives the exact same CRDT tags as the sender.
func TestCloneRoundTripPreservesTags(t *testing.T) {
	orig := makeTx()
	got := orig.Clone()
	if !reflect.DeepEqual(got, orig) {
		t.Fatalf("clone not equal:\n got %+v\nwant %+v", got, orig)
	}
	for i := range orig.Updates {
		if got.Meta(i) != orig.Meta(i) {
			t.Errorf("update %d meta differs: %+v vs %+v", i, got.Meta(i), orig.Meta(i))
		}
	}
}

// TestRestrictedShardSlicePreservesSeq covers the multi-shard path: a DC
// coordinator Restricts a transaction to each shard's objects; the slice
// must keep the original in-transaction sequence numbers (CRDT tags) and be
// independent of the parent.
func TestRestrictedShardSlicePreservesSeq(t *testing.T) {
	orig := makeTx()
	slice := orig.Restrict(func(u txn.Update) bool { return u.Object.Key == "s" })
	if len(slice.Updates) != 1 {
		t.Fatalf("restricted to %d updates, want 1", len(slice.Updates))
	}
	if slice.Updates[0].Seq != 1 {
		t.Errorf("restricted update Seq = %d, want original tag 1", slice.Updates[0].Seq)
	}
	if slice.Meta(0) != orig.Meta(1) {
		t.Errorf("restricted meta %+v, want %+v", slice.Meta(0), orig.Meta(1))
	}
	// Mutating the slice must not reach the parent.
	slice.Snapshot = slice.Snapshot.Set(0, 99)
	if orig.Snapshot[0] == 99 {
		t.Error("restricted slice shares snapshot storage with parent")
	}
}

// TestObjectStateIsolation asserts that a materialised object shipped in
// SubscribeAck/ObjectState is a deep clone: the server mutating its live
// copy afterwards must not alter the shipped state.
func TestObjectStateIsolation(t *testing.T) {
	live := crdt.NewORSet()
	meta := crdt.Meta{Dot: vclock.Dot{Node: "dc0", Seq: 1}}
	if err := live.Apply(meta, live.PrepareAdd("a")); err != nil {
		t.Fatal(err)
	}
	msg := ObjectState{
		ID:     txn.ObjectID{Bucket: "b", Key: "s"},
		Kind:   live.Kind(),
		Object: live.Clone(),
		Vec:    vclock.Vector{1, 0, 0},
	}
	if err := live.Apply(crdt.Meta{Dot: vclock.Dot{Node: "dc0", Seq: 2}}, live.PrepareAdd("b")); err != nil {
		t.Fatal(err)
	}
	shipped := msg.Object.(*crdt.ORSet)
	if got := shipped.Elems(); !reflect.DeepEqual(got, []string{"a"}) {
		t.Errorf("shipped state mutated by server: %v, want [a]", got)
	}
	// And the receiver mutating its copy must not reach the server either.
	if err := shipped.Apply(crdt.Meta{Dot: vclock.Dot{Node: "edgeA", Seq: 1}}, shipped.PrepareAdd("c")); err != nil {
		t.Fatal(err)
	}
	if live.Contains("c") {
		t.Error("receiver mutation leaked into server state")
	}
}

// TestPushTxsBatchIsolation checks clone discipline over a batch: the
// sender promotes its retained transactions after the send, and none of the
// batched clones move.
func TestPushTxsBatchIsolation(t *testing.T) {
	var retained []*txn.Transaction
	var batch []*txn.Transaction
	for seq := uint64(1); seq <= 3; seq++ {
		tx := makeTx()
		tx.Dot.Seq = seq
		retained = append(retained, tx)
		batch = append(batch, tx.Clone())
	}
	msg := PushTxs{From: "dc0", Txs: batch, Stable: vclock.Vector{5, 5, 5}}
	for i, tx := range retained {
		stamps, err := tx.Commit.Add(0, uint64(10+i))
		if err != nil {
			t.Fatal(err)
		}
		tx.Commit = stamps
	}
	for i, tx := range msg.Txs {
		if !tx.Symbolic() {
			t.Errorf("batched tx %d gained a commit stamp after send: %v", i, tx.Commit)
		}
	}
}

// TestPushCursorAdmit pins the receiver's one rule: a frame is integrated iff
// it is of the cursor's generation and starts at or below the cursor, and
// only then does the cursor move — forward, never back.
func TestPushCursorAdmit(t *testing.T) {
	c := PushCursor{Gen: 7, Idx: 10}
	for _, tc := range []struct {
		gen    uint64
		lo, hi int
		ok     bool
		idx    int
	}{
		{7, 10, 12, true, 12},  // connects
		{7, 13, 15, false, 12}, // gap: a frame is missing
		{8, 12, 13, false, 12}, // another generation
		{0, 0, 0, false, 12},   // an unsequenced frame is not the cursor's to judge
		{7, 5, 9, true, 12},    // overlap below the cursor: dots deduplicate
		{7, 11, 14, true, 14},  // partial overlap advances to hi
		{7, 14, 14, true, 14},  // pure stability advance
	} {
		if ok := c.Admit(tc.gen, tc.lo, tc.hi); ok != tc.ok || c.Idx != tc.idx || c.Gen != 7 {
			t.Errorf("Admit(%d, %d, %d) = %v, cursor %+v; want %v at %d", tc.gen, tc.lo, tc.hi, ok, c, tc.ok, tc.idx)
		}
	}
}
