package clocksi

import (
	"errors"
	"fmt"
	"testing"

	"colony/internal/crdt"
	"colony/internal/store"
	"colony/internal/txn"
	"colony/internal/vclock"
)

func newCoordinator(t *testing.T, nShards int) *Coordinator {
	t.Helper()
	shards := make([]*Shard, nShards)
	for i := range shards {
		shards[i] = NewShard(fmt.Sprintf("shard%d", i), uint64(i)) // skewed clocks
	}
	c, err := NewCoordinator(shards, 32)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func counterTx(node string, seq uint64, snap vclock.Vector, keys ...string) *txn.Transaction {
	t := &txn.Transaction{
		Dot:      vclock.Dot{Node: node, Seq: seq},
		Origin:   node,
		Snapshot: snap.Clone(),
	}
	for _, k := range keys {
		t.AppendUpdate(txn.ObjectID{Bucket: "b", Key: k},
			crdt.KindCounter, crdt.Op{Counter: &crdt.CounterOp{Delta: 1}})
	}
	return t
}

func TestRingDeterministicAndBalanced(t *testing.T) {
	shards := []string{"s0", "s1", "s2", "s3"}
	r1, err := NewRing(shards, 64)
	if err != nil {
		t.Fatal(err)
	}
	r2, _ := NewRing(shards, 64)
	counts := make(map[string]int)
	for i := 0; i < 4000; i++ {
		id := txn.ObjectID{Bucket: "b", Key: fmt.Sprintf("key%d", i)}
		a, b := r1.Lookup(id), r2.Lookup(id)
		if a != b {
			t.Fatalf("ring lookup not deterministic for %v: %s vs %s", id, a, b)
		}
		counts[a]++
	}
	for s, n := range counts {
		if n < 400 || n > 2200 {
			t.Errorf("shard %s holds %d of 4000 keys — ring badly unbalanced", s, n)
		}
	}
	if len(counts) != 4 {
		t.Fatalf("only %d shards used", len(counts))
	}
	if _, err := NewRing(nil, 8); err == nil {
		t.Fatal("empty ring must error")
	}
}

func TestRingPartitionPreservesSeq(t *testing.T) {
	r, _ := NewRing([]string{"s0", "s1", "s2"}, 64)
	tx := counterTx("dc0", 1, vclock.Vector{0}, "a", "b", "c", "d", "e", "f", "g", "h")
	parts := r.Partition(tx)
	seen := make(map[int]bool)
	for shard, part := range parts {
		for _, u := range part.Updates {
			if r.Lookup(u.Object) != shard {
				t.Fatalf("update %v routed to wrong shard %s", u.Object, shard)
			}
			if seen[u.Seq] {
				t.Fatalf("duplicate seq %d across partitions", u.Seq)
			}
			seen[u.Seq] = true
		}
	}
	if len(seen) != len(tx.Updates) {
		t.Fatalf("partitions cover %d updates, want %d", len(seen), len(tx.Updates))
	}
}

func TestClock(t *testing.T) {
	c := NewClock(5)
	if got := c.Tick(); got != 6 {
		t.Fatalf("first tick = %d", got)
	}
	c.Witness(100)
	if got := c.Tick(); got != 101 {
		t.Fatalf("tick after witness = %d", got)
	}
	c.Witness(50)
	if got := c.Now(); got != 101 {
		t.Fatalf("stale witness moved clock: %d", got)
	}
}

func TestCommitAcrossShards(t *testing.T) {
	c := newCoordinator(t, 3)
	var seq uint64
	assign := func(maxPrepare uint64) (int, uint64) {
		if maxPrepare > seq {
			seq = maxPrepare
		}
		seq++
		return 0, seq
	}
	tx := counterTx("dc0", 1, vclock.Vector{0}, "a", "b", "c", "d")
	stamps, err := c.Commit(tx, assign)
	if err != nil {
		t.Fatal(err)
	}
	if stamps.Symbolic() {
		t.Fatal("commit produced symbolic stamps")
	}
	ts := stamps[0]
	// Every update readable at the commit vector, none prepared left over.
	at := vclock.Vector{ts}
	for _, key := range []string{"a", "b", "c", "d"} {
		obj, err := c.Read(txn.ObjectID{Bucket: "b", Key: key}, at, store.ReadOptions{})
		if err != nil {
			t.Fatalf("read %s: %v", key, err)
		}
		if obj.(*crdt.Counter).Total() != 1 {
			t.Fatalf("key %s total = %d", key, obj.(*crdt.Counter).Total())
		}
	}
	for _, s := range c.shards {
		if s.PreparedCount() != 0 {
			t.Fatalf("shard %s left %d prepared", s.Name(), s.PreparedCount())
		}
	}
	if !c.Contains(tx) {
		t.Fatal("Contains = false after commit")
	}
}

func TestCommitTimestampAtLeastMaxPrepare(t *testing.T) {
	c := newCoordinator(t, 4)
	gotMax := uint64(0)
	assign := func(maxPrepare uint64) (int, uint64) {
		gotMax = maxPrepare
		return 0, maxPrepare + 1
	}
	tx := counterTx("dc0", 1, vclock.Vector{0}, "k1", "k2", "k3", "k4", "k5", "k6")
	if _, err := c.Commit(tx, assign); err != nil {
		t.Fatal(err)
	}
	// Shards have skews 0..3, so the max prepare timestamp must reflect the
	// most-skewed participating clock (≥1 in all cases).
	if gotMax == 0 {
		t.Fatal("assign never saw a prepare timestamp")
	}
}

func TestDuplicateCommitRejected(t *testing.T) {
	c := newCoordinator(t, 2)
	assign := func(mp uint64) (int, uint64) { return 0, mp + 1 }
	tx := counterTx("edgeA", 1, vclock.Vector{0}, "x")
	if _, err := c.Commit(tx, assign); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Commit(tx.Clone(), assign); !errors.Is(err, store.ErrDuplicate) {
		t.Fatalf("duplicate commit = %v", err)
	}
}

func TestAbortReleasesPrepares(t *testing.T) {
	c := newCoordinator(t, 2)
	tx := counterTx("dc0", 1, vclock.Vector{0}, "x", "y", "z")
	// Prepare one partition manually, then force a duplicate error on the
	// same shard for a second transaction sharing an object.
	parts := c.ring.Partition(tx)
	var firstShard string
	for name := range parts {
		firstShard = name
		break
	}
	if _, err := c.shards[firstShard].Prepare(parts[firstShard]); err != nil {
		t.Fatal(err)
	}
	// Committing the full transaction now hits ErrDuplicate on firstShard;
	// prepares taken on the other shards must be rolled back.
	if _, err := c.Commit(tx, func(mp uint64) (int, uint64) { return 0, mp + 1 }); err == nil {
		t.Fatal("expected prepare conflict")
	}
	for name, s := range c.shards {
		want := 0
		if name == firstShard {
			want = 1 // the manual prepare is still pending
		}
		if got := s.PreparedCount(); got != want {
			t.Fatalf("shard %s prepared = %d, want %d", name, got, want)
		}
	}
}

// TestCommitPhaseFailureReleasesPrepares: a shard whose store rejects its
// partition in the commit phase (an update of a register as a counter)
// fails the commit, and no shard is left holding a prepare. The shards are
// visited in map order, so the failing shard is tried at every position
// over the rounds.
func TestCommitPhaseFailureReleasesPrepares(t *testing.T) {
	keys := make([]string, 16)
	for i := range keys {
		keys[i] = fmt.Sprintf("k%d", i)
	}
	for round := 0; round < 8; round++ {
		c := newCoordinator(t, 4)
		reg := &txn.Transaction{Dot: vclock.Dot{Node: "dc1", Seq: 1}, Origin: "dc1",
			Snapshot: vclock.Vector{0, 0}, Commit: vclock.CommitStamps{1: 1}}
		reg.AppendUpdate(txn.ObjectID{Bucket: "b", Key: "k0"}, crdt.KindLWWRegister, crdt.Op{LWW: &crdt.LWWRegisterOp{Value: "v"}})
		if err := c.ApplyCommitted(reg); err != nil {
			t.Fatal(err)
		}
		tx := counterTx("dc0", 1, vclock.Vector{0, 0}, keys...)
		if _, err := c.Commit(tx, func(mp uint64) (int, uint64) { return 0, mp + 1 }); !errors.Is(err, crdt.ErrKindMismatch) {
			t.Fatalf("round %d: commit = %v, want a kind mismatch", round, err)
		}
		for name, s := range c.shards {
			if got := s.PreparedCount(); got != 0 {
				t.Fatalf("round %d: shard %s still holds %d prepares after the failed commit", round, name, got)
			}
		}
	}
}

func TestApplyCommittedIdempotent(t *testing.T) {
	c := newCoordinator(t, 3)
	tx := counterTx("dc1", 1, vclock.Vector{0, 0}, "a", "b", "c")
	tx.Commit = vclock.CommitStamps{1: 1}
	if err := c.ApplyCommitted(tx); err != nil {
		t.Fatal(err)
	}
	if err := c.ApplyCommitted(tx.Clone()); err != nil {
		t.Fatalf("re-apply must be idempotent: %v", err)
	}
	obj, err := c.Read(txn.ObjectID{Bucket: "b", Key: "a"}, vclock.Vector{0, 1}, store.ReadOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if obj.(*crdt.Counter).Total() != 1 {
		t.Fatalf("total = %d after duplicate apply", obj.(*crdt.Counter).Total())
	}
}

func TestSnapshotReadsAreStable(t *testing.T) {
	c := newCoordinator(t, 2)
	var seq uint64
	assign := func(mp uint64) (int, uint64) {
		if mp > seq {
			seq = mp
		}
		seq++
		return 0, seq
	}
	id := txn.ObjectID{Bucket: "b", Key: "x"}
	var commits []uint64
	for i := uint64(1); i <= 3; i++ {
		tx := counterTx("dc0", i, vclock.Vector{seq}, "x")
		stamps, err := c.Commit(tx, assign)
		if err != nil {
			t.Fatal(err)
		}
		commits = append(commits, stamps[0])
	}
	// A snapshot at the first commit keeps returning 1 regardless of later
	// commits (SI: reads from a fixed snapshot).
	at := vclock.Vector{commits[0]}
	for i := 0; i < 2; i++ {
		obj, err := c.Read(id, at, store.ReadOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if got := obj.(*crdt.Counter).Total(); got != 1 {
			t.Fatalf("snapshot read = %d, want 1", got)
		}
	}
	head := vclock.Vector{commits[2]}
	obj, err := c.Read(id, head, store.ReadOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if got := obj.(*crdt.Counter).Total(); got != 3 {
		t.Fatalf("head read = %d, want 3", got)
	}
}

func TestAdvance(t *testing.T) {
	c := newCoordinator(t, 2)
	var seq uint64
	assign := func(mp uint64) (int, uint64) {
		if mp > seq {
			seq = mp
		}
		seq++
		return 0, seq
	}
	for i := uint64(1); i <= 5; i++ {
		if _, err := c.Commit(counterTx("dc0", i, vclock.Vector{0}, "x", "y"), assign); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Advance(vclock.Vector{seq}, true); err != nil {
		t.Fatal(err)
	}
	obj, err := c.Read(txn.ObjectID{Bucket: "b", Key: "x"}, vclock.Vector{seq}, store.ReadOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if got := obj.(*crdt.Counter).Total(); got != 5 {
		t.Fatalf("total after advance = %d", got)
	}
}
