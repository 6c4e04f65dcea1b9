package store

import (
	"errors"
	"fmt"
	"sync"
	"testing"

	"colony/internal/crdt"
	"colony/internal/txn"
	"colony/internal/vclock"
)

var counterID = txn.ObjectID{Bucket: "b", Key: "x"}

// incTx builds a committed counter-increment transaction: origin node,
// per-node sequence, snapshot, accepting DC and its timestamp.
func incTx(node string, seq uint64, snap vclock.Vector, dc int, ts uint64, delta int64) *txn.Transaction {
	t := &txn.Transaction{
		Dot:      vclock.Dot{Node: node, Seq: seq},
		Origin:   node,
		Snapshot: snap.Clone(),
		Updates: []txn.Update{{
			Object: counterID,
			Kind:   crdt.KindCounter,
			Op:     crdt.Op{Counter: &crdt.CounterOp{Delta: delta}},
		}},
	}
	if ts > 0 {
		t.Commit = vclock.CommitStamps{dc: ts}
	}
	return t
}

func readCounter(t *testing.T, s *Store, at vclock.Vector, opts ReadOptions) int64 {
	t.Helper()
	v, err := s.Value(counterID, at, opts)
	if err != nil {
		t.Fatalf("Value: %v", err)
	}
	return v.(int64)
}

func TestApplyAndRead(t *testing.T) {
	s := New("dc0")
	// The Figure 2 scenario: T0 commits at DC0 ([1,0,0]), T1 at DC1
	// ([0,1,0]); DC2 observes both and reads 2 at the LUB [1,1,0].
	t0 := incTx("dc0", 1, vclock.Vector{0, 0, 0}, 0, 1, 1)
	t1 := incTx("dc1", 1, vclock.Vector{0, 0, 0}, 1, 1, 1)
	if err := s.Apply(t0); err != nil {
		t.Fatal(err)
	}
	if err := s.Apply(t1); err != nil {
		t.Fatal(err)
	}
	tests := []struct {
		at   vclock.Vector
		want int64
	}{
		{vclock.Vector{0, 0, 0}, 0},
		{vclock.Vector{1, 0, 0}, 1},
		{vclock.Vector{0, 1, 0}, 1},
		{vclock.Vector{1, 1, 0}, 2},
	}
	for _, tt := range tests {
		t.Run(fmt.Sprint(tt.at), func(t *testing.T) {
			if got := readCounter(t, s, tt.at, ReadOptions{}); got != tt.want {
				t.Errorf("value at %v = %d, want %d", tt.at, got, tt.want)
			}
		})
	}
}

func TestDuplicateDotRejected(t *testing.T) {
	s := New("dc0")
	t0 := incTx("edgeA", 1, vclock.Vector{0}, 0, 1, 1)
	if err := s.Apply(t0); err != nil {
		t.Fatal(err)
	}
	// A migrated edge node may re-send the same transaction via another DC.
	if err := s.Apply(t0.Clone()); !errors.Is(err, ErrDuplicate) {
		t.Fatalf("re-apply err = %v, want ErrDuplicate", err)
	}
	if got := readCounter(t, s, vclock.Vector{1}, ReadOptions{}); got != 1 {
		t.Fatalf("duplicate applied twice: value = %d", got)
	}
}

func TestReadMyWrites(t *testing.T) {
	s := New("edgeA")
	// Symbolic local transaction: no DC commit yet.
	local := incTx("edgeA", 1, vclock.Vector{0}, 0, 0, 1)
	if err := s.Apply(local); err != nil {
		t.Fatal(err)
	}
	// Invisible to a plain read at any vector...
	if got := readCounter(t, s, vclock.Vector{9, 9}, ReadOptions{}); got != 0 {
		t.Fatalf("symbolic tx leaked: %d", got)
	}
	// ...but always visible to its origin.
	if got := readCounter(t, s, vclock.Vector{0}, ReadOptions{SelfVisible: true}); got != 1 {
		t.Fatalf("read-my-writes broken: %d", got)
	}
	// Another node's store does not treat it as self.
	other := New("edgeB")
	if err := other.Apply(local.Clone()); err != nil {
		t.Fatal(err)
	}
	if got := readCounter(t, other, vclock.Vector{0}, ReadOptions{SelfVisible: true}); got != 0 {
		t.Fatalf("foreign symbolic tx visible: %d", got)
	}
}

func TestPromoteMakesVisible(t *testing.T) {
	s := New("edgeA")
	local := incTx("edgeA", 1, vclock.Vector{0, 0}, 0, 0, 1)
	if err := s.Apply(local); err != nil {
		t.Fatal(err)
	}
	cv, err := s.Promote(local.Dot, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !cv.Equal(vclock.Vector{1, 0}) {
		t.Fatalf("commit vector = %v, want [1 0]", cv)
	}
	if got := readCounter(t, s, vclock.Vector{1, 0}, ReadOptions{}); got != 1 {
		t.Fatalf("promoted tx not visible: %d", got)
	}
	// Equivalent commit vector from a second DC after migration.
	// The commit vector stays the lowest DC index's.
	if cv, err := s.Promote(local.Dot, 1, 4); err != nil || !cv.Equal(vclock.Vector{1, 0}) {
		t.Fatalf("second promote = %v, %v; want [1 0]", cv, err)
	}
	if got := readCounter(t, s, vclock.Vector{0, 4}, ReadOptions{}); got != 1 {
		t.Fatalf("equivalent commit vector not honoured: %d", got)
	}
	if _, err := s.Promote(vclock.Dot{Node: "ghost", Seq: 1}, 0, 1); !errors.Is(err, ErrUnknownTx) {
		t.Fatalf("promote unknown = %v", err)
	}
}

func TestGroupVisibleMark(t *testing.T) {
	s := New("peer1")
	remote := incTx("peer2", 1, vclock.Vector{0}, 0, 0, 5)
	if err := s.Apply(remote); err != nil {
		t.Fatal(err)
	}
	// Invisible by vector until the group orders it.
	if got := readCounter(t, s, vclock.Vector{0}, ReadOptions{}); got != 0 {
		t.Fatalf("unexpected visibility: %d", got)
	}
	if s.GroupVisible(remote.Dot) {
		t.Fatal("Apply marked the transaction group-visible")
	}
	// The group's delivery of the same dot marks the journalled entry and
	// absorbs the commit stamp it carries.
	again := incTx("peer2", 1, vclock.Vector{0}, 0, 7, 5)
	if err := s.ApplyGroupVisible(again); !errors.Is(err, ErrDuplicate) {
		t.Fatalf("re-delivery = %v, want ErrDuplicate", err)
	}
	if got := readCounter(t, s, vclock.Vector{0}, ReadOptions{}); got != 5 {
		t.Fatalf("group-visible mark ignored: %d", got)
	}
	if cur, _ := s.Transaction(remote.Dot); cur.Commit[0] != 7 {
		t.Fatalf("re-delivery's stamp not absorbed: %v", cur.Commit)
	}
	// Marked on arrival: readable at the empty cut at once, exactly once.
	if err := s.ApplyGroupVisible(incTx("peer2", 2, vclock.Vector{0}, 0, 0, 2)); err != nil {
		t.Fatal(err)
	}
	if got := readCounter(t, s, vclock.Vector{0}, ReadOptions{}); got != 7 {
		t.Fatalf("marked-on-arrival read = %d, want 7", got)
	}
}

// TestGroupVisibleMarkLifetime follows the mark through the operations that
// rebuild or truncate a journal: it survives Seed (reattach), stays with an
// entry Advance cannot fold, and is released together with the dot.
func TestGroupVisibleMarkLifetime(t *testing.T) {
	s := New("peer1")
	s.SetCacheMode(true)
	sym := incTx("peer2", 1, vclock.Vector{0}, 0, 0, 5) // symbolic: no cut covers it
	con := incTx("peer2", 2, vclock.Vector{0}, 0, 3, 2) // concrete at {3}
	for _, tx := range []*txn.Transaction{sym, con} {
		// The cache does not hold the object yet: recorded, not journalled.
		if err := s.ApplyGroupVisible(tx); err != nil {
			t.Fatal(err)
		}
	}
	s.Seed(counterID, crdt.NewCounter(), vclock.Vector{0})
	if got := readCounter(t, s, vclock.Vector{0}, ReadOptions{}); got != 7 {
		t.Fatalf("after Seed = %d, want 7 (marks survive reattach)", got)
	}

	// Advance with dots kept: the covered entry folds, the symbolic one stays
	// in the journal, still marked.
	if err := s.Advance(vclock.Vector{3}, true); err != nil {
		t.Fatal(err)
	}
	if got := s.JournalLen(counterID); got != 1 {
		t.Fatalf("journal after Advance = %d, want 1", got)
	}
	if got := readCounter(t, s, vclock.Vector{0}, ReadOptions{}); got != 7 {
		t.Fatalf("after Advance = %d, want 7 (uncovered entry keeps its mark)", got)
	}
	if !s.GroupVisible(sym.Dot) || !s.GroupVisible(con.Dot) {
		t.Fatal("kept dots lost their marks")
	}

	// Once a cut covers it, releasing the dot releases the mark.
	if _, err := s.Promote(sym.Dot, 0, 4); err != nil {
		t.Fatal(err)
	}
	if err := s.Advance(vclock.Vector{4}, false); err != nil {
		t.Fatal(err)
	}
	if s.Contains(sym.Dot) || s.GroupVisible(sym.Dot) {
		t.Fatal("released dot kept its mark")
	}
	if !s.GroupVisible(con.Dot) {
		t.Fatal("a dot folded by an earlier keep-dots Advance was released")
	}
	if got := readCounter(t, s, vclock.Vector{4}, ReadOptions{}); got != 7 {
		t.Fatalf("after release = %d, want 7", got)
	}
}

func TestAdvanceTruncatesJournal(t *testing.T) {
	s := New("dc0")
	for i := uint64(1); i <= 4; i++ {
		if err := s.Apply(incTx("dc0", i, vclock.Vector{i - 1}, 0, i, 1)); err != nil {
			t.Fatal(err)
		}
	}
	if got := s.JournalLen(counterID); got != 4 {
		t.Fatalf("journal = %d", got)
	}
	if err := s.Advance(vclock.Vector{2}, false); err != nil {
		t.Fatal(err)
	}
	if got := s.JournalLen(counterID); got != 2 {
		t.Fatalf("journal after advance = %d", got)
	}
	// Reads below the base now see the base (store does not time-travel
	// before its base version), at and above stay exact.
	if got := readCounter(t, s, vclock.Vector{2}, ReadOptions{}); got != 2 {
		t.Fatalf("value at base = %d", got)
	}
	if got := readCounter(t, s, vclock.Vector{4}, ReadOptions{}); got != 4 {
		t.Fatalf("value at head = %d", got)
	}
	if got := s.TxCount(); got != 2 {
		t.Fatalf("TxCount = %d, want folded dots released", got)
	}
	// keepDots retains the duplicate filter.
	s2 := New("dc0")
	tx := incTx("edgeA", 1, vclock.Vector{0}, 0, 1, 1)
	if err := s2.Apply(tx); err != nil {
		t.Fatal(err)
	}
	if err := s2.Advance(vclock.Vector{1}, true); err != nil {
		t.Fatal(err)
	}
	if err := s2.Apply(tx.Clone()); !errors.Is(err, ErrDuplicate) {
		t.Fatalf("dot filter lost after advance: %v", err)
	}
}

func TestSeedAndEvict(t *testing.T) {
	s := New("edgeA")
	base := crdt.NewCounter()
	if err := base.Apply(crdt.Meta{Dot: vclock.Dot{Node: "dc0", Seq: 1}}, base.PrepareIncrement(7)); err != nil {
		t.Fatal(err)
	}
	s.Seed(counterID, base, vclock.Vector{3})
	if got := readCounter(t, s, vclock.Vector{3}, ReadOptions{}); got != 7 {
		t.Fatalf("seeded value = %d", got)
	}
	if bv, ok := s.BaseVector(counterID); !ok || !bv.Equal(vclock.Vector{3}) {
		t.Fatalf("BaseVector = %v, %v", bv, ok)
	}
	s.Evict(counterID)
	if s.Has(counterID) {
		t.Fatal("object survived eviction")
	}
	if _, err := s.Read(counterID, vclock.Vector{3}, ReadOptions{}); !errors.Is(err, ErrNotFound) {
		t.Fatalf("read after evict = %v", err)
	}
}

func TestKindConflict(t *testing.T) {
	s := New("dc0")
	if err := s.Apply(incTx("dc0", 1, vclock.Vector{0}, 0, 1, 1)); err != nil {
		t.Fatal(err)
	}
	bad := &txn.Transaction{
		Dot:      vclock.Dot{Node: "dc0", Seq: 2},
		Origin:   "dc0",
		Snapshot: vclock.Vector{1},
		Commit:   vclock.CommitStamps{0: 2},
		Updates: []txn.Update{{
			Object: counterID,
			Kind:   crdt.KindORSet,
			Op:     crdt.Op{Set: &crdt.ORSetOp{Elem: "e"}},
		}},
	}
	if err := s.Apply(bad); err == nil {
		t.Fatal("kind conflict must error")
	}
}

func TestMultiUpdateTransactionAtomicity(t *testing.T) {
	s := New("dc0")
	a := txn.ObjectID{Bucket: "b", Key: "a"}
	b := txn.ObjectID{Bucket: "b", Key: "b"}
	tx := &txn.Transaction{
		Dot:      vclock.Dot{Node: "dc0", Seq: 1},
		Origin:   "dc0",
		Snapshot: vclock.Vector{0},
		Commit:   vclock.CommitStamps{0: 1},
		Updates: []txn.Update{
			{Object: a, Kind: crdt.KindCounter, Op: crdt.Op{Counter: &crdt.CounterOp{Delta: 1}}},
			{Object: b, Kind: crdt.KindCounter, Op: crdt.Op{Counter: &crdt.CounterOp{Delta: 2}}},
		},
	}
	if err := s.Apply(tx); err != nil {
		t.Fatal(err)
	}
	// Below the commit vector neither update is visible; at it, both are.
	for _, tt := range []struct {
		at           vclock.Vector
		wantA, wantB int64
	}{
		{vclock.Vector{0}, 0, 0},
		{vclock.Vector{1}, 1, 2},
	} {
		va, err := s.Value(a, tt.at, ReadOptions{})
		if err != nil {
			t.Fatal(err)
		}
		vb, err := s.Value(b, tt.at, ReadOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if va.(int64) != tt.wantA || vb.(int64) != tt.wantB {
			t.Fatalf("at %v: a=%v b=%v, want %d/%d", tt.at, va, vb, tt.wantA, tt.wantB)
		}
	}
}

// TestReadSeedAgreesWithState checks the collaborative-cache seed read: over
// a journal mixing cut-visible, marked-and-uncovered, marked-and-covered and
// unmarked symbolic entries, a group-visible entry the returned coverage does
// not admit is declared folded iff the returned state contains its effect —
// and a store seeded from the three results, then handed every transaction
// again, ends up with each effect exactly once.
func TestReadSeedAgreesWithState(t *testing.T) {
	// Each transaction adds its own bit, so a state names the effects in it.
	type tx struct {
		seq    uint64
		ts     uint64 // commit timestamp at DC 0; 0 = symbolic
		marked bool
	}
	txs := []tx{
		{seq: 1, ts: 1},               // folded into the base below
		{seq: 2, ts: 2, marked: true}, // cut-visible and marked
		{seq: 3, ts: 3},               // cut-visible
		{seq: 4, marked: true},        // marked, symbolic: no cut covers it
		{seq: 5, ts: 9, marked: true}, // marked, concrete above every cut read here
		{seq: 6},                      // unmarked symbolic: in no seed
		{seq: 7, ts: 8},               // unmarked, above the cuts read here
	}
	build := func(x tx) *txn.Transaction { return incTx("peer", x.seq, vclock.Vector{0}, 0, x.ts, 1<<x.seq) }
	deliver := func(s *Store, x tx) {
		t.Helper()
		apply := s.Apply
		if x.marked {
			apply = s.ApplyGroupVisible
		}
		if err := apply(build(x)); err != nil && !errors.Is(err, ErrDuplicate) {
			t.Fatal(err)
		}
	}
	src := New("parent")
	for _, x := range txs {
		deliver(src, x)
	}
	if err := src.Advance(vclock.Vector{1}, true); err != nil {
		t.Fatal(err)
	}

	for _, at := range []vclock.Vector{{0}, {1}, {2}, {3}, {8}, {9}} {
		state, coverage, folded, err := src.ReadSeed(counterID, at)
		if err != nil {
			t.Fatal(err)
		}
		got := state.(*crdt.Counter).Total()
		declared := make(map[vclock.Dot]bool)
		for _, d := range folded {
			if declared[d] {
				t.Fatalf("at %v: %s declared twice", at, d)
			}
			declared[d] = true
		}
		for _, x := range txs {
			b := build(x)
			inState := got&(1<<x.seq) != 0
			if want := x.marked || b.VisibleAt(coverage); inState != want {
				t.Fatalf("at %v: tx %d in state = %v, want %v (coverage %v)", at, x.seq, inState, want, coverage)
			}
			if b.VisibleAt(coverage) {
				continue
			}
			if declared[b.Dot] != inState {
				t.Fatalf("at %v: tx %d declared folded = %v, in state = %v", at, x.seq, declared[b.Dot], inState)
			}
		}

		// Round trip: the seeded cache hears of every transaction again (the
		// group's log replays, the DC pushes) and must count each once.
		dst := New("member")
		dst.SetCacheMode(true)
		dst.Seed(counterID, state, coverage, folded...)
		for _, x := range txs {
			deliver(dst, tx{seq: x.seq, ts: x.ts, marked: true})
		}
		var all int64
		for _, x := range txs {
			all |= 1 << x.seq
		}
		if got := readCounter(t, dst, vclock.Vector{9}, ReadOptions{}); got != all {
			t.Fatalf("at %v: seeded store after re-delivery = %b, want %b", at, got, all)
		}
	}
}

// TestReadSeedCoverageSurvivesAdvance: a seed read's coverage is handed on —
// to Seed on another store — after the shard lock is released, while folds
// keep advancing the same object's base. A fold installs a fresh base vector
// and never writes into one a seed read has returned, so the coverage still
// names exactly the state it came with.
func TestReadSeedCoverageSurvivesAdvance(t *testing.T) {
	const n = 200
	src := New("parent")
	for i := uint64(1); i <= n; i++ {
		if err := src.Apply(incTx("peer", i, vclock.Vector{i - 1}, 0, i, 1)); err != nil {
			t.Fatal(err)
		}
	}
	if err := src.Advance(vclock.Vector{1}, true); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := uint64(2); i <= n; i++ {
			if err := src.Advance(vclock.Vector{i}, true); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for i := 0; i < n; i++ {
		// The base dominates the cut read at, so the coverage is the base's.
		state, coverage, folded, err := src.ReadSeed(counterID, vclock.Vector{0})
		if err != nil {
			t.Fatal(err)
		}
		dst := New("member")
		dst.Seed(counterID, state, coverage, folded...)
		if got, want := state.(*crdt.Counter).Total(), int64(coverage.Get(0)); got != want {
			t.Fatalf("seed state holds %d increments, its coverage claims %d", got, want)
		}
	}
	wg.Wait()
}
