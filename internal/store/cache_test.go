package store

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"colony/internal/crdt"
	"colony/internal/txn"
	"colony/internal/vclock"
)

// TestReadCacheEquivalence drives identical transaction streams and read
// sequences through a cache-on and a cache-off store and requires identical
// answers throughout — monotone cuts, regressing cuts, and every
// cache-eligible option shape.
func TestReadCacheEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	cached, plain := New("dc0"), New("dc0")
	plain.SetReadCache(false)
	ids := []txn.ObjectID{
		{Bucket: "b", Key: "counter"},
		{Bucket: "b", Key: "set"},
	}
	var seq [3]uint64
	var selfSeq uint64
	read := func(id txn.ObjectID, at vclock.Vector, opts ReadOptions) {
		t.Helper()
		gotC, errC := cached.Value(id, at, opts)
		gotP, errP := plain.Value(id, at, opts)
		if (errC == nil) != (errP == nil) {
			t.Fatalf("read %s at %v: cached err %v, plain err %v", id, at, errC, errP)
		}
		if !reflect.DeepEqual(gotC, gotP) {
			t.Fatalf("read %s at %v: cached %v, plain %v", id, at, gotC, gotP)
		}
	}
	apply := func(tx *txn.Transaction) {
		t.Helper()
		if err := cached.Apply(tx.Clone()); err != nil {
			t.Fatal(err)
		}
		if err := plain.Apply(tx.Clone()); err != nil {
			t.Fatal(err)
		}
	}
	randomCut := func() vclock.Vector {
		return vclock.Vector{
			uint64(rng.Intn(int(seq[0]) + 1)),
			uint64(rng.Intn(int(seq[1]) + 1)),
			uint64(rng.Intn(int(seq[2]) + 1)),
		}
	}
	// markGroupVisible delivers tx as the group's consensus would, to both
	// stores alike (the mark is store state, not a read option).
	markGroupVisible := func(tx *txn.Transaction, want error) {
		t.Helper()
		for _, s := range []*Store{cached, plain} {
			if err := s.ApplyGroupVisible(tx.Clone()); !errors.Is(err, want) {
				t.Fatalf("ApplyGroupVisible %s = %v, want %v", tx.Dot, err, want)
			}
		}
	}
	var unmarked []*txn.Transaction // foreign symbolic txs applied, not yet marked
	promoted := map[vclock.Dot]bool{}
	for step := 0; step < 500; step++ {
		switch rng.Intn(5) {
		case 0: // committed counter increment from a random DC
			dc := rng.Intn(3)
			seq[dc]++
			tx := &txn.Transaction{
				Dot:      vclock.Dot{Node: fmt.Sprintf("dc%d", dc), Seq: seq[dc] + 1000},
				Origin:   fmt.Sprintf("dc%d", dc),
				Snapshot: randomCut(),
				Commit:   vclock.CommitStamps{dc: seq[dc]},
				Updates: []txn.Update{{
					Object: ids[0],
					Kind:   crdt.KindCounter,
					Op:     crdt.Op{Counter: &crdt.CounterOp{Delta: int64(rng.Intn(5))}},
				}},
			}
			apply(tx)
		case 1: // symbolic self transaction (Read-My-Writes path)
			selfSeq++
			tx := &txn.Transaction{
				Dot:      vclock.Dot{Node: "dc0", Seq: selfSeq},
				Origin:   "dc0",
				Snapshot: randomCut(),
				Updates: []txn.Update{{
					Object: ids[1],
					Kind:   crdt.KindORSet,
					Op:     crdt.Op{Set: &crdt.ORSetOp{Elem: fmt.Sprintf("e%d", rng.Intn(6))}},
				}},
			}
			switch rng.Intn(4) {
			case 0: // foreign origin, group-visible on arrival
				tx.Origin, tx.Dot.Node = "peer", "peer"
				markGroupVisible(tx, nil)
			case 1: // foreign origin, applied now, read, marked later (case 3)
				tx.Origin, tx.Dot.Node = "peer", "peer"
				apply(tx)
				unmarked = append(unmarked, tx)
			default:
				apply(tx)
			}
		case 2: // promote a not-yet-promoted symbolic transaction
			dot := vclock.Dot{Node: "dc0", Seq: uint64(rng.Intn(int(selfSeq) + 1))}
			if promoted[dot] || !cached.Contains(dot) {
				continue
			}
			promoted[dot] = true
			dc := rng.Intn(3)
			seq[dc]++
			if err := cached.Promote(dot, dc, seq[dc]); err != nil {
				t.Fatal(err)
			}
			if err := plain.Promote(dot, dc, seq[dc]); err != nil {
				t.Fatal(err)
			}
		case 3: // the group orders a transaction the stores already journalled
			if len(unmarked) == 0 {
				continue
			}
			i := rng.Intn(len(unmarked))
			markGroupVisible(unmarked[i], ErrDuplicate)
			unmarked = append(unmarked[:i], unmarked[i+1:]...)
		default: // read both objects with a random option shape
			at := randomCut()
			opts := ReadOptions{SelfVisible: rng.Intn(2) == 0}
			read(ids[0], at, opts)
			read(ids[1], at, opts)
		}
	}
	// Final sweep across both objects at the full cut, both option shapes.
	full := vclock.Vector{seq[0], seq[1], seq[2]}
	for _, self := range []bool{true, false} {
		read(ids[0], full, ReadOptions{SelfVisible: self})
		read(ids[1], full, ReadOptions{SelfVisible: self})
	}
}

// TestCacheSeedAdvanceEvictInvalidation checks that every base-moving
// operation drops or bypasses the memoised materialisation.
func TestCacheSeedAdvanceEvictInvalidation(t *testing.T) {
	s := New("dc0")
	for i := uint64(1); i <= 6; i++ {
		if err := s.Apply(incTx("dc0", i, vclock.Vector{0}, 0, i, 1)); err != nil {
			t.Fatal(err)
		}
	}
	cut := vclock.Vector{6}
	if got := readCounter(t, s, cut, ReadOptions{}); got != 6 {
		t.Fatalf("pre-advance read = %d, want 6", got)
	}
	// Advance folds everything; the cached state must be dropped, and reads
	// must keep answering from the new base.
	if err := s.Advance(cut, true); err != nil {
		t.Fatal(err)
	}
	if got := s.JournalLen(counterID); got != 0 {
		t.Fatalf("journal after advance = %d, want 0", got)
	}
	if got := readCounter(t, s, cut, ReadOptions{}); got != 6 {
		t.Fatalf("post-advance read = %d, want 6", got)
	}
	// Seed replaces the object outright.
	fresh, _ := crdt.New(crdt.KindCounter)
	if err := fresh.Apply(crdt.Meta{Dot: vclock.Dot{Node: "seed", Seq: 1}}, crdt.Op{Counter: &crdt.CounterOp{Delta: 100}}); err != nil {
		t.Fatal(err)
	}
	s.Seed(counterID, fresh, vclock.Vector{50})
	if got := readCounter(t, s, vclock.Vector{50}, ReadOptions{}); got != 100 {
		t.Fatalf("post-seed read = %d, want 100", got)
	}
	// Evict drops the object — a primed cache must not resurrect it.
	s.Evict(counterID)
	if _, err := s.Read(counterID, cut, ReadOptions{}); !errors.Is(err, ErrNotFound) {
		t.Fatalf("post-evict read err = %v, want ErrNotFound", err)
	}
}

// TestCacheNonMonotonicRead primes the cache at a high cut and then reads at
// a lower one: the cache must not serve the newer state.
func TestCacheNonMonotonicRead(t *testing.T) {
	s := New("dc0")
	for i := uint64(1); i <= 8; i++ {
		if err := s.Apply(incTx("dc0", i, vclock.Vector{0}, 0, i, 1)); err != nil {
			t.Fatal(err)
		}
	}
	if got := readCounter(t, s, vclock.Vector{8}, ReadOptions{}); got != 8 {
		t.Fatalf("read at [8] = %d, want 8", got)
	}
	if got := readCounter(t, s, vclock.Vector{3}, ReadOptions{}); got != 3 {
		t.Fatalf("regressing read at [3] = %d, want 3", got)
	}
	// And the regressing read must not have poisoned the cache either.
	if got := readCounter(t, s, vclock.Vector{8}, ReadOptions{}); got != 8 {
		t.Fatalf("re-read at [8] = %d, want 8", got)
	}
}

// TestCachePromoteAtSameCut covers the subtle staleness case: a symbolic
// transaction invisible at cut v is later promoted so that it becomes
// visible at the very same v. The cached materialisation (which skipped the
// entry) must not be extended incrementally.
func TestCachePromoteAtSameCut(t *testing.T) {
	s := New("dc1") // not the origin, so Read-My-Writes does not apply
	sym := incTx("edgeA", 1, vclock.Vector{0}, 0, 0, 7)
	if err := s.Apply(sym); err != nil {
		t.Fatal(err)
	}
	cut := vclock.Vector{5}
	if got := readCounter(t, s, cut, ReadOptions{}); got != 0 {
		t.Fatalf("read before promote = %d, want 0 (symbolic commit)", got)
	}
	if err := s.Promote(sym.Dot, 0, 3); err != nil {
		t.Fatal(err)
	}
	if got := readCounter(t, s, cut, ReadOptions{}); got != 7 {
		t.Fatalf("read after promote at same cut = %d, want 7", got)
	}
}

// TestCacheFingerprintSeparation checks that reads with different option
// shapes never share a materialisation.
func TestCacheFingerprintSeparation(t *testing.T) {
	s := New("edgeA")
	// A symbolic local write: visible only through SelfVisible, not at any
	// cut.
	if err := s.Apply(incTx("edgeA", 1, vclock.Vector{0}, 0, 0, 5)); err != nil {
		t.Fatal(err)
	}
	cut := vclock.Vector{9}
	for round := 0; round < 3; round++ {
		if got := readCounter(t, s, cut, ReadOptions{SelfVisible: true}); got != 5 {
			t.Fatalf("round %d: SelfVisible read = %d, want 5", round, got)
		}
		if got := readCounter(t, s, cut, ReadOptions{}); got != 0 {
			t.Fatalf("round %d: plain read = %d, want 0", round, got)
		}
		// Reject disables the cache entirely.
		masked := readCounter(t, s, cut, ReadOptions{
			SelfVisible: true,
			Reject:      func(*txn.Transaction) bool { return true },
		})
		if masked != 0 {
			t.Fatalf("round %d: rejected read = %d, want 0", round, masked)
		}
	}
}

// TestAutoAdvanceBoundsJournal applies a sustained committed write load with
// the automatic advancement policy installed and checks that the journal
// stays bounded and the data stays right.
func TestAutoAdvanceBoundsJournal(t *testing.T) {
	s := New("dc0")
	var stable atomic.Uint64
	s.SetAutoAdvance(AdvancePolicy{
		JournalThreshold: 8,
		Cut:              func() vclock.Vector { return vclock.Vector{stable.Load()} },
		KeepDots:         true,
	})
	const writes = 400
	for i := uint64(1); i <= writes; i++ {
		if err := s.Apply(incTx("dc0", i, vclock.Vector{0}, 0, i, 1)); err != nil {
			t.Fatal(err)
		}
		stable.Store(i) // everything applied so far is stable
	}
	// The background fold is asynchronous; wait for it to catch up.
	deadline := time.Now().Add(5 * time.Second)
	for s.MaxJournalLen() > 8 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if got := s.MaxJournalLen(); got > 8 {
		t.Fatalf("MaxJournalLen = %d after settling, want ≤ 8", got)
	}
	if got := readCounter(t, s, vclock.Vector{writes}, ReadOptions{}); got != writes {
		t.Fatalf("total after auto-advance = %d, want %d", got, writes)
	}
	// KeepDots: the duplicate filter must have survived the folds.
	if err := s.Apply(incTx("dc0", 1, vclock.Vector{0}, 0, 1, 1)); !errors.Is(err, ErrDuplicate) {
		t.Fatalf("re-apply after advance: err = %v, want ErrDuplicate", err)
	}
}

// TestConcurrentReadersAndWriters hammers one store from writer, promoter
// and reader goroutines across several objects — monotone per-reader cuts,
// so every reader must see non-decreasing counter values. Run under -race
// this also exercises the shard/tx lock layering.
func TestConcurrentReadersAndWriters(t *testing.T) {
	s := New("dc0")
	ids := make([]txn.ObjectID, 4)
	for i := range ids {
		ids[i] = txn.ObjectID{Bucket: "c", Key: fmt.Sprintf("o%d", i)}
	}
	var applied atomic.Uint64
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() { // writer: committed increments round-robin over the objects
		defer wg.Done()
		for i := uint64(1); i <= 600; i++ {
			tx := &txn.Transaction{
				Dot:      vclock.Dot{Node: "w", Seq: i},
				Origin:   "w",
				Snapshot: vclock.Vector{0},
				Commit:   vclock.CommitStamps{0: i},
				Updates: []txn.Update{{
					Object: ids[i%uint64(len(ids))],
					Kind:   crdt.KindCounter,
					Op:     crdt.Op{Counter: &crdt.CounterOp{Delta: 1}},
				}},
			}
			if err := s.Apply(tx); err != nil {
				t.Error(err)
				return
			}
			applied.Store(i)
		}
	}()
	promoterDone := make(chan struct{})
	go func() { // promoter: adds redundant stamps to recorded transactions
		defer close(promoterDone)
		for {
			select {
			case <-stop:
				return
			default:
			}
			hi := applied.Load()
			if hi == 0 {
				continue
			}
			dot := vclock.Dot{Node: "w", Seq: hi}
			if s.Contains(dot) {
				_ = s.Promote(dot, 1, hi)
			}
		}
	}()
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(obj txn.ObjectID) {
			defer wg.Done()
			var last int64
			for i := 0; i < 400; i++ {
				at := vclock.Vector{applied.Load()}
				v, err := s.Value(obj, at, ReadOptions{})
				if errors.Is(err, ErrNotFound) {
					continue
				}
				if err != nil {
					t.Error(err)
					return
				}
				if got := v.(int64); got < last {
					t.Errorf("monotone read violated: %d after %d", got, last)
					return
				} else {
					last = got
				}
			}
		}(ids[r])
	}
	wg.Wait()
	close(stop)
	<-promoterDone
	// Converged totals: 600 increments spread over 4 objects.
	var total int64
	for _, id := range ids {
		v, err := s.Value(id, vclock.Vector{600}, ReadOptions{})
		if err != nil {
			t.Fatal(err)
		}
		total += v.(int64)
	}
	if total != 600 {
		t.Fatalf("converged total = %d, want 600", total)
	}
}
