// Package store implements Colony's versioned object store (paper §4.1).
//
// An object is kept as a *base version* — a sealed, materialised CRDT state
// at some causal cut — plus a *journal* of committed updates since the base.
// Reading an object at an arbitrary snapshot vector forks the base
// (copy-on-write) and replays the journal entries visible at that vector.
// The system occasionally advances the base to truncate the journal —
// explicitly through Advance, or automatically through a SetAutoAdvance
// policy.
//
// The store is the *backend* layer of Colony's state/visibility split: it
// accepts and stores transactions without regard for correctness; the
// *visibility* layer above (replication, edge, group) only hands it read
// vectors that already satisfy the TCC+ invariants.
//
// # Read-path performance
//
// Objects are spread over a fixed number of hash shards, each guarded by its
// own read-write lock, so concurrent reads and applies of different objects
// do not serialise. The transaction index (the dot filter) lives under a
// separate lock of its own. Each object additionally memoises its last
// materialisation — a sealed CRDT snapshot, the cut it was built at, and a
// journal watermark — so a read whose cut dominates the cached cut returns
// the sealed snapshot itself (zero copies, zero allocations) when nothing
// new arrived, and otherwise forks it copy-on-write and replays only the
// journal entries past the watermark: amortised O(new entries) instead of
// O(journal length).
//
// A read is cache-eligible when its ReadOptions have a nil Reject: read-time
// masking depends on predicate identity, which the cache cannot fingerprint,
// so masked reads always replay fully. SelfVisible may take either value — it
// is the cache fingerprint, so reads with different SelfVisible settings
// never share a materialisation. Non-monotonic reads (a cut that does not
// dominate the cached cut) fall back to a full journal replay, as do reads
// through a cache whose materialisation skipped entries that a later cut, a
// Promote or a group-visibility mark could surface.
//
// # Group visibility
//
// A transaction a peer group's consensus has ordered is readable at this
// replica at any cut (paper §5.1.4). The store records that on the
// transaction itself: ApplyGroupVisible journals the transaction and marks it
// in one step, and every read of this store then admits it — there is no
// visible set kept beside the store.
package store

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"colony/internal/crdt"
	"colony/internal/obs"
	"colony/internal/txn"
	"colony/internal/vclock"
)

// Errors returned by the store.
var (
	// ErrNotFound reports a read of an object with no state at this replica.
	ErrNotFound = errors.New("store: object not found")
	// ErrDuplicate reports an Apply of a transaction whose dot was already
	// applied; callers normally treat it as a no-op signal.
	ErrDuplicate = errors.New("store: duplicate transaction")
	// ErrUnknownTx reports a Promote of a transaction this store never saw.
	ErrUnknownTx = errors.New("store: unknown transaction")
)

// numShards is the number of object shards. Sixteen keeps the per-store
// footprint trivial while letting a DC shard server or a busy edge cache
// serve that many concurrent readers of distinct objects without contention.
const numShards = 16

// record is the dot index's entry for one transaction: the canonical
// transaction plus the group-visibility mark. Journal entries point at the
// record, so the mark travels with the dot — through Seed and reattachLocked,
// and out of the store when Advance or forgetTx releases the dot.
type record struct {
	*txn.Transaction
	// groupVisible marks the transaction readable at any cut (set by
	// ApplyGroupVisible, never cleared). It is written with every shard the
	// transaction updates write-locked and txMu held, so it may be read under
	// any one of those shard locks (the read path) or under txMu.
	groupVisible bool
}

// entry is one journal record: which transaction produced the update and the
// update's index within it (the pair determines the CRDT op tag).
type entry struct {
	tx  *record
	idx int
}

// object is the stored form of one database object.
type object struct {
	kind crdt.Kind
	base crdt.Object
	// baseVec is copy-on-write: once installed it is never mutated, so a
	// reader may keep it after the shard lock is released (ReadSeed).
	baseVec vclock.Vector
	// folded lists transactions whose effects are baked into the base even
	// though they are not covered by baseVec — symbolic group transactions
	// included in a collaborative-cache seed.
	folded  map[vclock.Dot]bool
	journal []entry

	// cacheMu guards cache against concurrent readers; writers (Apply,
	// Advance, Seed) hold the shard's write lock, which already excludes
	// every reader, so they may touch cache without it.
	cacheMu sync.Mutex
	cache   *matCache
}

// storeShard is one hash shard of the object table.
type storeShard struct {
	mu      sync.RWMutex
	objects map[txn.ObjectID]*object
}

// Store is a thread-safe versioned object store for one replica.
type Store struct {
	// self is the owning node's identifier; transactions originated by self
	// are always readable regardless of their commit state (Read-My-Writes).
	self   string
	shards [numShards]storeShard

	// txMu guards txs (the dot filter) independently of the object shards so
	// metadata operations (Promote, ResolveSnapshot) never contend with
	// object reads. Lock order: shard locks (ascending index) before txMu.
	txMu sync.RWMutex
	txs  map[vclock.Dot]*record

	// cacheMode marks a partial replica (an edge cache): applying a remote
	// transaction must not create objects the cache has no base state for —
	// a journal on top of a missing base would materialise wrong values.
	// Skipped updates are re-covered by the seed when the object is pulled
	// into the cache (seeds are always taken at or above the skipped
	// transaction's commit cut).
	cacheMode bool
	// resident is the bucket-granular residency filter of a partially
	// replicating DC (see SetResident); nil accepts every bucket.
	resident func(bucket string) bool
	// readCacheOff disables the materialisation cache (benchmark baseline).
	readCacheOff bool

	// policy drives automatic base advancement; advancing coalesces
	// concurrent triggers into one background fold, and refold asks that
	// fold to run again (see autoAdvance).
	policy    AdvancePolicy
	advancing atomic.Bool
	refold    atomic.Bool

	// Instrumentation handles, resolved once by SetObs. All are nil-safe
	// no-ops when no registry is attached, so the hot read path pays one
	// nil check per counter when observability is off.
	cacheHits *obs.Counter
	cacheMiss *obs.Counter
	baseAdv   *obs.Counter
	snapshots *obs.Counter
}

// New returns an empty store owned by node self.
func New(self string) *Store {
	s := &Store{
		self: self,
		txs:  make(map[vclock.Dot]*record),
	}
	for i := range s.shards {
		s.shards[i].objects = make(map[txn.ObjectID]*object)
	}
	return s
}

// SetCacheMode marks the store as a partial replica (edge cache); see the
// cacheMode field for the semantics. Must be called before use.
func (s *Store) SetCacheMode(on bool) { s.cacheMode = on }

// SetObs attaches the deployment's observability registry. The store records
// store.cache_hit / store.cache_miss counters (materialisation-cache outcome
// of cache-eligible reads), store.base_advance, crdt.snapshots (sealed
// snapshots returned without a deep clone), registers itself as a source of
// the store.max_journal_len gauge (AggMax across the deployment's stores)
// and the process-wide crdt.cow_copies gauge (containers actually copied by
// copy-on-write forks; an RGA fork counts each chunk it copies, not one copy
// of the document). Passing nil detaches counters but keeps a previously
// registered gauge source (registries have no unregister; the source just
// keeps reporting). Must be called before the store is shared between
// goroutines.
func (s *Store) SetObs(r *obs.Registry) {
	s.cacheHits = r.Counter("store.cache_hit")
	s.cacheMiss = r.Counter("store.cache_miss")
	s.baseAdv = r.Counter("store.base_advance")
	s.snapshots = r.Counter("crdt.snapshots")
	r.RegisterGauge("store.max_journal_len", obs.AggMax, func() int64 {
		return int64(s.MaxJournalLen())
	})
	r.RegisterGauge("crdt.cow_copies", obs.AggMax, crdt.CowCopies)
	// Residency gauges for partial replication: distinct buckets resident in
	// any one store (AggMax — a DC's shard stores each hold a slice of every
	// bucket, so the max tracks the bucket count) and the summed canonical
	// state bytes pinned across stores.
	r.RegisterGauge("store.resident_buckets", obs.AggMax, func() int64 {
		b, _, _ := s.ResidentStats()
		return int64(b)
	})
	r.RegisterGauge("store.resident_bytes", obs.AggSum, func() int64 {
		_, _, by := s.ResidentStats()
		return by
	})
}

// SetReadCache enables or disables the per-object materialisation cache
// (enabled by default; benchmarks disable it to measure the baseline). Must
// be called before the store is shared between goroutines.
func (s *Store) SetReadCache(on bool) { s.readCacheOff = !on }

// shardIndex hashes an ObjectID onto a shard (FNV-1a over "bucket/key",
// inlined to avoid allocating a hasher per call).
func shardIndex(id txn.ObjectID) int {
	const (
		offset32 = 2166136261
		prime32  = 16777619
	)
	h := uint32(offset32)
	for i := 0; i < len(id.Bucket); i++ {
		h ^= uint32(id.Bucket[i])
		h *= prime32
	}
	h ^= uint32('/')
	h *= prime32
	for i := 0; i < len(id.Key); i++ {
		h ^= uint32(id.Key[i])
		h *= prime32
	}
	return int(h % numShards)
}

// shardFor returns the shard holding id.
func (s *Store) shardFor(id txn.ObjectID) *storeShard { return &s.shards[shardIndex(id)] }

// lockShards write-locks every shard marked in mask, in ascending index
// order (the store-wide lock order, making multi-shard applies deadlock
// free).
func (s *Store) lockShards(mask *[numShards]bool) {
	for i := range s.shards {
		if mask[i] {
			s.shards[i].mu.Lock()
		}
	}
}

// unlockShards releases the shards locked by lockShards.
func (s *Store) unlockShards(mask *[numShards]bool) {
	for i := range s.shards {
		if mask[i] {
			s.shards[i].mu.Unlock()
		}
	}
}

// updateShards marks the shards holding any object t updates.
func updateShards(t *txn.Transaction) [numShards]bool {
	var mask [numShards]bool
	for _, u := range t.Updates {
		mask[shardIndex(u.Object)] = true
	}
	return mask
}

// Apply appends the transaction's updates to the journals of the objects it
// touches. It returns ErrDuplicate (after doing nothing) when the dot was
// already applied — the dot filter that makes migration-induced re-delivery
// safe (paper §3.8).
//
// Every shard the transaction touches is locked for the duration, so a
// concurrent read of any touched object observes either none or all of the
// transaction's updates (atomicity for self-visible reads; cut-visible reads
// get atomicity from the visibility layer, which only exposes the commit
// after Apply returns).
//
// Two classes of update are skipped (per object, without failing the whole
// transaction): updates to objects a cache-mode store does not hold (unless
// the store's own node originated the transaction), and updates already
// folded into the object's base version (the transaction is visible at the
// base vector) — which happens when a freshly seeded base already contains
// an update that is later replayed by a recovery path.
func (s *Store) Apply(t *txn.Transaction) error { return s.apply(t, false) }

// ApplyGroupVisible is Apply for a transaction the peer group's consensus
// has ordered (paper §5.1.4): it journals the transaction and marks it
// readable at any cut by every reader of this store, under one acquisition
// of the transaction's shard locks — a reader sees none or all of a
// multi-object group transaction. On a dot the store already holds (the
// node's own local commit, a DC push that arrived first, a transaction
// carried across a group migration) it absorbs the re-delivery's commit
// stamps, marks the recorded transaction, and returns ErrDuplicate.
func (s *Store) ApplyGroupVisible(t *txn.Transaction) error { return s.apply(t, true) }

func (s *Store) apply(t *txn.Transaction, groupVisible bool) error {
	mask := updateShards(t)
	s.lockShards(&mask)
	s.txMu.Lock()
	if prev, dup := s.txs[t.Dot]; dup {
		// Absorb any commit stamps the re-delivery carries: a replica that
		// missed the promotion broadcast still learns the concrete commit
		// when the transaction comes back around via another path.
		for dc, ts := range t.Commit {
			if stamps, err := prev.Commit.Add(dc, ts); err == nil {
				prev.Commit = stamps
			}
		}
		if groupVisible {
			// A mark below a cache watermark is the Promote case: the skipped
			// entry left allApplied false, so the next read replays in full.
			prev.groupVisible = true
		}
		s.txMu.Unlock()
		s.unlockShards(&mask)
		return ErrDuplicate
	}
	// Register the dot before touching journals: reattach scans triggered by
	// concurrent Seeds of *other* shards must not race this transaction into
	// a journal twice (they cannot — every shard t touches is locked — but
	// the dot filter itself must win any concurrent duplicate delivery).
	rec := &record{Transaction: t, groupVisible: groupVisible}
	s.txs[t.Dot] = rec
	s.txMu.Unlock()

	longest := 0
	for i, u := range t.Updates {
		sh := &s.shards[shardIndex(u.Object)]
		obj := sh.objects[u.Object]
		if obj == nil {
			if s.cacheMode && t.Origin != s.self {
				continue
			}
			if s.resident != nil && t.Origin != s.self && !s.resident(u.Object.Bucket) {
				continue
			}
			base, err := crdt.New(u.Kind)
			if err != nil {
				s.forgetTx(t.Dot)
				s.unlockShards(&mask)
				return fmt.Errorf("apply %s: %w", t.Dot, err)
			}
			// Bases are always sealed: reads fork them copy-on-write, and
			// Advance replaces them wholesale.
			base.Seal()
			obj = &object{kind: u.Kind, base: base}
			sh.objects[u.Object] = obj
			// Updates from earlier transactions that were skipped while the
			// object did not exist re-attach now; t's own updates are
			// excluded (this loop appends them with their original order).
			s.reattachLocked(u.Object, obj, t.Dot)
		}
		if obj.kind != u.Kind {
			s.forgetTx(t.Dot)
			s.unlockShards(&mask)
			return fmt.Errorf("apply %s: object %s is %v, update is %v: %w",
				t.Dot, u.Object, obj.kind, u.Kind, crdt.ErrKindMismatch)
		}
		if len(obj.baseVec) > 0 && t.VisibleAt(obj.baseVec) {
			continue // already folded into the base version
		}
		if obj.folded[t.Dot] {
			continue // folded into the base as a group-visible transaction
		}
		obj.journal = append(obj.journal, entry{tx: rec, idx: i})
		if n := len(obj.journal); n > longest {
			longest = n
		}
	}
	s.unlockShards(&mask)
	s.maybeAutoAdvance(longest)
	return nil
}

// forgetTx releases dots from the dot index — a failing Apply's, or the ones
// an Advance folded — and their group-visibility marks with them.
func (s *Store) forgetTx(dots ...vclock.Dot) {
	s.txMu.Lock()
	for _, dot := range dots {
		delete(s.txs, dot)
	}
	s.txMu.Unlock()
}

// lockTxShards looks the transaction up, write-locks every shard holding one
// of its journal entries (ordering the mutation with concurrent readers of
// those objects, who evaluate visibility from the commit stamps) and
// re-checks the lookup under txMu. The caller must call unlock() when done
// with the returned transaction, and must not retain it past that.
func (s *Store) lockTxShards(dot vclock.Dot) (*txn.Transaction, func(), error) {
	s.txMu.RLock()
	rec, ok := s.txs[dot]
	s.txMu.RUnlock()
	if !ok {
		return nil, nil, ErrUnknownTx
	}
	mask := updateShards(rec.Transaction)
	s.lockShards(&mask)
	s.txMu.Lock()
	if rec, ok = s.txs[dot]; !ok { // dropped by a concurrent Advance
		s.txMu.Unlock()
		s.unlockShards(&mask)
		return nil, nil, ErrUnknownTx
	}
	return rec.Transaction, func() {
		s.txMu.Unlock()
		s.unlockShards(&mask)
	}, nil
}

// Promote records that DC dc accepted transaction dot at timestamp ts,
// turning a symbolic commit concrete (or adding an equivalent commit vector),
// and returns the transaction's commit vector.
func (s *Store) Promote(dot vclock.Dot, dc int, ts uint64) (vclock.Vector, error) {
	t, unlock, err := s.lockTxShards(dot)
	if err != nil {
		return nil, fmt.Errorf("promote %s: %w", dot, err)
	}
	defer unlock()
	stamps, err := t.Commit.Add(dc, ts)
	if err != nil {
		return nil, err
	}
	t.Commit = stamps
	cv, _ := stamps.Vector(t.Snapshot)
	return cv, nil
}

// ResolveSnapshot joins extra into the stored transaction's snapshot and
// returns an independent clone suitable for sending. Edge nodes use it just
// before shipping a locally committed transaction to the DC: the symbolic
// dependencies on earlier local transactions resolve to the concrete commit
// vectors those transactions have been assigned meanwhile (paper §3.7).
// Going through the store keeps the mutation ordered with concurrent reads.
func (s *Store) ResolveSnapshot(dot vclock.Dot, extra vclock.Vector) (*txn.Transaction, error) {
	t, unlock, err := s.lockTxShards(dot)
	if err != nil {
		return nil, fmt.Errorf("resolve %s: %w", dot, err)
	}
	defer unlock()
	t.Snapshot = t.Snapshot.Join(extra)
	return t.Clone(), nil
}

// Transaction returns a snapshot (deep copy) of the stored transaction with
// the given dot, if any. A copy is returned because the canonical record's
// commit stamps keep evolving under the store lock.
func (s *Store) Transaction(dot vclock.Dot) (*txn.Transaction, bool) {
	s.txMu.RLock()
	defer s.txMu.RUnlock()
	t, ok := s.txs[dot]
	if !ok {
		return nil, false
	}
	return t.Clone(), true
}

// VisibleAt reports whether the store holds the transaction dot (held) and
// whether it is visible at cut, reading the record in place: no copy, for a
// caller that only needs the answer. A symbolic transaction is visible at no
// cut.
func (s *Store) VisibleAt(dot vclock.Dot, cut vclock.Vector) (visible, held bool) {
	s.txMu.RLock()
	defer s.txMu.RUnlock()
	rec, ok := s.txs[dot]
	return ok && rec.VisibleAt(cut), ok
}

// Contains reports whether the store has applied the transaction dot.
func (s *Store) Contains(dot vclock.Dot) bool {
	s.txMu.RLock()
	defer s.txMu.RUnlock()
	_, ok := s.txs[dot]
	return ok
}

// GroupVisible reports whether the store holds the transaction dot marked
// group-visible (see ApplyGroupVisible).
func (s *Store) GroupVisible(dot vclock.Dot) bool {
	s.txMu.RLock()
	defer s.txMu.RUnlock()
	rec, ok := s.txs[dot]
	return ok && rec.groupVisible
}

// Has reports whether the store holds any state for the object.
func (s *Store) Has(id txn.ObjectID) bool {
	sh := s.shardFor(id)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	_, ok := sh.objects[id]
	return ok
}

// Seed installs a pre-materialised base version for an object, replacing any
// existing state. Edge nodes use it when pulling an object into their
// interest set from the connected DC or a peer (paper §4.2). folded lists
// transactions baked into base beyond the cut at (group-visible transactions
// without a concrete commit yet); their re-delivery is skipped for this
// object.
func (s *Store) Seed(id txn.ObjectID, base crdt.Object, at vclock.Vector, folded ...vclock.Dot) {
	sh := s.shardFor(id)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	b := base.Clone()
	b.Seal()
	obj := &object{kind: base.Kind(), base: b, baseVec: at.Clone()}
	if len(folded) > 0 {
		obj.folded = make(map[vclock.Dot]bool, len(folded))
		for _, d := range folded {
			obj.folded[d] = true
		}
	}
	sh.objects[id] = obj
	s.reattachLocked(id, obj, vclock.Dot{})
}

// reattachLocked replays updates for id from already-recorded transactions
// whose update was skipped when the cache did not hold the object (Apply
// keeps the full transaction either way). Entries are ordered by dot, which
// is consistent with causality because nodes witness every dot they apply.
// skip names a transaction being applied by the caller, whose updates it
// appends itself. The caller holds the shard lock for id.
func (s *Store) reattachLocked(id txn.ObjectID, obj *object, skip vclock.Dot) {
	type pending struct {
		t   *record
		idx int
	}
	var todo []pending
	s.txMu.RLock()
	for _, t := range s.txs {
		if t.Dot == skip {
			continue
		}
		if t.VisibleAt(obj.baseVec) || obj.folded[t.Dot] {
			continue
		}
		for i, u := range t.Updates {
			if u.Object == id && u.Kind == obj.kind {
				todo = append(todo, pending{t: t, idx: i})
			}
		}
	}
	s.txMu.RUnlock()
	sort.Slice(todo, func(i, j int) bool {
		if c := todo[i].t.Dot.Compare(todo[j].t.Dot); c != 0 {
			return c < 0
		}
		return todo[i].idx < todo[j].idx
	})
	for _, p := range todo {
		obj.journal = append(obj.journal, entry{tx: p.t, idx: p.idx})
	}
}

// BaseVector returns the causal cut of the object's base version.
func (s *Store) BaseVector(id txn.ObjectID) (vclock.Vector, bool) {
	sh := s.shardFor(id)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	obj, ok := sh.objects[id]
	if !ok {
		return nil, false
	}
	return obj.baseVec.Clone(), true
}

// Evict drops the object's state entirely (cache eviction at an edge node).
func (s *Store) Evict(id txn.ObjectID) {
	sh := s.shardFor(id)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	delete(sh.objects, id)
}

// Objects returns the ids of every stored object, in unspecified order.
func (s *Store) Objects() []txn.ObjectID {
	var out []txn.ObjectID
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.RLock()
		for id := range sh.objects {
			out = append(out, id)
		}
		sh.mu.RUnlock()
	}
	return out
}

// JournalLen returns the number of pending journal entries for an object;
// zero for unknown objects. Exposed for tests and cache accounting.
func (s *Store) JournalLen(id txn.ObjectID) int {
	sh := s.shardFor(id)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	obj, ok := sh.objects[id]
	if !ok {
		return 0
	}
	return len(obj.journal)
}

// MaxJournalLen returns the longest journal across every stored object —
// the figure the automatic advancement policy bounds.
func (s *Store) MaxJournalLen() int {
	longest := 0
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.RLock()
		for _, obj := range sh.objects {
			if len(obj.journal) > longest {
				longest = len(obj.journal)
			}
		}
		sh.mu.RUnlock()
	}
	return longest
}

// DebugJournal lists each journal entry of an object as "dot@commit(snap)"
// plus the recorded transaction dots — test diagnostics only.
func (s *Store) DebugJournal(id txn.ObjectID) (entries []string, txs []string) {
	sh := s.shardFor(id)
	sh.mu.RLock()
	if obj, ok := sh.objects[id]; ok {
		for _, e := range obj.journal {
			entries = append(entries, fmt.Sprintf("%s@%v(snap %v)", e.tx.Dot, e.tx.Commit, e.tx.Snapshot))
		}
	}
	sh.mu.RUnlock()
	s.txMu.RLock()
	for dot, t := range s.txs {
		txs = append(txs, fmt.Sprintf("%s@%v", dot, t.Commit))
	}
	s.txMu.RUnlock()
	return entries, txs
}

// TxCount returns the number of transactions tracked for duplicate
// filtering.
func (s *Store) TxCount() int {
	s.txMu.RLock()
	defer s.txMu.RUnlock()
	return len(s.txs)
}
