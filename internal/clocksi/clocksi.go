package clocksi

import (
	"errors"
	"fmt"
	"sync"

	"colony/internal/crdt"
	"colony/internal/obs"
	"colony/internal/store"
	"colony/internal/txn"
	"colony/internal/vclock"
)

// Errors returned by shards and the coordinator.
var (
	ErrNotPrepared = errors.New("clocksi: transaction not prepared")
	ErrAborted     = errors.New("clocksi: transaction aborted")
)

// Clock is a loosely-synchronised logical clock, one per shard server.
// ClockSI assumes clocks that may be skewed but move forward; Skew models a
// constant offset from true time. Timestamps are logical (monotonic
// counters) rather than wall time, which preserves the protocol structure —
// commit timestamps are the maximum over the prepare timestamps of the
// involved shards — without tying experiments to the host clock.
type Clock struct {
	mu   sync.Mutex
	last uint64
	skew uint64
}

// NewClock returns a clock starting at skew (a constant offset modelling
// imperfect synchronisation between the DC's servers).
func NewClock(skew uint64) *Clock { return &Clock{last: skew, skew: skew} }

// Tick advances the clock and returns a fresh timestamp.
func (c *Clock) Tick() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.last++
	return c.last
}

// Witness moves the clock to at least ts (a snapshot timestamp observed by a
// read, or a commit timestamp from the coordinator). In ClockSI a shard
// whose clock lags a snapshot must delay the read until its clock catches
// up; with logical clocks the catch-up is immediate.
func (c *Clock) Witness(ts uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if ts > c.last {
		c.last = ts
	}
}

// Now returns the current timestamp without advancing.
func (c *Clock) Now() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.last
}

// Shard is one storage server inside a DC. It owns the partition of objects
// the ring assigns to it, holds prepared-but-uncommitted transactions, and
// participates in the ClockSI two-phase commit.
type Shard struct {
	name  string
	clock *Clock

	mu       sync.Mutex
	store    *store.Store
	prepared map[vclock.Dot]*txn.Transaction
}

// NewShard creates a shard named name with the given clock skew.
func NewShard(name string, skew uint64) *Shard {
	return &Shard{
		name:     name,
		clock:    NewClock(skew),
		store:    store.New(name),
		prepared: make(map[vclock.Dot]*txn.Transaction),
	}
}

// Name returns the shard's name.
func (s *Shard) Name() string { return s.name }

// Prepare is phase one of ClockSI 2PC: the shard buffers its partition of
// the transaction and votes with a prepare timestamp drawn from its local
// clock. The final commit timestamp will be at least this value.
func (s *Shard) Prepare(part *txn.Transaction) (uint64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.store.Contains(part.Dot) {
		return 0, store.ErrDuplicate
	}
	if _, dup := s.prepared[part.Dot]; dup {
		return 0, store.ErrDuplicate
	}
	s.prepared[part.Dot] = part
	return s.clock.Tick(), nil
}

// Commit is phase two: the shard durably applies its partition with the
// commit stamps decided by the coordinator and releases the prepare record.
func (s *Shard) Commit(dot vclock.Dot, commit vclock.CommitStamps) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	part, ok := s.prepared[dot]
	if !ok {
		return fmt.Errorf("commit %s on %s: %w", dot, s.name, ErrNotPrepared)
	}
	delete(s.prepared, dot)
	part.Commit = commit.Clone()
	for _, ts := range commit {
		s.clock.Witness(ts)
	}
	return s.store.Apply(part)
}

// Abort discards a prepared transaction.
func (s *Shard) Abort(dot vclock.Dot) {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.prepared, dot)
}

// ApplyCommitted installs an already-committed transaction partition
// (replicated from another DC, or accepted from an edge node) without 2PC.
func (s *Shard) ApplyCommitted(part *txn.Transaction) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, ts := range part.Commit {
		s.clock.Witness(ts)
	}
	return s.store.Apply(part)
}

// Read materialises the shard's copy of id at the snapshot vector at. The
// shard witnesses the snapshot's timestamps first — the ClockSI rule that a
// read must not run before the shard clock reaches the snapshot.
func (s *Shard) Read(id txn.ObjectID, at vclock.Vector, opts store.ReadOptions) (crdt.Object, error) {
	for _, ts := range at {
		s.clock.Witness(ts)
	}
	s.mu.Lock()
	st := s.store
	s.mu.Unlock()
	return st.Read(id, at, opts)
}

// Has reports whether the shard stores any state for id.
func (s *Shard) Has(id txn.ObjectID) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.store.Has(id)
}

// Contains reports whether the shard has applied transaction dot.
func (s *Shard) Contains(dot vclock.Dot) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.store.Contains(dot)
}

// Advance folds journal entries below cut into base versions.
func (s *Shard) Advance(cut vclock.Vector, keepDots bool) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.store.Advance(cut, keepDots)
}

// SetAutoAdvance installs the store's automatic advancement policy; call
// before the shard starts serving.
func (s *Shard) SetAutoAdvance(p store.AdvancePolicy) { s.store.SetAutoAdvance(p) }

// SetResident installs the store's bucket residency filter; call before the
// shard starts serving.
func (s *Shard) SetResident(f func(bucket string) bool) { s.store.SetResident(f) }

// AdvanceBuckets folds journals at per-bucket cuts (partial replication).
func (s *Shard) AdvanceBuckets(cutFor func(bucket string) vclock.Vector) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.store.AdvanceBuckets(cutFor)
}

// Seed installs a pre-materialised base version for an object (backfill).
func (s *Shard) Seed(id txn.ObjectID, base crdt.Object, at vclock.Vector, folded ...vclock.Dot) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.store.Seed(id, base, at, folded...)
}

// ObjectsInBucket lists the shard's resident objects of one bucket.
func (s *Shard) ObjectsInBucket(bucket string) []txn.ObjectID {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.store.ObjectsInBucket(bucket)
}

// ResidentStats reports the shard store's resident footprint.
func (s *Shard) ResidentStats() (buckets, objects int, bytes int64) {
	return s.store.ResidentStats()
}

// SetObs attaches the deployment's observability registry to the shard's
// store; call before the shard starts serving.
func (s *Shard) SetObs(r *obs.Registry) { s.store.SetObs(r) }

// MaxJournalLen reports the shard's longest object journal.
func (s *Shard) MaxJournalLen() int { return s.store.MaxJournalLen() }

// PreparedCount reports the number of in-flight prepared transactions
// (exposed for tests and monitoring).
func (s *Shard) PreparedCount() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.prepared)
}

// Coordinator drives the ClockSI two-phase commit across the shards of one
// DC and routes reads.
type Coordinator struct {
	ring   *Ring
	shards map[string]*Shard
}

// NewCoordinator builds a coordinator over the given shards.
func NewCoordinator(shards []*Shard, vnodes int) (*Coordinator, error) {
	names := make([]string, len(shards))
	byName := make(map[string]*Shard, len(shards))
	for i, s := range shards {
		names[i] = s.Name()
		byName[s.Name()] = s
	}
	ring, err := NewRing(names, vnodes)
	if err != nil {
		return nil, err
	}
	return &Coordinator{ring: ring, shards: byName}, nil
}

// Ring exposes the coordinator's placement ring.
func (c *Coordinator) Ring() *Ring { return c.ring }

// Shard returns the shard responsible for id.
func (c *Coordinator) Shard(id txn.ObjectID) *Shard {
	return c.shards[c.ring.Lookup(id)]
}

// Commit runs the ClockSI 2PC for t: Prepare, decide the commit timestamp
// via assign (which receives the largest prepare timestamp and returns the
// DC index and final timestamp — the DC sequencer guarantees monotonicity),
// then commit everywhere.
func (c *Coordinator) Commit(t *txn.Transaction, assign func(maxPrepare uint64) (int, uint64)) (vclock.CommitStamps, error) {
	p, err := c.Prepare(t)
	if err != nil {
		return nil, err
	}
	dcIdx, ts := assign(p.MaxPrepare)
	stamps := vclock.CommitStamps{dcIdx: ts}
	if err := p.Commit(stamps); err != nil {
		return nil, err
	}
	return stamps, nil
}

// Prepared is a transaction prepared on every shard it involves, waiting
// for its commit stamps.
type Prepared struct {
	dot    vclock.Dot
	shards []*Shard
	// MaxPrepare is the largest prepare timestamp: the commit timestamp must
	// be above it.
	MaxPrepare uint64
}

// Prepare is phase one of the 2PC for t: it prepares t's partition on every
// involved shard. On any failure the transaction aborts cleanly; a dot
// already held or prepared fails with store.ErrDuplicate.
func (c *Coordinator) Prepare(t *txn.Transaction) (*Prepared, error) {
	parts := c.ring.Partition(t)
	p := &Prepared{dot: t.Dot, shards: make([]*Shard, 0, len(parts))}
	for name, part := range parts {
		shard := c.shards[name]
		ts, err := shard.Prepare(part)
		if err != nil {
			for _, s := range p.shards {
				s.Abort(t.Dot)
			}
			if errors.Is(err, store.ErrDuplicate) {
				return nil, err
			}
			return nil, fmt.Errorf("%w: prepare on %s: %v", ErrAborted, name, err)
		}
		p.shards = append(p.shards, shard)
		p.MaxPrepare = max(p.MaxPrepare, ts)
	}
	return p, nil
}

// Commit is phase two: it commits the transaction at stamps on every
// involved shard. A shard whose store rejects its partition fails the
// commit and aborts the partitions not yet committed; those already
// committed stay.
func (p *Prepared) Commit(stamps vclock.CommitStamps) error {
	for i, shard := range p.shards {
		if err := shard.Commit(p.dot, stamps); err != nil {
			for _, s := range p.shards[i+1:] {
				s.Abort(p.dot)
			}
			return fmt.Errorf("clocksi: commit phase on %s: %w", shard.Name(), err)
		}
	}
	return nil
}

// ApplyCommitted routes an externally committed transaction to the involved
// shards, idempotently.
func (c *Coordinator) ApplyCommitted(t *txn.Transaction) error {
	for name, part := range c.ring.Partition(t) {
		if err := c.shards[name].ApplyCommitted(part); err != nil && !errors.Is(err, store.ErrDuplicate) {
			return fmt.Errorf("clocksi: apply on %s: %w", name, err)
		}
	}
	return nil
}

// Read routes a snapshot read to the responsible shard.
func (c *Coordinator) Read(id txn.ObjectID, at vclock.Vector, opts store.ReadOptions) (crdt.Object, error) {
	return c.Shard(id).Read(id, at, opts)
}

// Contains reports whether the transaction was applied on every shard it
// touches (true also for transactions touching no local objects).
func (c *Coordinator) Contains(t *txn.Transaction) bool {
	for name := range c.ring.Partition(t) {
		if !c.shards[name].Contains(t.Dot) {
			return false
		}
	}
	return true
}

// Advance folds journals below cut on every shard.
func (c *Coordinator) Advance(cut vclock.Vector, keepDots bool) error {
	for _, s := range c.shards {
		if err := s.Advance(cut, keepDots); err != nil {
			return err
		}
	}
	return nil
}

// SetAutoAdvance installs the automatic advancement policy on every shard;
// call before the DC starts serving.
func (c *Coordinator) SetAutoAdvance(p store.AdvancePolicy) {
	for _, s := range c.shards {
		s.SetAutoAdvance(p)
	}
}

// SetResident installs the bucket residency filter on every shard; call
// before the DC starts serving.
func (c *Coordinator) SetResident(f func(bucket string) bool) {
	for _, s := range c.shards {
		s.SetResident(f)
	}
}

// AdvanceBuckets folds journals at per-bucket cuts on every shard.
func (c *Coordinator) AdvanceBuckets(cutFor func(bucket string) vclock.Vector) error {
	for _, s := range c.shards {
		if err := s.AdvanceBuckets(cutFor); err != nil {
			return err
		}
	}
	return nil
}

// Seed routes a pre-materialised base version to the responsible shard
// (bucket backfill).
func (c *Coordinator) Seed(id txn.ObjectID, base crdt.Object, at vclock.Vector, folded ...vclock.Dot) {
	c.Shard(id).Seed(id, base, at, folded...)
}

// ObjectsInBucket lists the resident objects of one bucket across the shards.
func (c *Coordinator) ObjectsInBucket(bucket string) []txn.ObjectID {
	var out []txn.ObjectID
	for _, s := range c.shards {
		out = append(out, s.ObjectsInBucket(bucket)...)
	}
	return out
}

// ResidentStats reports the DC's resident footprint summed over the shards
// (buckets is the maximum of per-shard distinct-bucket counts a caller
// should not rely on; the DC reports its live bucket count itself).
func (c *Coordinator) ResidentStats() (buckets, objects int, bytes int64) {
	for _, s := range c.shards {
		b, o, by := s.ResidentStats()
		if b > buckets {
			buckets = b
		}
		objects += o
		bytes += by
	}
	return buckets, objects, bytes
}

// SetObs attaches the deployment's observability registry to every shard's
// store; call before the DC starts serving.
func (c *Coordinator) SetObs(r *obs.Registry) {
	for _, s := range c.shards {
		s.SetObs(r)
	}
}

// MaxJournalLen reports the longest object journal across the shards.
func (c *Coordinator) MaxJournalLen() int {
	longest := 0
	for _, s := range c.shards {
		if n := s.MaxJournalLen(); n > longest {
			longest = n
		}
	}
	return longest
}
