package store

import (
	"fmt"

	"colony/internal/crdt"
	"colony/internal/vclock"
)

// AdvancePolicy drives automatic base advancement: when an Apply leaves any
// journal longer than JournalThreshold, the store folds the entries visible
// at Cut() into the base versions in the background, bounding journal growth
// during sustained write load (paper §4.1: "occasionally, the system
// advances the base version").
type AdvancePolicy struct {
	// JournalThreshold is the journal length that triggers an advancement;
	// zero or negative disables the policy.
	JournalThreshold int
	// Cut supplies the fold cut — typically the K-stable vector from the DC
	// mesh (dc) or the edge node's stable vector. It is called outside every
	// store lock and must not call back into the store's write path. A nil
	// func or an empty cut skips the advancement.
	Cut func() vclock.Vector
	// CutFor supplies a per-bucket fold cut for partially replicated stores:
	// each bucket advances to its own K-stability frontier (computed over only
	// the replicas holding it). When set it takes precedence over Cut and the
	// fold runs through AdvanceBuckets, which always keeps dots. Unlike Cut it
	// may be called while a shard lock is held, so it must never call back
	// into the store at all; a nil or empty per-bucket cut skips that bucket.
	CutFor func(bucket string) vclock.Vector
	// KeepDots preserves the duplicate filter for folded transactions (see
	// Advance).
	KeepDots bool
}

// SetAutoAdvance installs the automatic advancement policy. Must be called
// before the store is shared between goroutines.
func (s *Store) SetAutoAdvance(p AdvancePolicy) { s.policy = p }

// maybeAutoAdvance fires the background advancement when the longest journal
// an Apply just touched exceeds the policy threshold. At most one fold runs at
// a time; an Apply that finds one running leaves a re-fold request, which the
// running fold picks up before it exits (autoAdvance), so no trigger is lost.
// Journals therefore stay bounded by the threshold plus the writes in flight
// during one fold.
func (s *Store) maybeAutoAdvance(longest int) {
	p := s.policy
	if p.JournalThreshold <= 0 || (p.Cut == nil && p.CutFor == nil) || longest <= p.JournalThreshold {
		return
	}
	s.refold.Store(true)
	if s.advancing.CompareAndSwap(false, true) {
		go s.autoAdvance(p)
	}
}

// autoAdvance is the background fold. It folds again while a re-fold request
// is pending or, with a store-wide Cut, while the longest journal is still
// over the threshold and the cut has moved since the last fold. A request is
// set before the running flag is tested, so one that lands after the loop's
// last check is seen by the re-check after the running flag clears.
func (s *Store) autoAdvance(p AdvancePolicy) {
	var last vclock.Vector
	for {
		for s.refold.CompareAndSwap(true, false) ||
			(p.CutFor == nil && s.MaxJournalLen() > p.JournalThreshold && !p.Cut().LEQ(last)) {
			if p.CutFor != nil {
				_ = s.AdvanceBuckets(p.CutFor)
				continue
			}
			if cut := p.Cut(); len(cut) > 0 {
				_ = s.Advance(cut, p.KeepDots)
				last = cut
			}
		}
		s.advancing.Store(false)
		if !s.refold.Load() || !s.advancing.CompareAndSwap(false, true) {
			return
		}
	}
}

// Advance folds every journal entry visible at cut into each object's base
// version and truncates the journals (paper §4.1). Transactions whose every
// update was folded everywhere they appear are released from the dot index
// only if keepDots is false; keeping dots preserves duplicate filtering
// across migration at the cost of memory.
//
// The base is sealed and may be shared with in-flight readers, so the fold
// builds a copy-on-write fork, compacts sequence tombstones on it — every
// operation in the folded base is stable at cut, so tombstones no retained
// element anchors on can never be referenced by an op the cut admits — and
// seals the fork as the new base.
//
// Shards are advanced one at a time, so concurrent reads of untouched shards
// proceed; cut must be stable (every future read vector dominates it), which
// also makes the shard-by-shard fold invisible to readers.
func (s *Store) Advance(cut vclock.Vector, keepDots bool) error {
	cut = cut.Clone() // base vectors may share it; the caller may not
	var folded []vclock.Dot
	for si := range s.shards {
		sh := &s.shards[si]
		sh.mu.Lock()
		for id, obj := range sh.objects {
			dots, err := foldLocked(obj, cut)
			if err != nil {
				sh.mu.Unlock()
				return fmt.Errorf("advance %s: %w", id, err)
			}
			folded = append(folded, dots...)
		}
		sh.mu.Unlock()
	}
	if !keepDots {
		s.forgetTx(folded...)
	}
	s.baseAdv.Inc()
	return nil
}

// foldLocked folds the journal entries of obj visible at cut into a fork of
// its base, installs the fork as the new base at baseVec ⊔ cut, and returns
// the dot of every folded entry. Group-visibility marks play no part: an
// entry folds only once the cut covers it. The caller holds the object's
// shard write lock.
func foldLocked(obj *object, cut vclock.Vector) (folded []vclock.Dot, err error) {
	var fork crdt.Object
	kept := obj.journal[:0]
	for _, e := range obj.journal {
		if !e.tx.VisibleAt(cut) {
			kept = append(kept, e)
			continue
		}
		if fork == nil {
			fork = obj.base.Fork()
		}
		if err := fork.Apply(e.tx.Meta(e.idx), e.tx.Updates[e.idx].Op); err != nil {
			return nil, err
		}
		folded = append(folded, e.tx.Dot)
	}
	obj.journal = kept
	if fork != nil {
		if c, ok := fork.(crdt.Compactor); ok {
			c.CompactTombstones()
		}
		fork.Seal()
		obj.base = fork
	}
	// Copy-on-write: ReadSeed hands the current vector out, and its reader
	// uses it after the shard lock is released. LUB never mutates either
	// operand, and cut is the fold's own copy, so objects may share it.
	obj.baseVec = vclock.LUB(obj.baseVec, cut)
	// The base moved and journal indices shifted; drop the memoised
	// materialisation.
	obj.cache = nil
	return folded, nil
}

// AdvanceBuckets is the per-bucket form of Advance for partially replicated
// stores: each object folds at the cut its own bucket has reached (per-bucket
// K-stability), so a bucket held by few slow replicas does not hold back
// journal truncation everywhere else. An empty cut skips the bucket (it is
// pending, dropped, or has no live replicas). Dots are always kept: a
// transaction may span buckets advancing at different cuts, so releasing its
// dot when only some of its entries folded would break duplicate filtering.
func (s *Store) AdvanceBuckets(cutFor func(bucket string) vclock.Vector) error {
	folded := 0
	cuts := make(map[string]vclock.Vector)
	for si := range s.shards {
		sh := &s.shards[si]
		sh.mu.Lock()
		for id, obj := range sh.objects {
			cut, ok := cuts[id.Bucket]
			if !ok {
				cut = cutFor(id.Bucket).Clone() // shared by base vectors, as in Advance
				cuts[id.Bucket] = cut
			}
			if len(cut) == 0 {
				continue
			}
			dots, err := foldLocked(obj, cut)
			if err != nil {
				sh.mu.Unlock()
				return fmt.Errorf("advance %s: %w", id, err)
			}
			folded += len(dots)
		}
		sh.mu.Unlock()
	}
	s.baseAdv.Inc()
	return nil
}
