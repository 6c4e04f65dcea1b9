package store

import (
	"fmt"

	"colony/internal/crdt"
	"colony/internal/obs"
	"colony/internal/txn"
	"colony/internal/vclock"
)

// ReadOptions tune a materialising read. Whatever the options, a read admits
// every entry whose transaction is visible at the cut or marked group-visible
// in this store (ApplyGroupVisible). See the package comment for which
// combinations are eligible for the materialisation cache.
type ReadOptions struct {
	// SelfVisible controls the Read-My-Writes guarantee: when true (the
	// usual setting for edge nodes), transactions originated by this store's
	// node are always visible.
	SelfVisible bool
	// Reject masks journal entries whose transaction fails the predicate —
	// the read-time half of ACL enforcement (paper §6.4: "object versions
	// are visible according to the local copy of the ACL"). The predicate
	// must not call back into the store. Reads with a Reject predicate are
	// never served from the materialisation cache.
	Reject func(*txn.Transaction) bool
}

// readFP fingerprints the cache-relevant shape of a ReadOptions value. Two
// reads with equal fingerprints apply the same visibility predicate to any
// given entry.
type readFP struct {
	selfVisible bool
}

// fingerprint derives the cache key for opts; ok is false when the options
// are not cache-eligible.
func fingerprint(opts ReadOptions) (readFP, bool) {
	return readFP{selfVisible: opts.SelfVisible}, opts.Reject == nil
}

// matCache memoises an object's last materialisation.
//
// A published matCache is immutable — invalidation and refresh replace the
// whole struct — and its state field is a sealed snapshot that readers
// share directly: a cache hit returns the sealed object with zero copying,
// and an incremental refresh forks it (copy-on-write) instead of deep
// cloning.
type matCache struct {
	// state is the materialisation of journal[:watermark] at cut vec under
	// fingerprint fp.
	state crdt.Object
	vec   vclock.Vector
	// watermark is the journal length when state was built.
	watermark int
	// allApplied records that every entry below the watermark was folded
	// into state. Only then can a later read reuse state incrementally: a
	// skipped entry might become visible afterwards (a dominating cut, or a
	// Promote or a group-visibility mark admitting it at the *same* cut),
	// and it can no longer be replayed in journal order. Applied entries stay
	// applied — visibility at a dominating cut is monotone — so allApplied
	// materialisations are safe to extend.
	allApplied bool
	fp         readFP
}

// Read materialises the object at the causal cut at. Entries are replayed in
// journal (arrival) order, which respects causality because the visibility
// layer delivers transactions causally; concurrent entries commute by CRDT
// construction. Returns ErrNotFound for unknown objects.
//
// Cache-eligible reads (see the package comment) reuse the object's last
// materialisation when possible and replay only journal entries past its
// watermark. The returned object is usually a *sealed* snapshot shared with
// the cache and other readers: accessors and Prepare* helpers are safe, but
// callers that need to Apply to it must Fork first (Apply on a sealed
// object returns crdt.ErrSealed rather than corrupting concurrent readers).
func (s *Store) Read(id txn.ObjectID, at vclock.Vector, opts ReadOptions) (crdt.Object, error) {
	sh := s.shardFor(id)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	obj, ok := sh.objects[id]
	if !ok {
		return nil, fmt.Errorf("read %s: %w", id, ErrNotFound)
	}
	return s.materializeLocked(id, obj, at, opts)
}

// Value is Read followed by Object.Value, under a single lock acquisition.
func (s *Store) Value(id txn.ObjectID, at vclock.Vector, opts ReadOptions) (any, error) {
	sh := s.shardFor(id)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	obj, ok := sh.objects[id]
	if !ok {
		return nil, fmt.Errorf("read %s: %w", id, ErrNotFound)
	}
	out, err := s.materializeLocked(id, obj, at, opts)
	if err != nil {
		return nil, err
	}
	return out.Value(), nil
}

// ReadSeed materialises the object at cut at as a seed for another replica's
// cache (Seed's three arguments), under one shard lock so the three agree:
// the state; its coverage at ⊔ baseVec (updates between the two were folded
// into the base); and the dots of the transactions the state contains beyond
// that coverage — group-visible journal entries the coverage does not admit,
// plus whatever this object's own seed declared folded — whose re-delivery
// the seeded store must skip.
func (s *Store) ReadSeed(id txn.ObjectID, at vclock.Vector) (state crdt.Object, coverage vclock.Vector, folded []vclock.Dot, err error) {
	sh := s.shardFor(id)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	obj, ok := sh.objects[id]
	if !ok {
		return nil, nil, nil, fmt.Errorf("read %s: %w", id, ErrNotFound)
	}
	if state, err = s.materializeLocked(id, obj, at, ReadOptions{}); err != nil {
		return nil, nil, nil, err
	}
	coverage = vclock.LUB(at, obj.baseVec)
	for d := range obj.folded {
		folded = append(folded, d) // baked into the base by this object's own seed
	}
	var last vclock.Dot // a transaction's entries are adjacent in the journal
	for _, e := range obj.journal {
		if e.tx.groupVisible && e.tx.Dot != last && !e.tx.VisibleAt(coverage) {
			folded = append(folded, e.tx.Dot)
			last = e.tx.Dot
		}
	}
	return state, coverage, folded, nil
}

// materializeLocked produces the object's state at cut at. The caller holds
// the object's shard lock (read or write).
func (s *Store) materializeLocked(id txn.ObjectID, obj *object, at vclock.Vector, opts ReadOptions) (crdt.Object, error) {
	fp, cacheable := fingerprint(opts)
	if s.readCacheOff {
		cacheable = false
	}
	if !cacheable {
		// Non-cacheable reads hand the caller a private, mutable fork of the
		// base (copy-on-write against the sealed base version).
		out, _, err := s.replay(id, obj.base.Fork(), obj.journal, at, opts)
		return out, err
	}

	obj.cacheMu.Lock()
	c := obj.cache
	obj.cacheMu.Unlock()

	if c != nil && c.fp == fp && c.allApplied && c.vec.LEQ(at) {
		s.cacheHits.Inc()
		if s.bus.Active() {
			s.bus.Publish(obs.Event{Type: obs.EvCacheHit, Node: s.self, Object: id.String()})
		}
		if c.watermark == len(obj.journal) {
			// Nothing new since the cached materialisation: share the sealed
			// snapshot directly — the allocation-free fast path.
			s.snapshots.Inc()
			return c.state, nil
		}
		out, all, err := s.replay(id, c.state.Fork(), obj.journal[c.watermark:], at, opts)
		if err != nil {
			return nil, err
		}
		out.Seal()
		s.installCache(obj, &matCache{
			state:      out,
			vec:        at.Clone(),
			watermark:  len(obj.journal),
			allApplied: all,
			fp:         fp,
		})
		s.snapshots.Inc()
		return out, nil
	}

	// Full replay; memoise the result when it supersedes the cached one.
	s.cacheMiss.Inc()
	if s.bus.Active() {
		s.bus.Publish(obs.Event{Type: obs.EvCacheMiss, Node: s.self, Object: id.String()})
	}
	out, all, err := s.replay(id, obj.base.Fork(), obj.journal, at, opts)
	if err != nil {
		return nil, err
	}
	out.Seal()
	s.installCache(obj, &matCache{
		state:      out,
		vec:        at.Clone(),
		watermark:  len(obj.journal),
		allApplied: all,
		fp:         fp,
	})
	s.snapshots.Inc()
	return out, nil
}

// installCache publishes next as the object's materialisation unless the
// current cache is strictly better (a later cut with the same fingerprint).
// The monotone policy keeps steady-state readers — whose cuts only ever
// grow — hitting the incremental path, while an occasional lagging read
// cannot regress the cache.
func (s *Store) installCache(obj *object, next *matCache) {
	obj.cacheMu.Lock()
	cur := obj.cache
	if cur == nil || cur.fp != next.fp || cur.vec.LEQ(next.vec) {
		obj.cache = next
	}
	obj.cacheMu.Unlock()
}

// replay folds the visible entries of journal into state (mutating it — the
// caller must pass an owned, unsealed object, typically a fresh Fork) and
// reports whether every entry was applied.
func (s *Store) replay(id txn.ObjectID, state crdt.Object, journal []entry, at vclock.Vector, opts ReadOptions) (crdt.Object, bool, error) {
	all := true
	for _, e := range journal {
		if !s.entryVisible(e, at, opts) {
			all = false
			continue
		}
		if err := state.Apply(e.tx.Meta(e.idx), e.tx.Updates[e.idx].Op); err != nil {
			return nil, false, fmt.Errorf("read %s: replay %s: %w", id, e.tx.Dot, err)
		}
	}
	return state, all, nil
}

// entryVisible implements the visibility predicate for one journal entry:
// self ∨ group-visible ∨ visible at the cut, unless masked.
func (s *Store) entryVisible(e entry, at vclock.Vector, opts ReadOptions) bool {
	if opts.Reject != nil && opts.Reject(e.tx.Transaction) {
		return false
	}
	if opts.SelfVisible && e.tx.Origin == s.self {
		return true
	}
	return e.tx.groupVisible || e.tx.VisibleAt(at)
}
