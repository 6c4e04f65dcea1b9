// Interest-sharded push fan-out.
//
// Subscribers are grouped into interest shards — one shard per distinct
// interest *signature* (the sorted set of buckets a subscriber watches) — so
// push state, wakeups and filter passes scale with the number of distinct
// signatures, not the subscriber count. The commit scan routes each newly
// K-stable transaction once per shard whose bucket set it touches (a bucket
// → shard-set index), a bounded worker pool drains dirty shards, and every
// subscriber of a shard receives the same sealed wire.PushFrame: one filter
// pass and one frame build per shard, however many subscribers share it.
//
// Keying shards by the full signature rather than hash(bucket) keeps
// filtering exact: all members of a shard have identical bucket interest, so
// a shared frame can never leak a bucket a member did not subscribe to, and
// every subscriber belongs to exactly one shard, so its push stream stays in
// log (causal) order without cross-shard coordination.
//
// Delivery bookkeeping is a per-subscriber cursor (deliveredIdx) over the
// DC's visible log, advanced only after the network accepted a frame, plus
// the sentStable cut last handed to the network — visibility never outruns
// delivery. Cursors behind a shard's queued segments (send failure, resume
// rewind, interest rebalancing, mid-run join) are healed by a per-cursor
// repair frame built from the log; members that share a cursor share the
// repair too.
package dc

import (
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"colony/internal/txn"
	"colony/internal/vclock"
	"colony/internal/wire"
)

// pushShardWorkers is the size of the worker pool that drains dirty interest
// shards, fixed at the value every deployment ran with while it was still
// configurable.
const pushShardWorkers = 4

// pushSeg is one scanned run of the DC log routed to a shard: the
// transactions in log range [lo, hi) that touch the shard's buckets
// (unfiltered — the flush restricts update lists once per shard), plus the
// stable cut that made the range visible. A zero-width segment (lo == hi)
// is a kick: it carries no transactions but makes the next flush advertise
// stability and repair stale member cursors.
type pushSeg struct {
	lo, hi int
	txs    []*txn.Transaction
	stable vclock.Vector
}

// pushShard groups every subscriber with an identical interest signature.
// sig and buckets are immutable after creation; subs and segs are guarded by
// the fanout mutex. queued marks presence on the dirty list, inflight that a
// worker is flushing (at most one worker per shard, so per-subscriber
// delivery stays FIFO).
type pushShard struct {
	sig      string
	buckets  map[string]bool
	subs     map[*subscription]bool
	segs     []pushSeg
	queued   bool
	inflight bool
	// id is the compact per-DC shard identifier tree frames carry on the
	// wire (the signature is unbounded); immutable after creation.
	id uint64
	// trees are the shard's multicast subtrees (relay-capable members only),
	// guarded by the fanout mutex like subs.
	trees []*pushTree
	// treeByRoot indexes the shard's subtrees by root node name so ack
	// handling is O(1) — at 100k subscribers a hot shard holds thousands of
	// trees and each flush produces one ack per tree.
	treeByRoot map[string]*pushTree
}

// fanout is the sharded fan-out state machine hanging off a DC.
type fanout struct {
	d *DC

	// gen is the log generation: RecheckVisibility rebuilds d.log, shifting
	// every index, so cursors and segments from an older generation are
	// abandoned rather than misapplied.
	gen atomic.Uint64

	mu      sync.Mutex
	cond    *sync.Cond
	stopped bool
	// shards indexes by interest signature; byBucket is the routing index
	// (bucket → shards whose signature contains it); byID resolves the
	// compact shard id tree acks carry.
	shards   map[string]*pushShard
	byBucket map[string]map[*pushShard]bool
	byID     map[uint64]*pushShard
	nextID   uint64
	dirty    []*pushShard
	// idx is the scan frontier over d.log (every index below it has been
	// routed); stable the cut handed out at the last scan; bcast the cut
	// last broadcast to every shard (heartbeat stability advance).
	idx    int
	stable vclock.Vector
	bcast  vclock.Vector
}

func newFanout(d *DC) *fanout {
	f := &fanout{
		d:        d,
		shards:   make(map[string]*pushShard),
		byBucket: make(map[string]map[*pushShard]bool),
		byID:     make(map[uint64]*pushShard),
		stable:   d.mesh.KStable(d.cfg.K),
	}
	f.cond = sync.NewCond(&f.mu)
	return f
}

// stop wakes and terminates the shard workers (DC close).
func (f *fanout) stop() {
	f.mu.Lock()
	f.stopped = true
	f.cond.Broadcast()
	f.mu.Unlock()
}

// shardSigOf derives the interest signature — the canonical (sorted) bucket
// set — of an interest map.
func shardSigOf(interest map[txn.ObjectID]bool) (string, map[string]bool) {
	buckets := make(map[string]bool, 1)
	for id := range interest {
		buckets[id.Bucket] = true
	}
	names := make([]string, 0, len(buckets))
	for b := range buckets {
		names = append(names, b)
	}
	sort.Strings(names)
	return strings.Join(names, "\x1f"), buckets
}

// place puts a subscription in the shard matching its current interest
// signature, creating the shard on first use and leaving the old shard on a
// signature change (interest rebalancing). It always ends with a kick so the
// next flush repairs any gap between the subscriber's delivery cursor and
// the scan frontier. Called with d.mu held.
func (f *fanout) place(sub *subscription) {
	sig, buckets := shardSigOf(sub.interest)
	f.mu.Lock()
	defer f.mu.Unlock()
	if sub.shard == nil || sub.shard.sig != sig {
		f.removeLocked(sub)
		sh := f.shards[sig]
		if sh == nil {
			f.nextID++
			sh = &pushShard{sig: sig, buckets: buckets, subs: make(map[*subscription]bool), id: f.nextID}
			f.shards[sig] = sh
			f.byID[sh.id] = sh
			f.d.fanShards.Add(1)
			for b := range buckets {
				set := f.byBucket[b]
				if set == nil {
					set = make(map[*pushShard]bool)
					f.byBucket[b] = set
				}
				set[sh] = true
			}
		}
		sh.subs[sub] = true
		sub.shard = sh
		if sub.relay {
			f.attachTreeLocked(sh, sub)
		}
	} else if sub.relay && sub.tree == nil {
		// The subscription upgraded to relay-capable (re-subscribe with the
		// Relay bit) without changing its signature.
		f.attachTreeLocked(sub.shard, sub)
	}
	sh := sub.shard
	sh.segs = append(sh.segs, pushSeg{lo: f.idx, hi: f.idx, stable: f.stable})
	f.dirtyLocked(sh)
}

// remove takes a subscription out of its shard, dropping the shard when it
// empties. Called with d.mu held.
func (f *fanout) remove(sub *subscription) {
	f.mu.Lock()
	f.removeLocked(sub)
	f.mu.Unlock()
}

func (f *fanout) removeLocked(sub *subscription) {
	sh := sub.shard
	if sh == nil {
		return
	}
	f.detachTreeLocked(sh, sub)
	delete(sh.subs, sub)
	sub.shard = nil
	if len(sh.subs) > 0 {
		return
	}
	delete(f.shards, sh.sig)
	delete(f.byID, sh.id)
	f.d.fanShards.Add(-1)
	for b := range sh.buckets {
		set := f.byBucket[b]
		delete(set, sh)
		if len(set) == 0 {
			delete(f.byBucket, b)
		}
	}
	for i := range sh.segs {
		f.d.pushDepth.Add(-int64(len(sh.segs[i].txs)))
	}
	sh.segs = nil
}

// dirtyLocked enqueues a shard for flushing (no-op if already queued or a
// worker is on it — the worker re-enqueues after flushing if segments
// remain).
func (f *fanout) dirtyLocked(sh *pushShard) {
	if sh.queued || sh.inflight {
		return
	}
	sh.queued = true
	f.dirty = append(f.dirty, sh)
	f.d.fanDirty.Add(1)
	f.cond.Signal()
}

// scan routes the newly K-stable suffix of d.log to the interest shards: one
// pass over the new transactions, one segment append per touched shard —
// O(new txs + touched shards), independent of the subscriber count. With
// broadcast set (heartbeat / gossip receipt) a pure stability advance is
// fanned to every shard as a zero-width segment; between broadcasts, shards
// learn new cuts only from the segments that carry their transactions, which
// is what keeps a quiet 100k-subscriber population free. Called with d.mu
// held.
func (f *fanout) scan(stable vclock.Vector, broadcast bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.stopped {
		return
	}
	d := f.d
	lo := f.idx
	idx := lo
	var segs map[*pushShard]*pushSeg
	for idx < len(d.log) {
		t := d.log[idx]
		if !t.VisibleAt(stable) {
			break
		}
		for _, u := range t.Updates {
			set := f.byBucket[u.Object.Bucket]
			if len(set) == 0 {
				continue
			}
			for sh := range set {
				if segs == nil {
					segs = make(map[*pushShard]*pushSeg)
				}
				seg := segs[sh]
				if seg == nil {
					seg = &pushSeg{lo: lo, stable: stable}
					segs[sh] = seg
				}
				if n := len(seg.txs); n == 0 || seg.txs[n-1] != t {
					seg.txs = append(seg.txs, t)
				}
			}
		}
		idx++
	}
	f.idx = idx
	f.stable = stable
	for sh, seg := range segs {
		seg.hi = idx
		sh.segs = append(sh.segs, *seg)
		d.pushDepth.Add(int64(len(seg.txs)))
		f.dirtyLocked(sh)
	}
	if broadcast && (f.bcast == nil || !f.bcast.Equal(stable)) {
		f.bcast = stable
		for _, sh := range f.shards {
			if segs[sh] != nil {
				continue
			}
			sh.segs = append(sh.segs, pushSeg{lo: idx, hi: idx, stable: stable})
			f.dirtyLocked(sh)
		}
	}
}

// reset abandons the current log generation (RecheckVisibility rebuilt
// d.log): the scan frontier returns to zero and queued segments are
// discarded — the caller rescans, re-routing everything still visible.
// Returns the new generation for the caller to stamp onto subscriber
// cursors. Called with d.mu held.
func (f *fanout) reset() uint64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	gen := f.gen.Add(1)
	f.idx = 0
	f.bcast = nil
	for _, sh := range f.shards {
		for i := range sh.segs {
			f.d.pushDepth.Add(-int64(len(sh.segs[i].txs)))
		}
		sh.segs = nil
	}
	return gen
}

// runShardWorker is one of the pushShardWorkers pool goroutines: it sleeps
// on the condvar until a shard is dirty, claims it, and flushes it outside
// every lock. One flush serves every subscriber of the shard.
func (d *DC) runShardWorker() {
	defer d.pipeWG.Done()
	f := d.fan
	for {
		f.mu.Lock()
		for !f.stopped && len(f.dirty) == 0 {
			f.cond.Wait()
		}
		if f.stopped {
			f.mu.Unlock()
			return
		}
		sh := f.dirty[0]
		f.dirty[0] = nil
		f.dirty = f.dirty[1:]
		d.fanDirty.Add(-1)
		sh.queued = false
		sh.inflight = true
		segs := sh.segs
		sh.segs = nil
		members := make([]*subscription, 0, len(sh.subs))
		for sub := range sh.subs {
			members = append(members, sub)
		}
		hasTrees := len(sh.trees) > 0
		gen := f.gen.Load()
		f.mu.Unlock()

		d.flushShard(sh, segs, members, hasTrees, gen)

		f.mu.Lock()
		sh.inflight = false
		if len(sh.segs) > 0 && !sh.queued && len(sh.subs) > 0 {
			sh.queued = true
			f.dirty = append(f.dirty, sh)
			d.fanDirty.Add(1)
			f.cond.Signal()
		}
		f.mu.Unlock()
	}
}

// flushShard filters the shard's queued segments once, seals one frame, and
// fans it to every member over one SendMulti pass. Members whose delivery
// cursor is behind the segments (send failure, rewind, rebalancing) are
// grouped by cursor and each group gets one repair-prefixed frame instead.
// hasTrees is the worker's under-lock snapshot of len(sh.trees) > 0 —
// sh.trees itself is guarded by the fanout mutex, which flushShard does not
// hold (planTreeSends re-snapshots under it).
func (d *DC) flushShard(sh *pushShard, segs []pushSeg, members []*subscription, hasTrees bool, gen uint64) {
	total := 0
	for i := range segs {
		total += len(segs[i].txs)
	}
	d.pushDepth.Add(-int64(total))
	if len(segs) == 0 || len(members) == 0 {
		return
	}
	keep := func(u txn.Update) bool { return sh.buckets[u.Object.Bucket] }
	filtered := make([]*txn.Transaction, 0, total)
	starts := make([]int, len(segs))
	for i := range segs {
		starts[i] = len(filtered)
		for _, t := range segs[i].txs {
			if ft := t.RestrictShared(keep); ft != nil {
				filtered = append(filtered, ft)
			}
		}
	}
	hi := segs[len(segs)-1].hi
	stable := segs[len(segs)-1].stable
	d.obsShardFanout.Observe(int64(len(members)))

	// Tree path first: subtrees whose members all share one cursor get the
	// sealed frame once, via their relay root. Members a tree covers are
	// skipped by the direct grouping below.
	var covered map[*subscription]bool
	if hasTrees {
		var plans []treeSend
		plans, covered = d.planTreeSends(sh, hi, stable, gen)
		d.sendTrees(sh, plans, segs, starts, filtered, stable, hi, gen)
	}

	// Group members by delivery cursor; each group shares one sealed frame.
	// The common case is every member at the segments' first boundary: one
	// group, one frame. Each member's rewind counter is snapshotted with its
	// cursor: the post-send advance backs off when a rewind raced the send
	// (same protocol as the tree path), so a requested replay gap is never
	// marked delivered.
	type groupMember struct {
		sub *subscription
		rew uint64
	}
	groups := make(map[int][]groupMember, 1)
	for _, sub := range members {
		if covered[sub] {
			continue
		}
		sub.outMu.Lock()
		ok := sub.fanGen == gen
		di := sub.deliveredIdx
		rew := sub.rewinds
		upToDate := di >= hi && stable.LEQ(sub.sentStable)
		sub.outMu.Unlock()
		if !ok || upToDate {
			continue
		}
		if di > hi {
			di = hi
		}
		groups[di] = append(groups[di], groupMember{sub, rew})
	}
	for di, subs := range groups {
		frame, ok := d.shardFrameFor(sh, segs, starts, filtered, stable, di, gen)
		if !ok {
			continue // log generation changed under us; the rescan re-covers
		}
		d.obsFramesBuilt.Inc()
		d.obsPushBatch.Observe(int64(len(frame.Txs)))
		if len(subs) > 1 {
			d.obsFramesShared.Add(int64(len(subs) - 1))
		}
		names := make([]string, len(subs))
		for i, m := range subs {
			names[i] = m.sub.node
		}
		errs := d.node.SendMulti(names, frame)
		d.obsPushSends.Add(int64(len(names)))
		for i, m := range subs {
			if errs != nil && errs[i] != nil {
				continue // unreachable: cursor stays put, a later flush repairs
			}
			sub := m.sub
			sub.outMu.Lock()
			if sub.fanGen == gen && sub.rewinds == m.rew {
				if hi > sub.deliveredIdx {
					sub.deliveredIdx = hi
				}
				if sub.sentStable.LEQ(stable) {
					sub.sentStable = stable
				}
			}
			sub.outMu.Unlock()
		}
	}
}

// shardFrameFor builds the sealed frame for members whose delivery cursor is
// di: the filtered shard run from di on, preceded by a repair of the log
// range [di, first-covered-segment.lo) when the cursor is behind the queued
// segments. Scan boundaries align cursor and segment edges in steady state,
// so the repair is usually empty and the group shares the plain shard frame.
func (d *DC) shardFrameFor(sh *pushShard, segs []pushSeg, starts []int, filtered []*txn.Transaction, stable vclock.Vector, di int, gen uint64) (wire.PushFrame, bool) {
	i := 0
	for i < len(segs) && segs[i].hi <= di {
		i++
	}
	if i == len(segs) {
		// Cursor already past every segment: pure stability advance.
		return wire.SealPushFrame(d.cfg.Name, nil, stable), true
	}
	txs := filtered[starts[i]:]
	if di >= segs[i].lo {
		// Aligned (or mid-segment, where the overlap deduplicates by dot
		// downstream): no repair needed.
		return wire.SealPushFrame(d.cfg.Name, txs, stable), true
	}
	d.mu.Lock()
	if d.fan.gen.Load() != gen || segs[i].lo > len(d.log) {
		d.mu.Unlock()
		return wire.PushFrame{}, false
	}
	keep := func(u txn.Update) bool { return sh.buckets[u.Object.Bucket] }
	var repair []*txn.Transaction
	for _, t := range d.log[di:segs[i].lo] {
		if ft := t.RestrictShared(keep); ft != nil {
			repair = append(repair, ft)
		}
	}
	d.mu.Unlock()
	if len(repair) == 0 {
		return wire.SealPushFrame(d.cfg.Name, txs, stable), true
	}
	return wire.SealPushFrame(d.cfg.Name, append(repair, txs...), stable), true
}
