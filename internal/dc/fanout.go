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
// record (causal) order without cross-shard coordination.
//
// The DC keeps no per-subscriber delivery state. Every frame says which
// slice of the DC's history it covers — positions [Lo, Hi) of generation Gen,
// masked records skipped, each shard's frames forming one gap-free chain —
// and the *receiver* holds the cursor (wire.PushCursor): it integrates a
// frame only when it connects, and on a gap or after silence asks for
// [cursor, …) with a resume-subscribe. The flush is therefore filter once,
// seal once, send, forget; the one repair path is the range reply
// (sendRangeLocked), served straight from d.hist.
package dc

import (
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"colony/internal/txn"
	"colony/internal/vclock"
	"colony/internal/wire"
)

// pushShardWorkers is the size of the worker pool that drains dirty interest
// shards, fixed at the value every deployment ran with while it was still
// configurable.
const pushShardWorkers = 4

// pushSeg is one scanned run of the DC history routed to a shard: the
// visible transactions at positions [lo, hi) that touch the shard's buckets
// (unfiltered — the flush restricts update lists once per shard), plus the
// stable cut that made the range visible. A segment without transactions is a
// pure stability advance: the next frame extends the shard's range to hi and
// advertises the cut.
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
	// next is the position the shard's next frame starts at — the Hi of its
	// previous frame, or the scan frontier when the shard was created. No
	// transaction in [next, first queued segment) touches the shard's
	// buckets (the scan would have routed it), so consecutive frames chain
	// without gaps. Guarded by the fanout mutex.
	next int
	// id is the compact per-DC shard identifier tree frames carry on the
	// wire (the signature is unbounded); immutable after creation.
	id uint64
	// trees are the shard's multicast subtrees (relay-capable members only),
	// guarded by the fanout mutex like subs.
	trees []*pushTree
}

// fanout is the sharded fan-out state machine hanging off a DC.
type fanout struct {
	d *DC

	// gen is the generation every frame and cursor is stamped with. It is
	// seeded from the boot time — recover rebuilds d.hist in WAL order, which
	// is not admission order, so a cursor from a previous incarnation is
	// meaningless and must never match — and bumped whenever
	// RecheckVisibility re-marks d.hist, which may unmask records below every
	// cursor. boot is the seed: a generation in [boot, gen) is an earlier
	// marking of this incarnation's history.
	gen  atomic.Uint64
	boot uint64

	mu      sync.Mutex
	cond    *sync.Cond
	stopped bool
	// shards indexes by interest signature; byBucket is the routing index
	// (bucket → shards whose signature contains it).
	shards   map[string]*pushShard
	byBucket map[string]map[*pushShard]bool
	nextID   uint64
	dirty    []*pushShard
	// idx is the scan frontier over d.hist (every visible record below it has
	// been routed); stable the cut handed out at the last scan; bcast the cut
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
		stable:   d.Stable(),
		boot:     uint64(time.Now().UnixNano()),
	}
	f.gen.Store(f.boot)
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
// signature change (interest rebalancing). Nothing is queued: a joiner holds
// seeds up to the scan frontier, and a member whose cursor does not connect
// to its new shard's chain finds out from the next frame and resumes. Called
// with d.mu held.
func (f *fanout) place(sub *subscription) {
	sig, buckets := shardSigOf(sub.interest)
	f.mu.Lock()
	defer f.mu.Unlock()
	if sub.shard == nil || sub.shard.sig != sig {
		f.removeLocked(sub)
		sh := f.shards[sig]
		if sh == nil {
			f.nextID++
			sh = &pushShard{sig: sig, buckets: buckets, subs: make(map[*subscription]bool), id: f.nextID, next: f.idx}
			f.shards[sig] = sh
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
			f.attachTreeLocked(sh, sub, nil)
		}
	} else if sub.relay && sub.tree == nil {
		// The subscription upgraded to relay-capable (re-subscribe with the
		// Relay bit) without changing its signature.
		f.attachTreeLocked(sub.shard, sub, nil)
	}
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

// scan routes the newly K-stable visible suffix of d.hist to the interest
// shards: one pass over the new records, skipping masked ones and stopping at
// the first visible one not yet stable, one segment append per touched shard
// — O(new records + touched shards), independent of the subscriber count. With
// broadcast set (heartbeat / gossip receipt) a pure stability advance is
// fanned to every shard as an empty segment; between broadcasts, shards
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
	for ; idx < len(d.hist); idx++ {
		if d.hist[idx].masked {
			continue
		}
		t := d.hist[idx].t
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

// reset abandons the current generation (RecheckVisibility re-marked d.hist):
// the scan frontier and every shard's chain return to position zero and
// queued segments are discarded — the caller rescans, re-routing everything
// still visible. Receivers refuse the new generation's frames and resume;
// theirs is an earlier generation of this incarnation, so they are served
// from position zero (resumeLocked). Called with d.mu held.
func (f *fanout) reset() {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.gen.Add(1)
	f.idx = 0
	f.bcast = nil
	for _, sh := range f.shards {
		for i := range sh.segs {
			f.d.pushDepth.Add(-int64(len(sh.segs[i].txs)))
		}
		sh.segs = nil
		sh.next = 0
	}
}

// runShardWorker is one of the pushShardWorkers pool goroutines: it sleeps
// on the condvar until a shard is dirty, claims it — taking its queued
// segments, the range they extend the shard's chain by, and the recipients —
// and flushes it outside every lock. One flush serves every subscriber of the
// shard.
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
		lo := sh.next
		if len(segs) > 0 {
			sh.next = segs[len(segs)-1].hi
		}
		plans, direct := f.planLocked(sh)
		hi, gen := sh.next, f.gen.Load()
		f.mu.Unlock()

		d.flushShard(sh, segs, plans, direct, gen, lo, hi)

		f.mu.Lock()
		sh.inflight = false
		if len(sh.segs) > 0 && len(sh.subs) > 0 {
			f.dirtyLocked(sh)
		}
		f.mu.Unlock()
	}
}

// flushShard filters the shard's queued segments once, seals one frame
// covering [lo, hi), and sends it: once per subtree root (sendTrees) and in
// one SendMulti pass to the members outside any tree. Send errors are not
// tracked — a member the frame did not reach sees the gap at its own cursor
// when the next one arrives, or hears nothing, and resumes either way.
func (d *DC) flushShard(sh *pushShard, segs []pushSeg, plans []treeSend, direct []string, gen uint64, lo, hi int) {
	total := 0
	for i := range segs {
		total += len(segs[i].txs)
	}
	d.pushDepth.Add(-int64(total))
	if len(segs) == 0 || len(plans)+len(direct) == 0 {
		return
	}
	keep := func(u txn.Update) bool { return sh.buckets[u.Object.Bucket] }
	filtered := make([]*txn.Transaction, 0, total)
	for i := range segs {
		for _, t := range segs[i].txs {
			if ft := t.Restrict(keep); ft != nil {
				filtered = append(filtered, ft)
			}
		}
	}
	frame := wire.SealPushFrame(d.cfg.Name, filtered, segs[len(segs)-1].stable, gen, lo, hi)
	served := len(direct)
	for i := range plans {
		served += plans[i].members
	}
	d.obsShardFanout.Observe(int64(served))
	d.obsFramesBuilt.Inc()
	d.obsPushBatch.Observe(int64(len(filtered)))
	d.obsFramesShared.Add(int64(served - 1))

	d.sendTrees(sh, plans, frame)
	if len(direct) > 0 {
		d.node.SendMulti(direct, frame)
		d.obsPushSends.Add(int64(len(direct)))
	}
}

// logIdxAtLocked returns the position of the first visible record of d.hist
// that cut does not cover — where the stream of a subscriber that holds
// exactly cut continues. A linear scan, so it serves only the paths that have
// no cursor to go by: a resume from another generation and a fetch below the
// stable cut. Called with d.mu held.
func (d *DC) logIdxAtLocked(cut vclock.Vector) int {
	for i, r := range d.hist {
		if !r.masked && !r.t.VisibleAt(cut) {
			return i
		}
	}
	return len(d.hist)
}

// frontier returns the scan frontier and the cut that goes with it. Both move
// only under d.mu (scan, reset), so a caller holding d.mu may act on them
// after the fanout mutex is released.
func (f *fanout) frontier() (idx int, stable vclock.Vector) {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.idx, f.stable
}

// resumeLocked decides where a (re)subscribing node's stream continues and
// returns the position for the SubscribeAck. A plain subscribe continues at
// the scan frontier: its seeds cover everything below. A resume in the
// current generation continues at the reported cursor, and the range reply
// goes out before the ack. A resume from any other generation gets the
// position only — the subscriber adopts it from the ack and asks again,
// exactly: from zero if its generation is an earlier one of this incarnation
// (a visibility recheck may have unmasked transactions anywhere), else from
// what Since does not cover (a restart, or a subscriber arriving from another
// DC). Called with d.mu held.
func (d *DC) resumeLocked(sub *subscription, m wire.Subscribe) (gen uint64, from int) {
	f := d.fan
	gen = f.gen.Load()
	idx, stable := f.frontier()
	switch {
	case !m.Resume:
		return gen, idx
	case m.Gen == gen:
		from = min(max(m.Cursor, 0), idx)
		if from < idx || !stable.LEQ(m.Since) {
			d.sendRangeLocked(sub, from, idx, stable, true)
		}
		return gen, from
	case m.Gen >= f.boot && m.Gen < gen:
		return gen, 0
	default:
		return gen, min(d.logIdxAtLocked(m.Since), idx)
	}
}

// sendRangeLocked is the one repair path: it sends sub a direct sealed frame
// with the visible transactions of d.hist[from, idx) that touch its
// signature — idx and stable being the scan frontier and its cut
// (fanout.frontier) — at most wire.RangeMax of them; the receiver asks again
// from its new cursor. The frame carries the cut unless the range was cut
// short of the frontier the cut belongs to. With missed set (a resume),
// a reply that carries transactions also moves a tree child out of its
// subtree: its relay did not reach it. Called with d.mu held.
func (d *DC) sendRangeLocked(sub *subscription, from, idx int, stable vclock.Vector, missed bool) {
	f := d.fan
	sh := sub.shard // placed and removed only under d.mu
	if sh == nil {
		return
	}
	keep := func(u txn.Update) bool { return sh.buckets[u.Object.Bucket] }
	var txs []*txn.Transaction
	to := from
	for ; to < idx && len(txs) < wire.RangeMax; to++ {
		if r := d.hist[to]; !r.masked {
			if ft := r.t.Restrict(keep); ft != nil {
				txs = append(txs, ft)
			}
		}
	}
	if to < idx {
		stable = nil
	}
	if missed && len(txs) > 0 {
		f.moveOut(sh, sub)
	}
	d.obsTreeRepairs.Inc()
	d.obsPushSends.Inc()
	// A refused send needs no handling: the subscriber still holds its cursor
	// and asks again.
	_ = d.node.Send(sub.node, wire.SealPushFrame(d.cfg.Name, txs, stable, f.gen.Load(), from, to))
}
