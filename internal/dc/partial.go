package dc

// This file implements interest-scoped (partial) replication at the DC layer
// (ROADMAP item 4; Fisheye-style proximity scoping over the PR 4 snapshot
// path). A partially replicating DC holds only the buckets in its interest
// set; peers learn that set through BucketVec gossip and strip the update
// payload from replicated transactions for buckets the destination does not
// hold ("stubs"). Stubs keep the causal metadata — dot, snapshot, commit —
// so the receiver's state vector, dot filter and stability lattice advance
// exactly as under full replication; only the effects are elided. Buckets are
// acquired with a backfill protocol (snapshot seed at a consistent cut, then
// journal catch-up) and released with drop + tombstone; per-bucket
// K-stability lets each bucket's base versions advance at the frontier of
// only the replicas that hold it.
//
// Safety rests on two invariants rather than on message ordering:
//
//  1. Admission is payload-independent. A stub advances the receiver exactly
//     like the full transaction would, so over-stripping can never stall the
//     causal frontier — it can only lose effects, which invariant 2 covers.
//  2. Every effect a DC ever skipped for a bucket is ≤ its state vector at
//     backfill time, so a snapshot seed at any consistent cut ≥ that state
//     re-covers all of them.
//
// The remaining race — a sender stripping a bucket concurrently with the
// receiver subscribing to it — is closed by versioning: ReplBatch.WantSeq
// records which version of the receiver's interest set the sender scoped
// with, and the receiver drops whole batches scoped before its latest bucket
// addition (wantFloor). Dropped batches are recovered by anti-entropy, which
// re-sends with a fresher scope.

import (
	"context"
	"fmt"
	"sort"
	"time"

	"colony/internal/txn"
	"colony/internal/vclock"
	"colony/internal/wire"
)

// bucket lifecycle states.
const (
	bucketPending = iota // backfilling: peers send full payloads, no reads served
	bucketLive           // resident: serves reads and backfills, counts toward stability
	bucketDropped        // tombstone: evicted; re-subscribing requires a full backfill
)

// bucketState is one bucket's lifecycle record. All fields are guarded by
// d.bmu except ready, which is closed exactly once (under bmu) and waited on
// outside every lock.
type bucketState struct {
	status int
	// cut is the bucket's seed/advance floor: the join of every cut its base
	// versions may have been folded or seeded at. Edge-facing seeds
	// materialise at ≥ this cut so a seeded base can never secretly include
	// effects above the advertised vector (which would double-apply on push).
	cut vclock.Vector
	// lastTouch drives cold-bucket eviction.
	lastTouch time.Time
	// ready is closed when the bucket turns live; concurrent EnsureBuckets
	// calls block on it instead of racing a second backfill.
	ready chan struct{}
	// err records a failed backfill for the waiters on ready.
	err error
	// pins records peers this DC has voted Hold for in a DropQuery, with the
	// lease expiry: a pinned bucket refuses to drop until the pinner's
	// BucketDrop arrives (or the lease expires, covering a dropper that died
	// mid-drop). The pin is what makes the drop protocol's survivor
	// confirmation atomic enough: the confirmed survivor cannot itself drop
	// between its vote and the asker's eviction.
	pins map[int]time.Time
	// evicting is non-nil from the moment a drop flips the bucket to
	// tombstoned until its objects are actually evicted from the store; a
	// concurrent ensureBucket waits on it so a fresh backfill can never be
	// clobbered by the trailing eviction of the previous incarnation.
	evicting chan struct{}
}

// dropPinTTL bounds a DropQuery Hold vote: a dropper that confirmed this DC
// as the surviving replica but then died never sends its BucketDrop, and the
// pin must not veto local drops forever.
const dropPinTTL = 30 * time.Second

// ensurePartialLocked initialises the partial-replication state; called from
// New (cfg validation already done).
func (d *DC) initPartial() {
	d.partial = true
	d.buckets = make(map[string]*bucketState)
	for _, b := range d.cfg.Buckets {
		// Boot-time buckets go straight to live: at genesis every bucket is
		// empty everywhere, so there is nothing to backfill. A restarting DC
		// re-plays its WAL first (recover), which restores the effects.
		d.buckets[b] = &bucketState{status: bucketLive, lastTouch: time.Now()}
	}
	d.bucketSeq = 1
	d.wantFloor = 1
	d.publishBucketsLocked()
	d.coord.SetResident(d.bucketResident)
}

// bucketResident is the store-level residency filter: only live buckets
// materialise objects from remote transactions. Pending buckets rely on the
// backfill seed plus reattach (the transaction record is kept either way);
// dropped buckets are tombstoned until re-ensured.
func (d *DC) bucketResident(bucket string) bool {
	d.bmu.Lock()
	defer d.bmu.Unlock()
	st := d.buckets[bucket]
	return st != nil && st.status == bucketLive
}

// bucketsLive reports whether every named bucket is currently live here.
// Subscribe uses it to re-validate after registering interest: a drop that
// raced the registration leaves the bucket tombstoned, and the seed just
// materialised for the subscriber is stale.
func (d *DC) bucketsLive(buckets []string) bool {
	if !d.partial {
		return true
	}
	d.bmu.Lock()
	defer d.bmu.Unlock()
	for _, b := range buckets {
		st := d.buckets[b]
		if st == nil || st.status != bucketLive {
			return false
		}
	}
	return true
}

// publishBucketsLocked pushes the local interest set into the mesh's view
// (self is tracked like any peer). Caller holds d.bmu.
func (d *DC) publishBucketsLocked() {
	live, pending := d.bucketListsLocked()
	d.mesh.SetBuckets(d.cfg.Index, d.bucketSeq, live, pending)
}

// bucketListsLocked snapshots the live and pending bucket names, sorted for
// deterministic wire frames. Caller holds d.bmu.
func (d *DC) bucketListsLocked() (live, pending []string) {
	for b, st := range d.buckets {
		switch st.status {
		case bucketLive:
			live = append(live, b)
		case bucketPending:
			pending = append(pending, b)
		}
	}
	sort.Strings(live)
	sort.Strings(pending)
	return live, pending
}

// bucketVec builds the gossip advertisement of the local interest set.
func (d *DC) bucketVec() wire.BucketVec {
	d.bmu.Lock()
	seq := d.bucketSeq
	live, pending := d.bucketListsLocked()
	d.bmu.Unlock()
	return wire.BucketVec{From: d.cfg.Index, Seq: seq, Live: live, Pending: pending, State: d.State()}
}

// gossipBuckets broadcasts the current interest set to every peer. Called
// after every set change and periodically from the heartbeat loop (so a peer
// that booted later still converges).
func (d *DC) gossipBuckets() {
	if !d.partial {
		return
	}
	msg := d.bucketVec()
	d.mu.Lock()
	peers := d.peerNamesLocked()
	d.mu.Unlock()
	for _, p := range peers {
		_ = d.node.Send(p, msg) // best effort; periodic gossip re-covers
	}
}

// handleBucketVec absorbs a peer's interest advertisement and answers with
// our own (the reply makes BucketVec usable as a Call probe: a joining DC
// learns the peer's true replica set before picking backfill sources).
func (d *DC) handleBucketVec(m wire.BucketVec) any {
	d.mesh.SetBuckets(m.From, m.Seq, m.Live, m.Pending)
	d.mesh.ObservePeer(m.From, m.State)
	if !d.partial {
		return nil
	}
	return d.bucketVec()
}

// EnsureBuckets makes every named bucket live at this DC, backfilling absent
// or tombstoned ones from a peer replica and waiting out concurrent
// backfills. It must be called without d.mu held (backfills are blocking
// network calls). A no-op on fully replicating DCs.
func (d *DC) EnsureBuckets(buckets ...string) error {
	if !d.partial {
		return nil
	}
	for _, b := range buckets {
		if err := d.ensureBucket(b); err != nil {
			return err
		}
	}
	return nil
}

// ensureBucket drives one bucket through the subscribe state machine.
func (d *DC) ensureBucket(bucket string) error {
	d.bmu.Lock()
	st := d.buckets[bucket]
	if st != nil && st.status == bucketLive {
		st.lastTouch = time.Now()
		d.bmu.Unlock()
		return nil
	}
	if st != nil && st.status == bucketPending {
		ready := st.ready
		d.bmu.Unlock()
		<-ready
		d.bmu.Lock()
		err := st.err
		d.bmu.Unlock()
		return err
	}
	if st != nil && st.evicting != nil {
		// A drop tombstoned the bucket but its store eviction is still in
		// flight; wait it out before backfilling, or the trailing eviction
		// would wipe the freshly seeded objects.
		ch := st.evicting
		d.bmu.Unlock()
		<-ch
		return d.ensureBucket(bucket)
	}
	// Absent or tombstoned: this call owns the backfill. Mark pending and
	// bump the interest-set version *before* reading the state vector — the
	// floor bump guarantees any batch scoped against the older set (which may
	// have stubbed this bucket) is rejected on arrival, and from this point
	// peers that see the new set send full payloads. Everything committed
	// before the bump is ≤ the C_min read below, so the seed covers it.
	st = &bucketState{status: bucketPending, lastTouch: time.Now(), ready: make(chan struct{})}
	d.buckets[bucket] = st
	d.bucketSeq++
	d.wantFloor = d.bucketSeq
	d.publishBucketsLocked()
	d.bmu.Unlock()

	d.gossipBuckets()
	err := d.backfillBucket(bucket, st)

	d.bmu.Lock()
	if err != nil {
		st.err = err
		st.status = bucketDropped // tombstone; a later ensure retries
	} else {
		st.status = bucketLive
		st.lastTouch = time.Now()
	}
	d.bucketSeq++ // live (or aborted): either way the set changed again
	d.publishBucketsLocked()
	close(st.ready)
	d.bmu.Unlock()
	d.gossipBuckets()
	if err != nil {
		return fmt.Errorf("dc %s: backfill %s: %w", d.cfg.Name, bucket, err)
	}
	return nil
}

// backfillBucket pulls a consistent snapshot of one bucket from a peer
// replica and seeds the local store with it. C_min is this DC's state vector
// after the pending mark: every effect this DC ever skipped for the bucket is
// ≤ C_min, so any serving cut ≥ C_min re-covers them all. Full-payload
// transactions that arrive while pending are recorded (not materialised) and
// re-attach above the seed when Seed runs.
//
// The seed is installed at resp.At — the *server's* state at serve time,
// which may run ahead of this DC's own state vector and of any transaction
// snapshot opened before the ensure. This deliberately weakens snapshot
// isolation for freshly backfilled buckets: a transaction whose snapshot
// predates the seed cut reads the backfilled bucket at the seed cut (the
// only consistent state the DC holds for it) while reading other buckets at
// its snapshot. The anomaly is read-only, forward in time, and confined to
// the first reads after a subscribe; edge-facing seeds advertise the lifted
// cut (seedCutFor), so the push path never double-applies. The alternative —
// blocking reads until the local state vector covers the seed cut — trades
// read availability at exactly the moment a subscriber is waiting for its
// seed. See DESIGN.md §4h.
func (d *DC) backfillBucket(bucket string, st *bucketState) error {
	cMin := d.State()
	const rounds = 20
	// A bucket may only be declared genesis-empty (live with no seed) after
	// the "no live holder anywhere" verdict has held for this many consecutive
	// rounds, each preceded by a direct BucketVec probe of every peer. One
	// stale gossip round is not evidence: a real holder whose advertisement
	// adding the bucket has not arrived yet is invisible to the candidate
	// list, and bootstrapping over it would ghost-write an empty bucket over
	// committed effects (the stubs this DC admitted for it would never be
	// recovered — its state vector already covers them). The synchronous probe
	// refreshes every reachable peer's view before each re-list, so a live
	// holder is found unless it is partitioned away for all confirm rounds.
	const genesisConfirm = 3
	genesisRounds := 0
	for i := 0; i < rounds; i++ {
		// Re-list candidates every round: gossip (and the probes below) may
		// have surfaced a holder that was invisible when the loop started.
		candidates := d.backfillCandidates(bucket)
		notLive := 0
		for _, peer := range candidates {
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			reply, err := d.node.Call(ctx, peer, wire.BackfillReq{Bucket: bucket, At: cMin.Clone()})
			cancel()
			if err != nil {
				continue
			}
			resp, ok := reply.(wire.BackfillResp)
			if !ok {
				continue
			}
			if !resp.OK {
				if resp.NotLive {
					notLive++
				}
				continue // replica lagging or no longer live for the bucket
			}
			d.obsBackfills.Inc()
			for _, o := range resp.Objects {
				if o.Object == nil {
					continue // object had no state at the serving cut
				}
				d.coord.Seed(o.ID, o.Object, resp.At, o.Folded...)
			}
			d.bmu.Lock()
			st.cut = st.cut.Join(resp.At)
			d.bmu.Unlock()
			return nil
		}
		// No candidate at all, or every candidate answered "not live here":
		// possibly genesis — a bucket that has never been written anywhere (a
		// bucket with effects always has a live holder; DropBucket's confirmed
		// survivor makes a holderless bucket-with-effects unreachable).
		// Partial peers with no BucketVec seen yet are asked like everyone
		// else and answer NotLive truthfully, so a fresh all-partial mesh can
		// still create its first bucket — it just pays genesisConfirm probe
		// rounds for it.
		if notLive == len(candidates) {
			genesisRounds++
			if genesisRounds >= genesisConfirm {
				return nil
			}
			d.probeBucketViews()
			continue
		}
		// Some candidate is merely lagging behind C_min; let replication make
		// progress and retry.
		genesisRounds = 0
		time.Sleep(10 * time.Millisecond)
	}
	return fmt.Errorf("no replica could serve a cut covering %v", cMin)
}

// probeBucketViews synchronously refreshes the mesh's view of every peer's
// interest set: a BucketVec Call carries our advertisement and returns the
// peer's current one, bypassing however stale best-effort gossip has left
// the view. Fully replicating peers reply nil — they are universal in the
// view already. Unreachable peers are skipped; their staleness is bounded by
// the caller's confirm rounds.
func (d *DC) probeBucketViews() {
	msg := d.bucketVec()
	d.mu.Lock()
	peers := d.peerNamesLocked()
	d.mu.Unlock()
	for _, p := range peers {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		reply, err := d.node.Call(ctx, p, msg)
		cancel()
		if err != nil {
			continue
		}
		if bv, ok := reply.(wire.BucketVec); ok {
			d.mesh.SetBuckets(bv.From, bv.Seq, bv.Live, bv.Pending)
			d.mesh.ObservePeer(bv.From, bv.State)
		}
	}
}

// backfillCandidates lists the network names of peers believed to hold the
// bucket live, in index order for determinism.
func (d *DC) backfillCandidates(bucket string) []string {
	replicas := d.mesh.Replicas(bucket)
	sort.Ints(replicas)
	d.mu.Lock()
	defer d.mu.Unlock()
	var out []string
	for _, idx := range replicas {
		if idx == d.cfg.Index {
			continue
		}
		if name := d.peers[idx]; name != "" {
			out = append(out, name)
		}
	}
	return out
}

// serveBackfill answers a peer's BackfillReq: materialise every local object
// of the bucket at this DC's current state vector — a consistent cut,
// because the DC is an SI zone — provided that cut covers the requester's
// C_min and the bucket is locally live.
func (d *DC) serveBackfill(m wire.BackfillReq) any {
	if d.partial {
		d.bmu.Lock()
		st := d.buckets[m.Bucket]
		liveHere := st != nil && st.status == bucketLive
		d.bmu.Unlock()
		if !liveHere {
			return wire.BackfillResp{Bucket: m.Bucket, OK: false, NotLive: true}
		}
	}
	at := d.State()
	if !m.At.LEQ(at) {
		return wire.BackfillResp{Bucket: m.Bucket, OK: false}
	}
	resp := wire.BackfillResp{Bucket: m.Bucket, At: at, OK: true}
	for _, id := range d.coord.ObjectsInBucket(m.Bucket) {
		resp.Objects = append(resp.Objects, d.materializeLocked(id, at))
	}
	return resp
}

// DropBucket unsubscribes this DC from a bucket: its objects are evicted and
// the bucket is tombstoned (reads refuse until a re-ensure backfills it).
// The drop is refused while any local subscriber still has interest in the
// bucket, while no other replica *synchronously confirms* it holds the bucket
// live (the gossip view alone over-counts: universal peers may hold nothing,
// and two holders sweeping the same cold bucket concurrently would each see
// the other live and both drop, losing the last copies), or while a peer's
// own drop has pinned this DC as its confirmed survivor. The subscriber
// check and the status flip happen atomically under d.mu — a concurrent
// subscribe() either registers its interest first (and vetoes the drop) or
// finds the bucket tombstoned when it re-validates after registering, and
// re-backfills. Peers are told via BucketDrop so the bucket's stability stops
// counting this DC immediately.
func (d *DC) DropBucket(bucket string) error {
	if !d.partial {
		return fmt.Errorf("dc %s: not partially replicating", d.cfg.Name)
	}
	d.bmu.Lock()
	st := d.buckets[bucket]
	if st == nil || st.status != bucketLive {
		d.bmu.Unlock()
		return fmt.Errorf("dc %s: bucket %s not live", d.cfg.Name, bucket)
	}
	d.bmu.Unlock()
	d.mu.Lock()
	sub := d.interestInLocked(bucket)
	d.mu.Unlock()
	if sub != "" {
		// Cheap pre-check so the common veto never pins peers; the
		// authoritative re-check below is atomic with the flip.
		return fmt.Errorf("dc %s: bucket %s still has subscriber interest (%s)", d.cfg.Name, bucket, sub)
	}

	// Confirm a surviving replica before touching anything: a Hold vote pins
	// the bucket at the voter until our BucketDrop arrives, so the survivor
	// cannot itself drop out from under us. Blocking network calls — no locks
	// held. Every abort past this point must release the pins it placed.
	if err := d.confirmSurvivor(bucket); err != nil {
		return fmt.Errorf("dc %s: %w", d.cfg.Name, err)
	}
	abort := func() {
		msg := wire.DropQuery{From: d.cfg.Index, Bucket: bucket, Release: true}
		for _, peer := range d.backfillCandidates(bucket) {
			_ = d.node.Send(peer, msg) // best effort; the lease TTL backstops
		}
	}

	// Atomic veto + flip: interest check and tombstoning under one d.mu
	// critical section (bmu nests inside; subscribe() registers interest under
	// d.mu too, so the two serialise).
	d.mu.Lock()
	if sub := d.interestInLocked(bucket); sub != "" {
		d.mu.Unlock()
		abort()
		return fmt.Errorf("dc %s: bucket %s still has subscriber interest (%s)", d.cfg.Name, bucket, sub)
	}
	peers := d.peerNamesLocked()
	d.bmu.Lock()
	st = d.buckets[bucket]
	if st == nil || st.status != bucketLive {
		d.bmu.Unlock()
		d.mu.Unlock()
		abort()
		return fmt.Errorf("dc %s: bucket %s not live", d.cfg.Name, bucket)
	}
	now := time.Now()
	for pinner, until := range st.pins {
		if now.Before(until) {
			d.bmu.Unlock()
			d.mu.Unlock()
			abort()
			return fmt.Errorf("dc %s: bucket %s pinned as dc %d's drop survivor", d.cfg.Name, bucket, pinner)
		}
	}
	st.status = bucketDropped
	st.cut = nil
	st.pins = nil
	st.evicting = make(chan struct{})
	d.bucketSeq++ // a removal: wantFloor stays (removals cannot lose effects)
	seq := d.bucketSeq
	d.publishBucketsLocked()
	d.bmu.Unlock()
	d.mu.Unlock()

	d.coord.EvictBucket(bucket)
	d.obsEvictions.Inc()
	d.bmu.Lock()
	ch := st.evicting
	st.evicting = nil
	d.bmu.Unlock()
	close(ch) // waiting ensures (re-subscribes) may backfill now
	msg := wire.BucketDrop{From: d.cfg.Index, Seq: seq, Bucket: bucket}
	for _, p := range peers {
		_ = d.node.Send(p, msg)
	}
	return nil
}

// interestInLocked returns the node name of a subscriber with registered
// interest in the bucket, or "" when none has any. Called with d.mu held.
func (d *DC) interestInLocked(bucket string) string {
	for _, sub := range d.subs {
		for id := range sub.interest {
			if id.Bucket == bucket {
				return sub.node
			}
		}
	}
	return ""
}

// confirmSurvivor asks the replicas believed to hold a bucket live whether
// one of them really does, returning nil once a peer votes Hold (and has
// pinned the bucket for us). Universal peers that actually hold nothing vote
// false; fully replicating DCs always vote true (they never drop). No vote at
// all — every candidate unreachable, lagging, or not actually live — refuses
// the drop: this DC may hold the last copy.
func (d *DC) confirmSurvivor(bucket string) error {
	for _, peer := range d.backfillCandidates(bucket) {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		reply, err := d.node.Call(ctx, peer, wire.DropQuery{From: d.cfg.Index, Bucket: bucket})
		cancel()
		if err != nil {
			continue
		}
		if v, ok := reply.(wire.DropVote); ok && v.Hold {
			return nil
		}
	}
	return fmt.Errorf("no live replica confirmed holding %s: refusing to drop what may be the last copy", bucket)
}

// handleDropQuery answers a peer's survivor confirmation. Voting Hold pins
// the bucket against our own drop until the asker's BucketDrop arrives (or
// the lease expires), so a confirmed survivor stays one. Two holders sweeping
// the same bucket concurrently thus pin each other and both refuse — safe,
// and the next sweep retries after the pins clear.
func (d *DC) handleDropQuery(m wire.DropQuery) any {
	if m.Release {
		// The asker's drop aborted after confirmation; clear its pin instead
		// of waiting out the lease.
		d.releaseDropPin(m.From, m.Bucket)
		return nil
	}
	if !d.partial {
		// Fully replicating: holds everything, drops nothing. No pin needed.
		return wire.DropVote{Bucket: m.Bucket, Hold: true}
	}
	d.bmu.Lock()
	defer d.bmu.Unlock()
	st := d.buckets[m.Bucket]
	if st == nil || st.status != bucketLive {
		return wire.DropVote{Bucket: m.Bucket, Hold: false}
	}
	if st.pins == nil {
		st.pins = make(map[int]time.Time)
	}
	st.pins[m.From] = time.Now().Add(dropPinTTL)
	return wire.DropVote{Bucket: m.Bucket, Hold: true}
}

// releaseDropPin clears a peer's survivor pin once its BucketDrop announces
// the drop completed; this DC's own sweep may consider the bucket again.
func (d *DC) releaseDropPin(from int, bucket string) {
	if !d.partial {
		return
	}
	d.bmu.Lock()
	if st := d.buckets[bucket]; st != nil {
		delete(st.pins, from)
	}
	d.bmu.Unlock()
}

// sweepIdleBuckets evicts live buckets untouched for cfg.EvictAfter,
// bounding the resident set by the working set rather than the keyspace.
// DropBucket's own safety checks (another live replica, no subscriber
// interest) veto each candidate individually.
func (d *DC) sweepIdleBuckets() {
	if !d.partial || d.cfg.EvictAfter <= 0 {
		return
	}
	cutoff := time.Now().Add(-d.cfg.EvictAfter)
	d.bmu.Lock()
	var idle []string
	for b, st := range d.buckets {
		if st.status == bucketLive && st.lastTouch.Before(cutoff) {
			idle = append(idle, b)
		}
	}
	d.bmu.Unlock()
	for _, b := range idle {
		_ = d.DropBucket(b) // veto (interest, last replica) is fine
	}
}

// scopeBatch rewrites an outgoing replication batch for one destination:
// transactions whose every touched bucket the destination does not want are
// replaced by stubs (payload stripped, causal metadata kept). wantSeq is the
// version of the destination's interest set the scoping used — read BEFORE
// consulting the set, so a concurrent addition on the receiver makes the
// stamp stale (and the batch dropped) rather than silently under-scoped. A
// destination with no advertised set is universal: full payloads, wantSeq 0.
func (d *DC) scopeBatch(peerIdx int, txs []*txn.Transaction) ([]*txn.Transaction, uint64) {
	wantSeq := d.mesh.BucketSeq(peerIdx)
	if wantSeq == 0 {
		d.obsFullTxs.Add(int64(len(txs)))
		return txs, 0
	}
	out := make([]*txn.Transaction, len(txs))
	for i, t := range txs {
		wanted := len(t.Updates) == 0
		skipped := 0
		for _, u := range t.Updates {
			if d.mesh.Wants(peerIdx, u.Object.Bucket) {
				wanted = true
			} else {
				skipped++
			}
		}
		if wanted {
			// Mixed-bucket transactions ship whole: over-sending is safe and
			// atomicity of the payload is preserved.
			out[i] = t
			d.obsFullTxs.Inc()
			continue
		}
		d.obsStubTxs.Inc()
		d.obsSkipped.Add(int64(skipped))
		out[i] = &txn.Transaction{
			Dot:      t.Dot,
			Origin:   t.Origin,
			Actor:    t.Actor,
			Snapshot: t.Snapshot,
			Commit:   t.Commit,
		}
	}
	return out, wantSeq
}

// dropStale implements the receiver half of the WantSeq guard: a batch scoped
// against an interest set older than our latest bucket addition may have
// stubbed a bucket we now hold, so the whole batch is refused (anti-entropy
// re-covers it with a fresher scope). Unscoped batches (WantSeq 0) are always
// safe.
func (d *DC) dropStale(m wire.ReplBatch) bool {
	if !d.partial || m.WantSeq == 0 {
		return false
	}
	d.bmu.Lock()
	stale := m.WantSeq < d.wantFloor
	d.bmu.Unlock()
	return stale
}

// seedCutFor lifts an edge-facing materialisation cut to at least the
// bucket's seed/advance floor: a backfilled or per-bucket-advanced base may
// include effects above the global stable cut, and advertising a vector
// below the base's true content would make the edge re-apply pushed
// transactions it already holds. The floor is also (re-)joined here with the
// bucket's current advancement cut, keeping it an overestimate of every fold.
func (d *DC) seedCutFor(bucket string, base vclock.Vector) vclock.Vector {
	if !d.partial {
		return base
	}
	d.bmu.Lock()
	defer d.bmu.Unlock()
	st := d.buckets[bucket]
	if st == nil || len(st.cut) == 0 {
		return base
	}
	return base.Clone().Join(st.cut)
}

// bucketCutFor is the per-bucket advancement cut (store.AdvancePolicy.CutFor
// and Compact in partial mode): the meet of the bucket's K-stable frontier —
// computed over only the replicas that hold it — with this DC's own applied
// frontier. The meet keeps the fold at or below what this DC has actually
// applied: with few holders the k-th-largest can exceed our own vector, and
// advancing baseVec past it would make later applies of covered transactions
// no-ops (lost effects). Pending and tombstoned buckets return nil (no
// fold). The cut is joined into the bucket's floor *before* the fold uses
// it, so the floor over-estimates the base content even mid-advance.
//
// Called under store shard locks, so it must not take d.mu (d.mu → shard
// lock is an existing order); the mesh's self view stands in for d.state —
// it lags by at most the commits between state join and ObserveSelf, and a
// smaller cut only folds less.
func (d *DC) bucketCutFor(bucket string) vclock.Vector {
	d.bmu.Lock()
	st := d.buckets[bucket]
	if st == nil || st.status != bucketLive {
		d.bmu.Unlock()
		return nil
	}
	d.bmu.Unlock()
	cut := vclock.GLB(d.mesh.KStableBucket(bucket, d.cfg.K), d.mesh.Known(d.cfg.Index))
	if len(cut) == 0 {
		return nil
	}
	d.bmu.Lock()
	if st.status == bucketLive {
		st.cut = st.cut.Join(cut)
	}
	d.bmu.Unlock()
	return cut
}

// ScopesKnown reports whether this DC has learned every peer's bucket
// interest vector. Until the first BucketVec gossip round completes, peers
// are treated as universal subscribers and replication conservatively ships
// full payloads; benchmarks wait for this before measuring WAN traffic.
// Always true on fully replicating DCs.
func (d *DC) ScopesKnown() bool {
	if !d.partial {
		return true
	}
	for i := 0; i < d.cfg.NumDCs; i++ {
		if i == d.cfg.Index {
			continue
		}
		if d.mesh.BucketSeq(i) == 0 {
			return false
		}
	}
	return true
}

// ResidentStats reports the DC's resident footprint: live buckets, resident
// objects, and canonical state bytes pinned by base versions. For a fully
// replicating DC the bucket figure is the largest per-shard distinct-bucket
// count (a lower bound); partial DCs report their exact live bucket count.
func (d *DC) ResidentStats() (buckets, objects int, bytes int64) {
	buckets, objects, bytes = d.coord.ResidentStats()
	if !d.partial {
		return buckets, objects, bytes
	}
	buckets = 0
	d.bmu.Lock()
	defer d.bmu.Unlock()
	for _, st := range d.buckets {
		if st.status == bucketLive {
			buckets++
		}
	}
	return buckets, objects, bytes
}

// bucketsOf collects the distinct buckets a transaction's updates touch.
func bucketsOf(updates []txn.Update) []string {
	ids := make([]txn.ObjectID, len(updates))
	for i, u := range updates {
		ids[i] = u.Object
	}
	return bucketsOfIDs(ids)
}

// bucketsOfIDs collects the distinct buckets of a set of object ids.
func bucketsOfIDs(ids []txn.ObjectID) []string {
	seen := make(map[string]bool, 2)
	var out []string
	for _, id := range ids {
		if !seen[id.Bucket] {
			seen[id.Bucket] = true
			out = append(out, id.Bucket)
		}
	}
	return out
}
