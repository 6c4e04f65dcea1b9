package dc

// This file implements interest-scoped (partial) replication at the DC layer
// (DESIGN §4h; Fisheye-style proximity scoping over the snapshot path). A
// partially replicating DC holds only the buckets in its interest set; peers
// learn that set through BucketVec gossip and strip the update payload from
// replicated transactions for buckets the destination does not hold
// ("stubs"). Stubs keep the causal metadata — dot, snapshot, commit — so the
// receiver's state vector, dot filter and stability lattice advance exactly
// as under full replication; only the effects are elided. Buckets are
// acquired with a backfill protocol (snapshot seed at a consistent cut, then
// journal catch-up) and never given up: the bucket table only grows.
// Per-bucket K-stability lets each bucket's base versions advance at the
// frontier of only the replicas that hold it.
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

// bucket lifecycle states. A bucket absent from the table is not held; a
// failed backfill returns a pending bucket to absent, and a live bucket stays
// live for the DC's lifetime.
const (
	bucketPending = iota // backfilling: peers send full payloads, no reads served
	bucketLive           // resident: serves reads and backfills, counts toward stability
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
	// ready is closed when the backfill ends; concurrent EnsureBuckets calls
	// block on it instead of racing a second backfill.
	ready chan struct{}
	// err records a failed backfill for the waiters on ready.
	err error
}

// initPartial initialises the partial-replication state; called from New
// (cfg validation already done).
func (d *DC) initPartial() {
	d.partial = true
	d.buckets = make(map[string]*bucketState)
	for _, b := range d.cfg.Buckets {
		// Boot-time buckets go straight to live: at genesis every bucket is
		// empty everywhere, so there is nothing to backfill. A restarting DC
		// re-plays its WAL first (recover), which restores the effects.
		d.buckets[b] = &bucketState{status: bucketLive}
	}
	d.bucketSeq = 1
	d.wantFloor = 1
	d.publishBucketsLocked()
	d.coord.SetResident(d.bucketResident)
}

// bucketResident is the store-level residency filter: only live buckets
// materialise objects from remote transactions. Pending buckets rely on the
// backfill seed plus reattach (the transaction record is kept either way).
func (d *DC) bucketResident(bucket string) bool {
	d.bmu.Lock()
	defer d.bmu.Unlock()
	st := d.buckets[bucket]
	return st != nil && st.status == bucketLive
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
// ones from a peer replica and waiting out concurrent backfills. It must be
// called without d.mu held (backfills are blocking network calls). A no-op on
// fully replicating DCs.
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
		d.bmu.Unlock()
		return nil
	}
	if st != nil {
		ready := st.ready
		d.bmu.Unlock()
		<-ready
		d.bmu.Lock()
		err := st.err
		d.bmu.Unlock()
		return err
	}
	// Absent: this call owns the backfill. Mark pending and bump the
	// interest-set version *before* reading the state vector — the floor bump
	// guarantees any batch scoped against the older set (which may have
	// stubbed this bucket) is rejected on arrival, and from this point peers
	// that see the new set send full payloads. Everything committed before
	// the bump is ≤ the C_min read below, so the seed covers it.
	st = &bucketState{status: bucketPending, ready: make(chan struct{})}
	d.buckets[bucket] = st
	d.bucketSeq++
	d.wantFloor = d.bucketSeq
	d.publishBucketsLocked()
	d.bmu.Unlock()

	d.gossipBuckets()
	err := d.backfillBucket(bucket, st)

	d.bmu.Lock()
	if err != nil {
		// Back to absent: the waiters hold st and read err; a later ensure
		// starts a fresh backfill.
		err = fmt.Errorf("dc %s: backfill %s: %w", d.cfg.Name, bucket, err)
		st.err = err
		delete(d.buckets, bucket)
	} else {
		st.status = bucketLive
	}
	d.bucketSeq++ // live (or aborted): either way the set changed again
	d.publishBucketsLocked()
	close(st.ready)
	d.bmu.Unlock()
	d.gossipBuckets()
	return err
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
		// bucket with effects always has a live holder: the DC that wrote it
		// ensured it first, and a live bucket is never given up).
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
		resp.Objects = append(resp.Objects, d.materialize(id, at))
	}
	return resp
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
// no-ops (lost effects). Pending and absent buckets return nil (no fold).
// The cut is joined into the bucket's floor *before* the fold uses it, so
// the floor over-estimates the base content even mid-advance.
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
	st.cut = st.cut.Join(cut) // live stays live: no re-check needed
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
