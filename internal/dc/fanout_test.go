package dc

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"colony/internal/crdt"
	"colony/internal/obs"
	"colony/internal/simnet"
	"colony/internal/txn"
	"colony/internal/vclock"
	"colony/internal/wire"
)

var (
	alphaID = txn.ObjectID{Bucket: "alpha", Key: "x"}
	betaID  = txn.ObjectID{Bucket: "beta", Key: "x"}
)

// pushRecorder is a fake edge node: it holds its own cursor in the DC's push
// stream (the same wire.PushCursor rule as edge.Node), integrates only the
// frames that connect to it, resumes on a gap, and checks the delivery-order
// invariants on what it integrates: the advertised stable cut must be
// monotone, and fresh (first-delivery) transactions must arrive in commit
// order — globally in strict mode (no interest changes in the test), per
// bucket otherwise (an interest extension legitimately replays older
// transactions of the newly adopted bucket, like a seed would). The silence
// timer of a real edge is the test's to play: it calls resume by hand.
type pushRecorder struct {
	node   *simnet.Node
	name   string
	strict bool
	relay  bool // subscribes with the Relay bit (treeRecorder)

	mu         sync.Mutex
	dc         string // the DC last subscribed to; resumes go there
	cur        wire.PushCursor
	resuming   bool
	refused    int            // frames that did not connect to the cursor
	byBucket   map[string]int // fresh txs per bucket
	seen       map[vclock.Dot]bool
	lastTs     uint64
	lastTsBkt  map[string]uint64
	stable     vclock.Vector
	violations []string
}

func newPushRecorder(net *simnet.Network, name string, strict bool) *pushRecorder {
	r := &pushRecorder{
		name:      name,
		strict:    strict,
		byBucket:  make(map[string]int),
		seen:      make(map[vclock.Dot]bool),
		lastTsBkt: make(map[string]uint64),
	}
	r.node = net.AddNode(name, r.handle)
	return r
}

func (r *pushRecorder) handle(from string, msg any) any {
	p, ok := msg.(wire.PushTxs)
	if !ok {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.cur.Admit(p.Gen, p.Lo, p.Hi) {
		r.refused++
		if !r.resuming {
			// The handler runs on the DC's link; the resume call must not.
			r.resuming = true
			go r.resume()
		}
		return nil
	}
	if p.Stable != nil {
		if r.stable != nil && !r.stable.LEQ(p.Stable) {
			r.violations = append(r.violations, fmt.Sprintf("stable regressed: %v after %v", p.Stable, r.stable))
		}
		r.stable = p.Stable
	}
	for _, t := range p.Txs {
		if r.seen[t.Dot] {
			continue // replays deduplicate by dot, like a real edge store
		}
		r.seen[t.Dot] = true
		ts := t.Commit[0]
		if r.strict && ts <= r.lastTs {
			r.violations = append(r.violations, fmt.Sprintf("tx ts %d after %d", ts, r.lastTs))
		}
		r.lastTs = ts
		for _, u := range t.Updates {
			b := u.Object.Bucket
			if ts <= r.lastTsBkt[b] {
				r.violations = append(r.violations, fmt.Sprintf("bucket %s ts %d after %d", b, ts, r.lastTsBkt[b]))
			}
			r.lastTsBkt[b] = ts
			r.byBucket[b]++
		}
	}
	return nil
}

func (r *pushRecorder) count(bucket string) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.byBucket[bucket]
}

func (r *pushRecorder) checkClean(t *testing.T) {
	t.Helper()
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, v := range r.violations {
		t.Errorf("%s: delivery violation: %s", r.name, v)
	}
}

// call sends one Subscribe reporting the recorder's position and adopts the
// position the ack hands back when the generation differs — exactly
// edge.Node.subscribe. It reports whether the ack re-based the cursor.
func (r *pushRecorder) call(dc string, resume bool, since vclock.Vector, ids []txn.ObjectID) (rebased bool, err error) {
	r.mu.Lock()
	r.dc = dc
	req := wire.Subscribe{Node: r.name, Objects: ids, Resume: resume, Since: since,
		Gen: r.cur.Gen, Cursor: r.cur.Idx, Relay: r.relay}
	r.mu.Unlock()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	reply, err := r.node.Call(ctx, dc, req)
	if err != nil {
		return false, err
	}
	ack, ok := reply.(wire.SubscribeAck)
	if !ok {
		return false, fmt.Errorf("subscribe reply %T", reply)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if ack.Gen == r.cur.Gen {
		return false, nil
	}
	r.cur = wire.PushCursor{Gen: ack.Gen, Idx: ack.Cursor}
	return true, nil
}

// resume asks the DC for everything after the cursor; a resume the ack
// re-bases (another generation) asks again from the new position.
func (r *pushRecorder) resume() {
	r.mu.Lock()
	dc, since := r.dc, r.stable
	r.mu.Unlock()
	for rebased := true; rebased; {
		rebased, _ = r.call(dc, true, since, nil)
	}
	r.mu.Lock()
	r.resuming = false
	r.mu.Unlock()
}

func (r *pushRecorder) subscribe(t *testing.T, dc string, resume bool, since vclock.Vector, ids ...txn.ObjectID) {
	t.Helper()
	rebased, err := r.call(dc, resume, since, ids)
	if err != nil {
		t.Fatalf("%s subscribe: %v", r.name, err)
	}
	if rebased && resume {
		r.resume()
	}
}

func (r *pushRecorder) unsubscribe(t *testing.T, dc string, ids ...txn.ObjectID) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if _, err := r.node.Call(ctx, dc, wire.Unsubscribe{Node: r.name, Objects: ids}); err != nil {
		t.Fatalf("%s unsubscribe: %v", r.name, err)
	}
}

func commitN(t *testing.T, d *DC, id txn.ObjectID, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		tx := d.Begin("fanout-test")
		tx.Update(id, crdt.KindCounter, crdt.Op{Counter: &crdt.CounterOp{Delta: 1}})
		if _, err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}
}

func singleDC(t *testing.T, net *simnet.Network, tweak func(*Config)) *DC {
	t.Helper()
	cfg := Config{Index: 0, Name: "dc0", NumDCs: 1, Shards: 2, K: 1}
	if tweak != nil {
		tweak(&cfg)
	}
	d, err := New(net.Transport(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(d.Close)
	return d
}

// TestShardedBucketIsolation: a subscriber interested in bucket alpha must
// never receive bucket-beta transactions — including after dropping one
// interest set and re-subscribing with another. Run under -race via make ci.
func TestShardedBucketIsolation(t *testing.T) {
	net := simnet.New(simnet.Config{})
	defer net.Close()
	d := singleDC(t, net, nil)

	ra := newPushRecorder(net, "edgeA", true)
	rb := newPushRecorder(net, "edgeB", true)
	ra.subscribe(t, "dc0", false, nil, alphaID)
	rb.subscribe(t, "dc0", false, nil, betaID)

	commitN(t, d, alphaID, 5)
	commitN(t, d, betaID, 3)
	waitFor(t, 2*time.Second, func() bool {
		return ra.count("alpha") == 5 && rb.count("beta") == 3
	}, "initial pushes never arrived")
	if n := ra.count("beta"); n != 0 {
		t.Fatalf("edgeA (alpha interest) received %d beta txs", n)
	}
	if n := rb.count("alpha"); n != 0 {
		t.Fatalf("edgeB (beta interest) received %d alpha txs", n)
	}

	// Re-subscribe edgeB with a changed interest set: drop beta, adopt
	// alpha. Later beta commits must not reach it any more.
	rb.unsubscribe(t, "dc0", betaID)
	rb.subscribe(t, "dc0", false, nil, alphaID)
	commitN(t, d, betaID, 4)
	commitN(t, d, alphaID, 2)
	waitFor(t, 2*time.Second, func() bool {
		return rb.count("alpha") == 2 && ra.count("alpha") == 7
	}, "post-resubscribe pushes never arrived")
	if n := rb.count("beta"); n != 3 {
		t.Fatalf("edgeB received %d beta txs after dropping beta interest (want the 3 pre-change ones)", n)
	}
	ra.checkClean(t)
	rb.checkClean(t)
}

// TestShardedRebalanceReplaysNewBucket: extending an interest set moves the
// subscriber to a different shard (its signature changed); nothing may be
// lost or reordered per bucket across the move.
func TestShardedRebalanceReplaysNewBucket(t *testing.T) {
	net := simnet.New(simnet.Config{})
	defer net.Close()
	d := singleDC(t, net, nil)

	r := newPushRecorder(net, "edge1", false)
	r.subscribe(t, "dc0", false, nil, alphaID)
	for i := 0; i < 3; i++ {
		commitN(t, d, alphaID, 1)
		commitN(t, d, betaID, 1)
	}
	waitFor(t, 2*time.Second, func() bool { return r.count("alpha") == 3 }, "alpha pushes never arrived")

	// Extend interest: signature alpha → {alpha, beta} (shard rebalance).
	r.subscribe(t, "dc0", false, nil, betaID)
	for i := 0; i < 3; i++ {
		commitN(t, d, betaID, 1)
		commitN(t, d, alphaID, 1)
	}
	waitFor(t, 2*time.Second, func() bool {
		return r.count("alpha") == 6 && r.count("beta") >= 3
	}, "post-rebalance pushes never arrived")
	if n := r.count("beta"); n > 6 {
		t.Fatalf("edge1 received %d beta txs, only 6 were committed", n)
	}
	r.checkClean(t)
}

// TestShardedResumeReplaysLostPushes: pushes lost while the subscriber was
// unreachable are replayed after a Resume re-subscribe (cursor repair).
func TestShardedResumeReplaysLostPushes(t *testing.T) {
	net := simnet.New(simnet.Config{})
	defer net.Close()
	d := singleDC(t, net, nil)

	r := newPushRecorder(net, "edgeR", true)
	r.subscribe(t, "dc0", false, nil, alphaID)
	commitN(t, d, alphaID, 3)
	waitFor(t, 2*time.Second, func() bool { return r.count("alpha") == 3 }, "initial pushes never arrived")

	net.Isolate("edgeR")
	commitN(t, d, alphaID, 3) // these pushes are lost
	net.Rejoin("edgeR")

	r.mu.Lock()
	since := r.stable
	r.mu.Unlock()
	r.subscribe(t, "dc0", true, since, alphaID)
	waitFor(t, 2*time.Second, func() bool { return r.count("alpha") == 6 }, "lost pushes never replayed")
	r.checkClean(t)
}

// TestShardedRecheckStartsNewGeneration: a visibility recheck rebuilds the log
// under every subscriber's cursor. The rebuilt log is a new generation: the
// subscriber refuses its frames, resumes with the old generation, is placed at
// index zero and replayed the log — including a transaction the recheck
// unmasked *below* its stable cut, which a replay by Since would skip.
func TestShardedRecheckStartsNewGeneration(t *testing.T) {
	net := simnet.New(simnet.Config{})
	defer net.Close()
	d := singleDC(t, net, nil)
	var allow atomic.Bool
	d.SetVisibilityCheck(func(tx *txn.Transaction) bool { return tx.Actor != "mallory" || allow.Load() })

	r := newPushRecorder(net, "edgeV", false)
	r.subscribe(t, "dc0", false, nil, alphaID)
	commitN(t, d, alphaID, 1)
	tx := d.Begin("mallory")
	tx.Update(alphaID, crdt.KindCounter, crdt.Op{Counter: &crdt.CounterOp{Delta: 100}})
	masked, err := tx.Commit()
	if err != nil {
		t.Fatal(err)
	}
	commitN(t, d, alphaID, 1) // depends on the masked one: masked with it
	// A stability broadcast (the heartbeat's) carries the cut past both.
	d.mu.Lock()
	d.notifySubscribersLocked(true)
	d.mu.Unlock()
	waitFor(t, 2*time.Second, func() bool {
		r.mu.Lock()
		defer r.mu.Unlock()
		return r.stable.Get(0) > masked[0]
	}, "the stability broadcast never arrived")
	if got := r.count("alpha"); got != 1 {
		t.Fatalf("%d alpha txs delivered while two are masked, want 1", got)
	}
	r.mu.Lock()
	before := r.cur
	r.mu.Unlock()

	allow.Store(true)
	d.RecheckVisibility()
	waitFor(t, 2*time.Second, func() bool { return r.count("alpha") == 3 }, "the unmasked transaction never arrived")
	r.mu.Lock()
	after := r.cur
	r.mu.Unlock()
	if after.Gen == before.Gen || after.Idx != 3 {
		t.Errorf("cursor %+v → %+v, want a new generation at index 3", before, after)
	}
}

// TestFanoutNoGoroutineLeak: 1k subscribe/unsubscribe cycles must leave no
// shard workers behind, and Close must reclaim the worker pool.
func TestFanoutNoGoroutineLeak(t *testing.T) {
	t.Run("sharded", func(t *testing.T) {
		base := runtime.NumGoroutine()
		net := simnet.New(simnet.Config{})
		defer net.Close()
		d, err := New(net.Transport(), Config{Index: 0, Name: "dc0", NumDCs: 1, Shards: 2, K: 1})
		if err != nil {
			t.Fatal(err)
		}
		settle := func(limit int, msg string) {
			t.Helper()
			deadline := time.Now().Add(3 * time.Second)
			for time.Now().Before(deadline) {
				if runtime.NumGoroutine() <= limit {
					return
				}
				runtime.Gosched()
				time.Sleep(5 * time.Millisecond)
			}
			t.Fatalf("%s: %d goroutines, want ≤ %d", msg, runtime.NumGoroutine(), limit)
		}
		after := runtime.NumGoroutine() // includes the bounded worker pool
		for i := 0; i < 1000; i++ {
			name := fmt.Sprintf("edge%d", i%7)
			id := txn.ObjectID{Bucket: fmt.Sprintf("bkt%d", i%13), Key: "k"}
			d.subscribe(wire.Subscribe{Node: name, Objects: []txn.ObjectID{id}})
			d.unsubscribe(wire.Unsubscribe{Node: name})
		}
		settle(after+2, "after churn")
		d.Close()
		settle(base+2, "after close")
	})
}

// TestShardedFanoutObsExposed: the sharded fan-out surfaces its shard count,
// dirty-queue depth, shard-imbalance histogram and frame-sharing counters in
// the obs snapshot.
func TestShardedFanoutObsExposed(t *testing.T) {
	net := simnet.New(simnet.Config{})
	defer net.Close()
	reg := obs.New()
	d := singleDC(t, net, func(cfg *Config) { cfg.Obs = reg })

	// Two subscribers share the alpha signature (one shard, shared frames);
	// a third watches beta (its own shard).
	r1 := newPushRecorder(net, "edge1", true)
	r2 := newPushRecorder(net, "edge2", true)
	r3 := newPushRecorder(net, "edge3", true)
	r1.subscribe(t, "dc0", false, nil, alphaID)
	r2.subscribe(t, "dc0", false, nil, alphaID)
	r3.subscribe(t, "dc0", false, nil, betaID)

	commitN(t, d, alphaID, 8)
	commitN(t, d, betaID, 2)
	waitFor(t, 2*time.Second, func() bool {
		return r1.count("alpha") == 8 && r2.count("alpha") == 8 && r3.count("beta") == 2
	}, "pushes never arrived")

	// One subscriber misses a frame and resumes: the range reply is the repair
	// the ledger counts.
	net.Isolate("edge3")
	commitN(t, d, betaID, 1)
	net.Rejoin("edge3")
	r3.resume()
	waitFor(t, 2*time.Second, func() bool { return r3.count("beta") == 3 }, "the resume never replayed the lost push")

	snap := reg.Snapshot()
	if snap.Counters["dc.tree_repairs"] == 0 {
		t.Error("dc.tree_repairs never counted the range reply")
	}
	if got, ok := snap.Gauges["dc.push_shards"]; !ok || got != 2 {
		t.Errorf("dc.push_shards gauge = %d (present=%v), want 2", got, ok)
	}
	if _, ok := snap.Gauges["dc.push_dirty_shards"]; !ok {
		t.Error("dc.push_dirty_shards gauge missing")
	}
	if snap.Counters["dc.push_frames_built"] == 0 {
		t.Error("dc.push_frames_built never incremented")
	}
	if snap.Counters["dc.push_frames_shared"] == 0 {
		t.Error("dc.push_frames_shared never incremented (two subscribers share a shard)")
	}
	if h := snap.Histograms["dc.push_shard_fanout"]; h.Count == 0 {
		t.Error("dc.push_shard_fanout histogram empty")
	}
	for _, r := range []*pushRecorder{r1, r2, r3} {
		r.checkClean(t)
	}
}
