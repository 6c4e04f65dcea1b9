package dc

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"colony/internal/crdt"
	"colony/internal/simnet"
	"colony/internal/txn"
	"colony/internal/vclock"
	"colony/internal/wire"
)

var xID = txn.ObjectID{Bucket: "b", Key: "x"}

// cluster builds n DCs on a fresh network.
func cluster(t *testing.T, net *simnet.Network, n, k int) []*DC {
	t.Helper()
	dcs := make([]*DC, n)
	peers := make(map[int]string, n)
	for i := 0; i < n; i++ {
		peers[i] = fmt.Sprintf("dc%d", i)
	}
	for i := 0; i < n; i++ {
		d, err := New(net.Transport(), Config{Index: i, Name: peers[i], NumDCs: n, Shards: 2, K: k})
		if err != nil {
			t.Fatal(err)
		}
		d.SetPeers(peers)
		t.Cleanup(d.Close)
		dcs[i] = d
	}
	return dcs
}

// waitFor polls until cond holds or the deadline passes.
func waitFor(t *testing.T, d time.Duration, cond func() bool, msg string) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timeout: %s", msg)
}

func counterValue(t *testing.T, d *DC, at vclock.Vector) int64 {
	t.Helper()
	obj, err := d.ReadAt(xID, at)
	if err != nil {
		return 0
	}
	return obj.(*crdt.Counter).Total()
}

func TestLocalTransactionLifecycle(t *testing.T) {
	net := simnet.New(simnet.Config{})
	defer net.Close()
	d := cluster(t, net, 1, 1)[0]

	tx := d.Begin("alice")
	// Read of an unknown object with a buffered update materialises from the
	// initial state plus the buffer (read-your-writes inside the tx).
	tx.Update(xID, crdt.KindCounter, crdt.Op{Counter: &crdt.CounterOp{Delta: 3}})
	obj, err := tx.Read(xID)
	if err != nil {
		t.Fatal(err)
	}
	if obj.(*crdt.Counter).Total() != 3 {
		t.Fatalf("in-tx read = %d", obj.(*crdt.Counter).Total())
	}
	stamps, err := tx.Commit()
	if err != nil {
		t.Fatal(err)
	}
	if stamps.Symbolic() {
		t.Fatal("local commit must be concrete")
	}
	if got := counterValue(t, d, d.State()); got != 3 {
		t.Fatalf("committed value = %d", got)
	}
	if _, err := tx.Commit(); err == nil {
		t.Fatal("double commit must error")
	}
	// Read-only transaction commits with nil stamps.
	ro := d.Begin("alice")
	if _, err := ro.Read(xID); err != nil {
		t.Fatal(err)
	}
	stamps, err = ro.Commit()
	if err != nil || stamps != nil {
		t.Fatalf("read-only commit = %v, %v", stamps, err)
	}
}

func TestSnapshotIsolationWithinDC(t *testing.T) {
	net := simnet.New(simnet.Config{})
	defer net.Close()
	d := cluster(t, net, 1, 1)[0]

	t1 := d.Begin("a")
	t1.Update(xID, crdt.KindCounter, crdt.Op{Counter: &crdt.CounterOp{Delta: 1}})
	if _, err := t1.Commit(); err != nil {
		t.Fatal(err)
	}

	// t2 snapshots now; a commit after t2 began must stay invisible to it.
	t2 := d.Begin("a")
	t3 := d.Begin("a")
	t3.Update(xID, crdt.KindCounter, crdt.Op{Counter: &crdt.CounterOp{Delta: 10}})
	if _, err := t3.Commit(); err != nil {
		t.Fatal(err)
	}
	obj, err := t2.Read(xID)
	if err != nil {
		t.Fatal(err)
	}
	if got := obj.(*crdt.Counter).Total(); got != 1 {
		t.Fatalf("snapshot read saw later commit: %d", got)
	}
}

func TestReplicationAcrossDCs(t *testing.T) {
	net := simnet.New(simnet.Config{})
	defer net.Close()
	dcs := cluster(t, net, 3, 1)

	tx := dcs[0].Begin("a")
	tx.Update(xID, crdt.KindCounter, crdt.Op{Counter: &crdt.CounterOp{Delta: 5}})
	if _, err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	for i, d := range dcs {
		d := d
		waitFor(t, time.Second, func() bool {
			return counterValue(t, d, d.State()) == 5
		}, fmt.Sprintf("dc%d never saw the transaction", i))
	}
}

func TestConcurrentCommitsMergeEverywhere(t *testing.T) {
	net := simnet.New(simnet.Config{})
	defer net.Close()
	dcs := cluster(t, net, 3, 1)

	// The Figure 2 scenario: concurrent increments at DC0 and DC1 merge at
	// every DC to the sum.
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(d *DC) {
			defer wg.Done()
			tx := d.Begin("a")
			tx.Update(xID, crdt.KindCounter, crdt.Op{Counter: &crdt.CounterOp{Delta: 1}})
			_, _ = tx.Commit()
		}(dcs[i])
	}
	wg.Wait()
	for i, d := range dcs {
		d := d
		waitFor(t, time.Second, func() bool {
			return counterValue(t, d, d.State()) == 2
		}, fmt.Sprintf("dc%d did not converge", i))
	}
}

func TestEdgeCommitAcceptance(t *testing.T) {
	net := simnet.New(simnet.Config{})
	defer net.Close()
	dcs := cluster(t, net, 3, 1)
	edge := net.AddNode("edgeA", nil)

	etx := &txn.Transaction{
		Dot:      vclock.Dot{Node: "edgeA", Seq: 1},
		Origin:   "edgeA",
		Snapshot: vclock.NewVector(3),
	}
	etx.AppendUpdate(xID, crdt.KindCounter, crdt.Op{Counter: &crdt.CounterOp{Delta: 7}})

	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	reply, err := edge.Call(ctx, "dc0", wire.EdgeCommit{Tx: etx})
	if err != nil {
		t.Fatal(err)
	}
	ack, ok := reply.(wire.EdgeCommitAck)
	if !ok {
		t.Fatalf("reply = %#v", reply)
	}
	if ack.DCIndex != 0 || ack.Ts == 0 {
		t.Fatalf("ack = %+v", ack)
	}
	// Re-send (migration duplicate): same stamps, no double effect.
	reply2, err := edge.Call(ctx, "dc0", wire.EdgeCommit{Tx: etx.Clone()})
	if err != nil {
		t.Fatal(err)
	}
	ack2 := reply2.(wire.EdgeCommitAck)
	if ack2.Ts != ack.Ts || ack2.DCIndex != ack.DCIndex {
		t.Fatalf("duplicate ack differs: %+v vs %+v", ack2, ack)
	}
	if got := counterValue(t, dcs[0], dcs[0].State()); got != 7 {
		t.Fatalf("value = %d", got)
	}
	// And the other DCs converge.
	waitFor(t, time.Second, func() bool {
		return counterValue(t, dcs[2], dcs[2].State()) == 7
	}, "edge tx never replicated")
}

func TestEdgeCommitIncompatibleSnapshotNacked(t *testing.T) {
	net := simnet.New(simnet.Config{})
	defer net.Close()
	cluster(t, net, 2, 1)
	edge := net.AddNode("edgeA", nil)

	etx := &txn.Transaction{
		Dot:      vclock.Dot{Node: "edgeA", Seq: 1},
		Origin:   "edgeA",
		Snapshot: vclock.Vector{99, 0}, // depends on unseen transactions
	}
	etx.AppendUpdate(xID, crdt.KindCounter, crdt.Op{Counter: &crdt.CounterOp{Delta: 1}})
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	reply, err := edge.Call(ctx, "dc0", wire.EdgeCommit{Tx: etx})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := reply.(wire.EdgeCommitNack); !ok {
		t.Fatalf("want nack, got %#v", reply)
	}
}

func TestSubscriptionPushesKStableTxs(t *testing.T) {
	net := simnet.New(simnet.Config{})
	defer net.Close()
	dcs := cluster(t, net, 3, 2) // K=2: needs two DCs before edge visibility

	var (
		mu     sync.Mutex
		pushes []wire.PushTxs
	)
	sub := net.AddNode("edgeA", func(_ string, msg any) any {
		if p, ok := msg.(wire.PushTxs); ok {
			mu.Lock()
			pushes = append(pushes, p)
			mu.Unlock()
		}
		return nil
	})
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	reply, err := sub.Call(ctx, "dc0", wire.Subscribe{Node: "edgeA", Objects: []txn.ObjectID{xID}})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := reply.(wire.SubscribeAck); !ok {
		t.Fatalf("reply = %#v", reply)
	}

	tx := dcs[0].Begin("a")
	tx.Update(xID, crdt.KindCounter, crdt.Op{Counter: &crdt.CounterOp{Delta: 4}})
	if _, err := tx.Commit(); err != nil {
		t.Fatal(err)
	}

	// The tx becomes 2-stable once some peer advertises a state vector
	// covering it (piggybacked on its own replication or traffic). DC1/DC2
	// apply it and their next message back carries the new state — but with
	// no further traffic, stability stalls. Drive it with another commit.
	tx2 := dcs[1].Begin("a")
	tx2.Update(xID, crdt.KindCounter, crdt.Op{Counter: &crdt.CounterOp{Delta: 1}})
	if _, err := tx2.Commit(); err != nil {
		t.Fatal(err)
	}

	waitFor(t, 2*time.Second, func() bool {
		mu.Lock()
		defer mu.Unlock()
		total := int64(0)
		for _, p := range pushes {
			for _, tr := range p.Txs {
				for _, u := range tr.Updates {
					total += u.Op.Counter.Delta
				}
			}
		}
		return total == 5
	}, "subscriber never received both 2-stable transactions")

	// Pushes must arrive in causal order: commit vectors non-decreasing.
	mu.Lock()
	defer mu.Unlock()
	var last vclock.Vector
	for _, p := range pushes {
		for _, tr := range p.Txs {
			cv, _ := tr.CommitVector()
			if last != nil && !last.LEQ(vclock.LUB(last, cv)) {
				t.Fatalf("push order violates causality")
			}
			last = vclock.LUB(last, cv)
		}
	}
}

func TestSubscribeReturnsMaterializedState(t *testing.T) {
	net := simnet.New(simnet.Config{})
	defer net.Close()
	dcs := cluster(t, net, 1, 1)

	tx := dcs[0].Begin("a")
	tx.Update(xID, crdt.KindCounter, crdt.Op{Counter: &crdt.CounterOp{Delta: 9}})
	if _, err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	edge := net.AddNode("edgeA", nil)
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	reply, err := edge.Call(ctx, "dc0", wire.Subscribe{Node: "edgeA", Objects: []txn.ObjectID{xID}})
	if err != nil {
		t.Fatal(err)
	}
	ack := reply.(wire.SubscribeAck)
	if len(ack.Objects) != 1 {
		t.Fatalf("objects = %d", len(ack.Objects))
	}
	st := ack.Objects[0]
	if st.Object == nil || st.Object.(*crdt.Counter).Total() != 9 {
		t.Fatalf("materialised state = %#v", st.Object)
	}
}

func TestFetchUnknownObjectReturnsEmptyState(t *testing.T) {
	net := simnet.New(simnet.Config{})
	defer net.Close()
	cluster(t, net, 1, 1)
	edge := net.AddNode("edgeA", nil)
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	reply, err := edge.Call(ctx, "dc0", wire.FetchObject{ID: xID})
	if err != nil {
		t.Fatal(err)
	}
	st := reply.(wire.ObjectState)
	if st.Object != nil {
		t.Fatalf("expected empty state, got %#v", st.Object)
	}
}

func TestMigratedTransaction(t *testing.T) {
	net := simnet.New(simnet.Config{})
	defer net.Close()
	dcs := cluster(t, net, 1, 1)

	seed := dcs[0].Begin("a")
	seed.Update(xID, crdt.KindCounter, crdt.Op{Counter: &crdt.CounterOp{Delta: 2}})
	if _, err := seed.Commit(); err != nil {
		t.Fatal(err)
	}

	edge := net.AddNode("edgeA", nil)
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	m := wire.MigratedTx{
		Origin:   "edgeA",
		Actor:    "alice",
		Snapshot: dcs[0].State(),
		Fn: func(read wire.TxReader, update wire.TxUpdater) error {
			obj, err := read(xID)
			if err != nil {
				return err
			}
			// Double the counter: a read-dependent update, the kind of logic
			// worth shipping to the cloud.
			total := obj.(*crdt.Counter).Total()
			return update(xID, crdt.KindCounter, crdt.Op{Counter: &crdt.CounterOp{Delta: total}})
		},
	}
	reply, err := edge.Call(ctx, "dc0", m)
	if err != nil {
		t.Fatal(err)
	}
	ack := reply.(wire.MigratedTxAck)
	if ack.Err != "" {
		t.Fatalf("migrated tx failed: %s", ack.Err)
	}
	if got := counterValue(t, dcs[0], dcs[0].State()); got != 4 {
		t.Fatalf("value = %d, want 4", got)
	}

	// A migrated tx whose snapshot the DC has not caught up with is refused.
	bad := m
	bad.Snapshot = vclock.Vector{99}
	reply, err = edge.Call(ctx, "dc0", bad)
	if err != nil {
		t.Fatal(err)
	}
	if reply.(wire.MigratedTxAck).Err == "" {
		t.Fatal("incompatible migrated tx must be refused")
	}
}

func TestVisibilityMaskingIsTransitive(t *testing.T) {
	net := simnet.New(simnet.Config{})
	defer net.Close()
	dcs := cluster(t, net, 1, 1)
	// Mask every transaction by the actor "mallory".
	dcs[0].SetVisibilityCheck(func(t *txn.Transaction) bool { return t.Actor != "mallory" })

	var (
		mu     sync.Mutex
		pushed int
	)
	sub := net.AddNode("edgeA", func(_ string, msg any) any {
		if p, ok := msg.(wire.PushTxs); ok {
			mu.Lock()
			pushed += len(p.Txs)
			mu.Unlock()
		}
		return nil
	})
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	if _, err := sub.Call(ctx, "dc0", wire.Subscribe{Node: "edgeA", Objects: []txn.ObjectID{xID}}); err != nil {
		t.Fatal(err)
	}

	bad := dcs[0].Begin("mallory")
	bad.Update(xID, crdt.KindCounter, crdt.Op{Counter: &crdt.CounterOp{Delta: 100}})
	if _, err := bad.Commit(); err != nil {
		t.Fatal(err)
	}
	// A dependent transaction (its snapshot covers the masked commit) is
	// masked transitively even though its actor is trusted.
	dep := dcs[0].Begin("alice")
	dep.Update(xID, crdt.KindCounter, crdt.Op{Counter: &crdt.CounterOp{Delta: 1}})
	if _, err := dep.Commit(); err != nil {
		t.Fatal(err)
	}
	time.Sleep(50 * time.Millisecond)
	mu.Lock()
	defer mu.Unlock()
	if pushed != 0 {
		t.Fatalf("masked transactions leaked to subscriber: %d", pushed)
	}
	if dcs[0].MaskedCount() != 2 {
		t.Fatalf("MaskedCount = %d, want 2", dcs[0].MaskedCount())
	}
}

func TestHeartbeatAdvancesStability(t *testing.T) {
	net := simnet.New(simnet.Config{})
	defer net.Close()
	n := 3
	peers := map[int]string{0: "dc0", 1: "dc1", 2: "dc2"}
	dcs := make([]*DC, n)
	for i := 0; i < n; i++ {
		d, err := New(net.Transport(), Config{
			Index: i, Name: peers[i], NumDCs: n, Shards: 2, K: 2,
			Heartbeat: 5 * time.Millisecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		d.SetPeers(peers)
		defer d.Close()
		dcs[i] = d
	}
	tx := dcs[0].Begin("a")
	tx.Update(xID, crdt.KindCounter, crdt.Op{Counter: &crdt.CounterOp{Delta: 1}})
	if _, err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	// With heartbeats, no extra traffic is needed for the tx to become
	// 2-stable at DC0.
	waitFor(t, 2*time.Second, func() bool {
		return dcs[0].Stable().Get(0) >= 1
	}, "stability never advanced via heartbeats")
}

// TestStableCutNeverExceedsAppliedState: two peers report transactions this
// DC has not received yet, so the K-th largest known vector runs ahead of its
// own state. Neither a fold nor a cut handed to a subscriber may claim them:
// a fold at that cut would make the store skip them as already folded when
// they arrive.
func TestStableCutNeverExceedsAppliedState(t *testing.T) {
	net := simnet.New(simnet.Config{})
	defer net.Close()
	d, err := New(net.Transport(), Config{Index: 0, Name: "dc0", NumDCs: 3, Shards: 2, K: 2})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(d.Close)
	inc := crdt.Op{Counter: &crdt.CounterOp{Delta: 1}}
	tx := d.Begin("alice")
	tx.Update(xID, crdt.KindCounter, inc)
	if _, err := tx.Commit(); err != nil {
		t.Fatal(err)
	}

	// dc1 committed n increments on top of ours; dc1 and dc2 both have them.
	const n = 5
	ahead := d.State().Set(1, n)
	d.mesh.ObservePeer(1, ahead)
	d.mesh.ObservePeer(2, ahead)
	if s := d.Stable(); !s.LEQ(d.State()) {
		t.Errorf("Stable() = %v exceeds state %v", s, d.State())
	}
	ack, ok := d.subscribe(wire.Subscribe{Node: "e", Objects: []txn.ObjectID{xID}}).(wire.SubscribeAck)
	if !ok {
		t.Fatal("subscribe returned no ack")
	}
	if !ack.Stable.LEQ(d.State()) {
		t.Errorf("subscribe ack cut %v exceeds state %v", ack.Stable, d.State())
	}
	if err := d.Compact(); err != nil {
		t.Fatal(err)
	}

	batch := wire.ReplBatch{From: 1, State: ahead}
	for i := uint64(1); i <= n; i++ {
		r := &txn.Transaction{
			Dot:      vclock.Dot{Node: "dc1", Seq: 100 + i},
			Origin:   "dc1",
			Snapshot: ahead.Clone().Set(1, i-1),
			Commit:   vclock.CommitStamps{1: i},
		}
		r.AppendUpdate(xID, crdt.KindCounter, inc)
		batch.Txs = append(batch.Txs, r)
	}
	d.receiveReplicated(batch)
	if got := counterValue(t, d, d.State()); got != 1+n {
		t.Fatalf("counter = %d after the replicated increments, want %d", got, 1+n)
	}
}

func TestAutoAdvanceBoundsShardJournals(t *testing.T) {
	net := simnet.New(simnet.Config{})
	defer net.Close()
	const threshold = 8
	d, err := New(net.Transport(), Config{
		Index: 0, Name: "dc0", NumDCs: 1, Shards: 2, K: 1,
		AutoAdvanceThreshold: threshold,
	})
	if err != nil {
		t.Fatal(err)
	}
	d.SetPeers(map[int]string{0: "dc0"})
	t.Cleanup(d.Close)

	const writes = 200
	for i := 0; i < writes; i++ {
		tx := d.Begin("alice")
		tx.Update(xID, crdt.KindCounter, crdt.Op{Counter: &crdt.CounterOp{Delta: 1}})
		if _, err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	// The background folds run asynchronously; once the write load stops
	// they must bring every journal back under the threshold.
	waitFor(t, 5*time.Second, func() bool { return d.MaxJournalLen() <= threshold },
		fmt.Sprintf("MaxJournalLen %d did not settle under %d", d.MaxJournalLen(), threshold))
	// And the fold must not have lost or double-counted anything.
	if got := counterValue(t, d, d.State()); got != writes {
		t.Fatalf("total after auto-advance = %d, want %d", got, writes)
	}
	// Folded transactions keep their dots: re-delivery stays deduplicated.
	if got := counterValue(t, d, d.State()); got != writes {
		t.Fatalf("re-read total = %d, want %d", got, writes)
	}
}
