package edge

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"colony/internal/crdt"
	"colony/internal/dc"
	"colony/internal/simnet"
	"colony/internal/txn"
	"colony/internal/wire"
)

var xID = txn.ObjectID{Bucket: "b", Key: "x"}

// rig is a 3-DC mesh plus helpers.
type rig struct {
	net *simnet.Network
	dcs []*dc.DC
}

func newRig(t *testing.T, nDCs, k int) *rig {
	t.Helper()
	net := simnet.New(simnet.Config{})
	t.Cleanup(net.Close)
	peers := make(map[int]string, nDCs)
	for i := 0; i < nDCs; i++ {
		peers[i] = fmt.Sprintf("dc%d", i)
	}
	dcs := make([]*dc.DC, nDCs)
	for i := 0; i < nDCs; i++ {
		d, err := dc.New(net.Transport(), dc.Config{
			Index: i, Name: peers[i], NumDCs: nDCs, Shards: 2, K: k,
			Heartbeat: 5 * time.Millisecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		d.SetPeers(peers)
		t.Cleanup(d.Close)
		dcs[i] = d
	}
	return &rig{net: net, dcs: dcs}
}

func (r *rig) edge(t *testing.T, name, dcName string) *Node {
	t.Helper()
	n := New(r.net.Transport(), Config{Name: name, Actor: name, DC: dcName, RetryInterval: 5 * time.Millisecond})
	t.Cleanup(n.Close)
	if err := n.Connect(); err != nil {
		t.Fatal(err)
	}
	return n
}

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

func inc(tx *Tx, delta int64) {
	tx.Update(xID, crdt.KindCounter, crdt.Op{Counter: &crdt.CounterOp{Delta: delta}})
}

func counterAt(t *testing.T, n *Node) int64 {
	t.Helper()
	v, err := n.Value(xID, crdt.KindCounter)
	if err != nil {
		t.Fatal(err)
	}
	return v.(int64)
}

func TestLocalCommitIsImmediateAndReadable(t *testing.T) {
	r := newRig(t, 1, 1)
	e := r.edge(t, "edgeA", "dc0")

	tx := e.Begin()
	inc(tx, 3)
	rec, err := tx.Commit()
	if err != nil {
		t.Fatal(err)
	}
	if rec == nil || rec.Dot.Node != "edgeA" {
		t.Fatalf("record = %+v", rec)
	}
	// Read-my-writes: visible immediately, before any DC ack.
	if got := counterAt(t, e); got != 3 {
		t.Fatalf("value = %d", got)
	}
	// Eventually acknowledged with a concrete commit vector.
	waitFor(t, time.Second, func() bool { return e.UnackedCount() == 0 }, "tx never acked")
	if e.Stats().TxAcked != 1 {
		t.Fatalf("stats = %+v", e.Stats())
	}
}

func TestChainedLocalTransactions(t *testing.T) {
	// TA1 and TA2 from Figure 2: TA2 reads TA1's effect from the local
	// cache before either is acknowledged.
	r := newRig(t, 3, 2)
	e := r.edge(t, "edgeA", "dc0")

	t1 := e.Begin()
	inc(t1, 1)
	if _, err := t1.Commit(); err != nil {
		t.Fatal(err)
	}
	t2 := e.Begin()
	obj, src, err := t2.ReadTracked(xID, crdt.KindCounter)
	if err != nil {
		t.Fatal(err)
	}
	if src != SourceCache {
		t.Fatalf("source = %v", src)
	}
	if obj.(*crdt.Counter).Total() != 1 {
		t.Fatalf("TA2 sees %d", obj.(*crdt.Counter).Total())
	}
	inc(t2, 1)
	if _, err := t2.Commit(); err != nil {
		t.Fatal(err)
	}
	waitFor(t, time.Second, func() bool { return e.UnackedCount() == 0 }, "chain never acked")
	// Both at the DC.
	waitFor(t, time.Second, func() bool {
		obj, err := r.dcs[0].ReadAt(xID, r.dcs[0].State())
		return err == nil && obj.(*crdt.Counter).Total() == 2
	}, "DC never saw both txs")
}

func TestReadThroughDCOnMiss(t *testing.T) {
	r := newRig(t, 1, 1)
	seed := r.dcs[0].Begin("seed")
	seed.Update(xID, crdt.KindCounter, crdt.Op{Counter: &crdt.CounterOp{Delta: 9}})
	if _, err := seed.Commit(); err != nil {
		t.Fatal(err)
	}
	e := r.edge(t, "edgeA", "dc0")

	tx := e.Begin()
	obj, src, err := tx.ReadTracked(xID, crdt.KindCounter)
	if err != nil {
		t.Fatal(err)
	}
	if src != SourceDC {
		t.Fatalf("first read source = %v", src)
	}
	if obj.(*crdt.Counter).Total() != 9 {
		t.Fatalf("fetched = %d", obj.(*crdt.Counter).Total())
	}
	// Second read hits the cache.
	tx2 := e.Begin()
	_, src, err = tx2.ReadTracked(xID, crdt.KindCounter)
	if err != nil {
		t.Fatal(err)
	}
	if src != SourceCache {
		t.Fatalf("second read source = %v", src)
	}
}

// TestSubscribeSeedsObjectCommittedBlind: a blind update (no read first)
// creates the object in the edge's cache from the genesis state, so the
// cache holds the object but not the DC's state of it. Subscribing to it
// must install the DC's base under the edge's own update.
func TestSubscribeSeedsObjectCommittedBlind(t *testing.T) {
	r := newRig(t, 1, 1)
	seed := r.dcs[0].Begin("seed")
	seed.Update(xID, crdt.KindCounter, crdt.Op{Counter: &crdt.CounterOp{Delta: 9}})
	if _, err := seed.Commit(); err != nil {
		t.Fatal(err)
	}
	e := r.edge(t, "edgeA", "dc0")
	tx := e.Begin()
	inc(tx, 1)
	if _, err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	waitFor(t, time.Second, func() bool { return e.UnackedCount() == 0 }, "blind update never acked")
	if err := e.AddInterest(xID); err != nil {
		t.Fatal(err)
	}
	if got := counterAt(t, e); got != 10 {
		t.Fatalf("edge reads %d after subscribing, want the DC's 9 plus its own 1", got)
	}
}

func TestFreshObjectReadableOffline(t *testing.T) {
	r := newRig(t, 1, 1)
	e := r.edge(t, "edgeA", "dc0")
	if err := e.AddInterest(xID); err != nil {
		t.Fatal(err)
	}
	r.net.Isolate("edgeA")
	// Unknown-but-uncached object while offline: unavailable (inherent edge
	// limitation, paper §3).
	other := txn.ObjectID{Bucket: "b", Key: "other"}
	tx := e.Begin()
	if _, err := tx.Read(other, crdt.KindCounter); !errors.Is(err, ErrUnavailable) {
		t.Fatalf("offline miss = %v", err)
	}
}

func TestOfflineCommitsFlushOnReconnect(t *testing.T) {
	r := newRig(t, 1, 1)
	e := r.edge(t, "edgeA", "dc0")
	if err := e.AddInterest(xID); err != nil {
		t.Fatal(err)
	}

	r.net.Isolate("edgeA")
	for i := 0; i < 3; i++ {
		tx := e.Begin()
		inc(tx, 1)
		if _, err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	// Offline: all local, none acked, value visible locally.
	if got := counterAt(t, e); got != 3 {
		t.Fatalf("offline value = %d", got)
	}
	if e.UnackedCount() != 3 {
		t.Fatalf("unacked = %d", e.UnackedCount())
	}

	r.net.Rejoin("edgeA")
	waitFor(t, 2*time.Second, func() bool { return e.UnackedCount() == 0 }, "offline txs never flushed")
	waitFor(t, time.Second, func() bool {
		obj, err := r.dcs[0].ReadAt(xID, r.dcs[0].State())
		return err == nil && obj.(*crdt.Counter).Total() == 3
	}, "DC missing offline txs")
}

func TestPushPropagatesRemoteUpdates(t *testing.T) {
	r := newRig(t, 3, 2)
	a := r.edge(t, "edgeA", "dc0")
	b := r.edge(t, "edgeB", "dc1")
	if err := a.AddInterest(xID); err != nil {
		t.Fatal(err)
	}
	if err := b.AddInterest(xID); err != nil {
		t.Fatal(err)
	}

	tx := a.Begin()
	inc(tx, 5)
	if _, err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	// B sees A's update once it is 2-stable and pushed through dc1.
	waitFor(t, 2*time.Second, func() bool { return counterAt(t, b) == 5 }, "remote update never reached edgeB")
}

func TestKStabilityGatesEdgeVisibility(t *testing.T) {
	// With K=2 and DC0 partitioned from its peers, a DC0-local commit must
	// NOT become visible to an edge on DC0 (it is only 1-stable), except to
	// its own author.
	r := newRig(t, 3, 2)
	a := r.edge(t, "edgeA", "dc0")
	b := r.edge(t, "edgeB", "dc0")
	if err := a.AddInterest(xID); err != nil {
		t.Fatal(err)
	}
	if err := b.AddInterest(xID); err != nil {
		t.Fatal(err)
	}
	r.net.Partition("dc0", "dc1")
	r.net.Partition("dc0", "dc2")

	tx := a.Begin()
	inc(tx, 1)
	if _, err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	waitFor(t, time.Second, func() bool { return a.UnackedCount() == 0 }, "ack from dc0")
	// Author sees it (read-my-writes)...
	if got := counterAt(t, a); got != 1 {
		t.Fatalf("author value = %d", got)
	}
	// ...edgeB does not, because the tx is not 2-stable.
	time.Sleep(100 * time.Millisecond)
	if got := counterAt(t, b); got != 0 {
		t.Fatalf("1-stable tx leaked to edgeB: %d", got)
	}
	// Heal: stability reaches 2, and edgeB converges.
	r.net.Heal("dc0", "dc1")
	r.net.Heal("dc0", "dc2")
	waitFor(t, 2*time.Second, func() bool { return counterAt(t, b) == 1 }, "edgeB never converged after heal")
}

func TestMigrationBetweenDCs(t *testing.T) {
	r := newRig(t, 3, 1)
	e := r.edge(t, "edgeA", "dc0")
	if err := e.AddInterest(xID); err != nil {
		t.Fatal(err)
	}

	// Commit locally, cut the link before the ack can arrive, migrate.
	r.net.Isolate("edgeA")
	tx := e.Begin()
	inc(tx, 4)
	if _, err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	r.net.Rejoin("edgeA")
	r.net.Partition("edgeA", "dc0") // old DC stays unreachable
	if err := e.Migrate("dc1"); err != nil {
		t.Fatal(err)
	}
	if e.ConnectedDC() != "dc1" {
		t.Fatalf("connected = %s", e.ConnectedDC())
	}
	waitFor(t, 2*time.Second, func() bool { return e.UnackedCount() == 0 }, "tx never acked by new DC")
	// The tx reaches every DC exactly once.
	for i, d := range r.dcs {
		d := d
		waitFor(t, 2*time.Second, func() bool {
			obj, err := d.ReadAt(xID, d.State())
			return err == nil && obj.(*crdt.Counter).Total() == 4
		}, fmt.Sprintf("dc%d wrong value after migration", i))
	}
}

func TestMigrationDuplicateSuppression(t *testing.T) {
	// The edge sends its tx to DC0, which accepts it, but the ack is lost;
	// after migrating to DC1 the tx is re-sent. Every replica must apply it
	// exactly once.
	r := newRig(t, 2, 1)
	e := r.edge(t, "edgeA", "dc0")
	if err := e.AddInterest(xID); err != nil {
		t.Fatal(err)
	}
	tx := e.Begin()
	inc(tx, 1)
	if _, err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	waitFor(t, time.Second, func() bool { return e.UnackedCount() == 0 }, "first ack")

	// Second tx: force re-send to a different DC by dropping the first ack.
	// Simulate by isolating right after commit, then migrating.
	r.net.Partition("edgeA", "dc0")
	tx2 := e.Begin()
	inc(tx2, 1)
	if _, err := tx2.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := e.Migrate("dc1"); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 2*time.Second, func() bool { return e.UnackedCount() == 0 }, "second ack")
	for i, d := range r.dcs {
		d := d
		waitFor(t, 2*time.Second, func() bool {
			obj, err := d.ReadAt(xID, d.State())
			return err == nil && obj.(*crdt.Counter).Total() == 2
		}, fmt.Sprintf("dc%d did not converge to 2", i))
	}
	if got := counterAt(t, e); got != 2 {
		t.Fatalf("edge value = %d", got)
	}
}

func TestOnUpdateListeners(t *testing.T) {
	r := newRig(t, 1, 1)
	e := r.edge(t, "edgeA", "dc0")
	if err := e.AddInterest(xID); err != nil {
		t.Fatal(err)
	}
	events := make(chan txn.ObjectID, 10)
	e.OnUpdate(xID, func(id txn.ObjectID) { events <- id })

	// Local commit fires the listener.
	tx := e.Begin()
	inc(tx, 1)
	if _, err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	select {
	case id := <-events:
		if id != xID {
			t.Fatalf("event id = %v", id)
		}
	case <-time.After(time.Second):
		t.Fatal("no local event")
	}

	// Remote commit fires it too.
	seed := r.dcs[0].Begin("other")
	seed.Update(xID, crdt.KindCounter, crdt.Op{Counter: &crdt.CounterOp{Delta: 1}})
	if _, err := seed.Commit(); err != nil {
		t.Fatal(err)
	}
	select {
	case <-events:
	case <-time.After(2 * time.Second):
		t.Fatal("no remote event")
	}
}

func TestRunAtDC(t *testing.T) {
	r := newRig(t, 1, 1)
	e := r.edge(t, "edgeA", "dc0")
	// A local dependency the DC must receive first.
	tx := e.Begin()
	inc(tx, 5)
	if _, err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	stamps, err := e.RunAtDC(func(read wire.TxReader, update wire.TxUpdater) error {
		obj, err := read(xID)
		if err != nil {
			return err
		}
		return update(xID, crdt.KindCounter,
			crdt.Op{Counter: &crdt.CounterOp{Delta: obj.(*crdt.Counter).Total()}})
	})
	if err != nil {
		t.Fatal(err)
	}
	if stamps.Symbolic() {
		t.Fatal("migrated tx must commit concretely")
	}
	waitFor(t, time.Second, func() bool {
		obj, err := r.dcs[0].ReadAt(xID, r.dcs[0].State())
		return err == nil && obj.(*crdt.Counter).Total() == 10
	}, "migrated tx effect missing")
}

func TestRemoveInterestEvicts(t *testing.T) {
	r := newRig(t, 1, 1)
	e := r.edge(t, "edgeA", "dc0")
	if err := e.AddInterest(xID); err != nil {
		t.Fatal(err)
	}
	e.RemoveInterest(xID)
	r.net.Isolate("edgeA")
	tx := e.Begin()
	if _, err := tx.Read(xID, crdt.KindCounter); !errors.Is(err, ErrUnavailable) {
		t.Fatalf("read after eviction while offline = %v", err)
	}
}

// TestTreeRelayCrashEdgeConvergence kills a subtree root mid-stream and
// asserts every surviving interested edge still converges through the
// cursor/repair fallback, with no duplicate or lost transactions (the
// counter value is exact). The revived root catches up too.
func TestTreeRelayCrashEdgeConvergence(t *testing.T) {
	net := simnet.New(simnet.Config{})
	t.Cleanup(net.Close)
	d, err := dc.New(net.Transport(), dc.Config{
		Index: 0, Name: "dc0", NumDCs: 1, Shards: 2, K: 1,
		Heartbeat: 5 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	d.SetPeers(map[int]string{0: "dc0"})
	t.Cleanup(d.Close)

	edges := map[string]*Node{}
	for _, name := range []string{"edgeA", "edgeB", "edgeC", "edgeD", "edgeE"} {
		n := New(net.Transport(), Config{Name: name, Actor: name, DC: "dc0", RetryInterval: 5 * time.Millisecond})
		t.Cleanup(n.Close)
		if err := n.Connect(); err != nil {
			t.Fatal(err)
		}
		if err := n.AddInterest(xID); err != nil {
			t.Fatal(err)
		}
		edges[name] = n
	}

	// Edges subscribe with the Relay bit, so the DC builds a subtree.
	topo := d.TreeTopology()
	if len(topo) == 0 {
		t.Fatal("no multicast tree was built for relay-capable edges")
	}
	var root string
	for r := range topo {
		root = r
	}
	// Commit from an edge that is not the root so the writer survives.
	var writer *Node
	for name, n := range edges {
		if name != root {
			writer = n
			break
		}
	}

	commit := func(delta int64) {
		t.Helper()
		tx := writer.Begin()
		inc(tx, delta)
		if _, err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	commit(1)
	commit(1)
	waitFor(t, 2*time.Second, func() bool {
		for _, n := range edges {
			if counterAt(t, n) != 2 {
				return false
			}
		}
		return true
	}, "warm-up commits never propagated")

	// Kill the subtree root mid-push.
	net.Isolate(root)
	for i := 0; i < 5; i++ {
		commit(1)
	}
	waitFor(t, 5*time.Second, func() bool {
		for name, n := range edges {
			if name != root && counterAt(t, n) != 7 {
				return false
			}
		}
		return true
	}, "surviving edges never converged after root crash")
	if got := counterAt(t, edges[root]); got != 2 {
		t.Fatalf("isolated root advanced to %d while partitioned", got)
	}

	// Revive the root: the rewound cursor plus the next flush repair it.
	net.Rejoin(root)
	commit(1)
	waitFor(t, 5*time.Second, func() bool {
		for _, n := range edges {
			if counterAt(t, n) != 8 {
				return false
			}
		}
		return true
	}, "revived root never repaired")
}
