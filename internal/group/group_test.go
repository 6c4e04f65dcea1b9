package group

import (
	"fmt"
	"testing"
	"time"

	"colony/internal/crdt"
	"colony/internal/dc"
	"colony/internal/edge"
	"colony/internal/simnet"
	"colony/internal/txn"
)

var xID = txn.ObjectID{Bucket: "b", Key: "x"}

// rig is a DC mesh plus a peer group.
type rig struct {
	net     *simnet.Network
	dcs     []*dc.DC
	parent  *Parent
	members []*Member
	nodes   []*edge.Node
}

func newRig(t *testing.T, nDCs, k, nMembers int, variant CommitVariant) *rig {
	t.Helper()
	net := simnet.New(simnet.Config{})
	t.Cleanup(net.Close)
	peers := make(map[int]string, nDCs)
	for i := 0; i < nDCs; i++ {
		peers[i] = fmt.Sprintf("dc%d", i)
	}
	r := &rig{net: net}
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
		r.dcs = append(r.dcs, d)
	}
	r.parent = NewParent(net.Transport(), ParentConfig{Name: "parent", DC: "dc0", RetryInterval: 5 * time.Millisecond})
	t.Cleanup(r.parent.Close)
	if err := r.parent.Connect(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < nMembers; i++ {
		name := fmt.Sprintf("peer%d", i)
		n := edge.New(net.Transport(), edge.Config{
			Name: name, Actor: name, DC: "parent", RetryInterval: 5 * time.Millisecond,
		})
		t.Cleanup(n.Close)
		m, err := Join(n, MemberConfig{Parent: "parent", Variant: variant, SyncInterval: 5 * time.Millisecond})
		if err != nil {
			t.Fatal(err)
		}
		// Stop the member's consensus driver with the test: under -count a
		// leaked driver keeps ticking and retrying through every later run.
		t.Cleanup(func() { m.leave(false) })
		r.members = append(r.members, m)
		r.nodes = append(r.nodes, n)
	}
	return r
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

func inc(t *testing.T, n *edge.Node, delta int64) *txn.Transaction {
	t.Helper()
	tx := n.Begin()
	tx.Update(xID, crdt.KindCounter, crdt.Op{Counter: &crdt.CounterOp{Delta: delta}})
	rec, err := tx.Commit()
	if err != nil {
		t.Fatal(err)
	}
	return rec
}

func counterAt(t *testing.T, n *edge.Node) int64 {
	t.Helper()
	v, err := n.Value(xID, crdt.KindCounter)
	if err != nil {
		return -1
	}
	return v.(int64)
}

func TestJoinAndMembership(t *testing.T) {
	r := newRig(t, 1, 1, 3, VariantAsync)
	if got := len(r.parent.Members()); got != 3 {
		t.Fatalf("members = %d", got)
	}
	if len(r.members[0].SessionKey()) != 32 {
		t.Fatal("missing session key")
	}
	// Membership events reach members on change.
	evs := make(chan []string, 4)
	r.members[0].OnMembershipChange(func(ms []string) { evs <- ms })
	n := edge.New(r.net.Transport(), edge.Config{Name: "late", Actor: "late", DC: "parent"})
	t.Cleanup(n.Close)
	m, err := Join(n, MemberConfig{Parent: "parent"})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { m.leave(false) })
	// Older membership broadcasts may still be in flight; wait for the one
	// reflecting the late join (4 members + parent).
	deadline := time.After(time.Second)
	for {
		select {
		case ms := <-evs:
			if len(ms) == 5 {
				return
			}
		case <-deadline:
			t.Fatal("never saw the 5-node membership event")
		}
	}
}

func TestGroupCommitVisibleToAllMembers(t *testing.T) {
	r := newRig(t, 1, 1, 3, VariantAsync)
	// Members pull the object into their caches first.
	for _, n := range r.nodes {
		if err := n.AddInterest(xID); err != nil {
			t.Fatal(err)
		}
	}
	inc(t, r.nodes[0], 5)
	// The update becomes visible to every member through the group's
	// visibility order — well before the DC round trip is needed.
	for i, n := range r.nodes {
		n := n
		waitFor(t, 2*time.Second, func() bool { return counterAt(t, n) == 5 },
			fmt.Sprintf("member %d never saw the group tx", i))
	}
	// And it flows through the sync point to the DC.
	waitFor(t, 2*time.Second, func() bool {
		obj, err := r.dcs[0].ReadAt(xID, r.dcs[0].State())
		return err == nil && obj.(*crdt.Counter).Total() == 5
	}, "sync point never shipped the tx to the DC")
}

func TestGroupTxGetsConcreteCommit(t *testing.T) {
	r := newRig(t, 1, 1, 2, VariantAsync)
	for _, n := range r.nodes {
		if err := n.AddInterest(xID); err != nil {
			t.Fatal(err)
		}
	}
	rec := inc(t, r.nodes[0], 1)
	// The promotion broadcast makes the commit concrete at the author.
	waitFor(t, 2*time.Second, func() bool {
		cur, ok := r.nodes[0].Store().Transaction(rec.Dot)
		return ok && !cur.Symbolic()
	}, "author never learned the concrete commit")
	// And at the other member.
	waitFor(t, 2*time.Second, func() bool {
		cur, ok := r.nodes[1].Store().Transaction(rec.Dot)
		return ok && !cur.Symbolic()
	}, "peer never learned the concrete commit")
}

func TestPSIVariantBlocksUntilOrdered(t *testing.T) {
	r := newRig(t, 1, 1, 2, VariantPSI)
	if err := r.nodes[0].AddInterest(xID); err != nil {
		t.Fatal(err)
	}
	rec := inc(t, r.nodes[0], 1) // returns only after consensus execution
	if !r.nodes[0].Store().GroupVisible(rec.Dot) {
		t.Fatal("PSI commit returned before the tx was group-visible")
	}
}

func TestCollaborativeCacheHit(t *testing.T) {
	r := newRig(t, 1, 1, 2, VariantAsync)
	// Seed the object at the DC, then warm the PARENT cache only via
	// member 0's subscription.
	seed := r.dcs[0].Begin("seed")
	seed.Update(xID, crdt.KindCounter, crdt.Op{Counter: &crdt.CounterOp{Delta: 7}})
	if _, err := seed.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := r.nodes[0].AddInterest(xID); err != nil {
		t.Fatal(err)
	}
	// Member 1 misses locally but hits the group cache.
	tx := r.nodes[1].Begin()
	obj, src, err := tx.ReadTracked(xID, crdt.KindCounter)
	if err != nil {
		t.Fatal(err)
	}
	if src != edge.SourceGroup {
		t.Fatalf("source = %v, want group", src)
	}
	if obj.(*crdt.Counter).Total() != 7 {
		t.Fatalf("value = %d", obj.(*crdt.Counter).Total())
	}
}

func TestFetchFallsThroughToDC(t *testing.T) {
	r := newRig(t, 1, 1, 1, VariantAsync)
	seed := r.dcs[0].Begin("seed")
	other := txn.ObjectID{Bucket: "b", Key: "cold"}
	seed.Update(other, crdt.KindCounter, crdt.Op{Counter: &crdt.CounterOp{Delta: 3}})
	if _, err := seed.Commit(); err != nil {
		t.Fatal(err)
	}
	tx := r.nodes[0].Begin()
	obj, src, err := tx.ReadTracked(other, crdt.KindCounter)
	if err != nil {
		t.Fatal(err)
	}
	if src != edge.SourceDC {
		t.Fatalf("source = %v, want dc", src)
	}
	if obj.(*crdt.Counter).Total() != 3 {
		t.Fatalf("value = %d", obj.(*crdt.Counter).Total())
	}
}

func TestRemoteUpdatesForwardedToMembers(t *testing.T) {
	r := newRig(t, 3, 2, 2, VariantAsync)
	for _, n := range r.nodes {
		if err := n.AddInterest(xID); err != nil {
			t.Fatal(err)
		}
	}
	// A plain edge client on another DC updates x.
	remote := edge.New(r.net.Transport(), edge.Config{Name: "remote", Actor: "remote", DC: "dc1", RetryInterval: 5 * time.Millisecond})
	t.Cleanup(remote.Close)
	if err := remote.Connect(); err != nil {
		t.Fatal(err)
	}
	if err := remote.AddInterest(xID); err != nil {
		t.Fatal(err)
	}
	inc(t, remote, 9)
	for i, n := range r.nodes {
		n := n
		waitFor(t, 3*time.Second, func() bool { return counterAt(t, n) == 9 },
			fmt.Sprintf("member %d never saw the remote update", i))
	}
}

func TestMemberDisconnectionAndRecovery(t *testing.T) {
	r := newRig(t, 1, 1, 3, VariantAsync)
	for _, n := range r.nodes {
		if err := n.AddInterest(xID); err != nil {
			t.Fatal(err)
		}
	}
	// peer2 goes offline; the rest of the group keeps collaborating.
	r.net.Isolate("peer2")
	inc(t, r.nodes[0], 1)
	inc(t, r.nodes[1], 1)
	waitFor(t, 2*time.Second, func() bool { return counterAt(t, r.nodes[1]) == 2 },
		"remaining group stalled during member offline")

	// peer2 commits offline: stays locally visible.
	inc(t, r.nodes[2], 1)
	if got := counterAt(t, r.nodes[2]); got != 1 {
		t.Fatalf("offline member local value = %d", got)
	}

	// Reconnect: the member catches up on the group log and its own commit
	// propagates.
	r.net.Rejoin("peer2")
	waitFor(t, 3*time.Second, func() bool { return counterAt(t, r.nodes[2]) == 3 },
		"reconnecting member never caught up")
	waitFor(t, 3*time.Second, func() bool { return counterAt(t, r.nodes[0]) == 3 },
		"group never saw the offline member's commit")
	waitFor(t, 3*time.Second, func() bool {
		obj, err := r.dcs[0].ReadAt(xID, r.dcs[0].State())
		return err == nil && obj.(*crdt.Counter).Total() == 3
	}, "DC never converged to 3")
}

func TestGroupOfflineFromDCKeepsCollaborating(t *testing.T) {
	// Figure 5's scenario: the group's sync point loses the DC; local and
	// group operations continue unaffected.
	r := newRig(t, 1, 1, 2, VariantAsync)
	for _, n := range r.nodes {
		if err := n.AddInterest(xID); err != nil {
			t.Fatal(err)
		}
	}
	r.net.Partition("parent", "dc0")
	inc(t, r.nodes[0], 1)
	inc(t, r.nodes[1], 1)
	waitFor(t, 2*time.Second, func() bool {
		return counterAt(t, r.nodes[0]) == 2 && counterAt(t, r.nodes[1]) == 2
	}, "offline group failed to collaborate")

	// Reconnect: everything reaches the DC.
	r.net.Heal("parent", "dc0")
	waitFor(t, 3*time.Second, func() bool {
		obj, err := r.dcs[0].ReadAt(xID, r.dcs[0].State())
		return err == nil && obj.(*crdt.Counter).Total() == 2
	}, "DC never received offline commits")
}

func TestVisibilityOrderAgreesAcrossMembers(t *testing.T) {
	r := newRig(t, 1, 1, 3, VariantAsync)
	for _, n := range r.nodes {
		if err := n.AddInterest(xID); err != nil {
			t.Fatal(err)
		}
	}
	// Concurrent interfering commits from all members.
	for i, n := range r.nodes {
		inc(t, n, int64(i+1))
	}
	for i, n := range r.nodes {
		n := n
		waitFor(t, 3*time.Second, func() bool { return counterAt(t, n) == 6 },
			fmt.Sprintf("member %d did not converge", i))
	}
	waitFor(t, 3*time.Second, func() bool {
		obj, err := r.dcs[0].ReadAt(xID, r.dcs[0].State())
		return err == nil && obj.(*crdt.Counter).Total() == 6
	}, "DC did not converge")
}

func TestMigrationBetweenGroups(t *testing.T) {
	r := newRig(t, 1, 1, 2, VariantAsync)
	parent2 := NewParent(r.net.Transport(), ParentConfig{Name: "parent2", DC: "dc0", RetryInterval: 5 * time.Millisecond})
	t.Cleanup(parent2.Close)
	if err := parent2.Connect(); err != nil {
		t.Fatal(err)
	}
	for _, n := range r.nodes {
		if err := n.AddInterest(xID); err != nil {
			t.Fatal(err)
		}
	}
	inc(t, r.nodes[0], 1)
	waitFor(t, 2*time.Second, func() bool { return counterAt(t, r.nodes[1]) == 1 }, "group warm-up")

	// peer1 migrates to the second group; its pending state must survive.
	inc(t, r.nodes[1], 1) // may still be symbolic when migration starts
	m2, err := r.members[1].MigrateTo("parent2")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { m2.leave(false) })
	if got := len(r.parent.Members()); got != 1 {
		t.Fatalf("old group members = %d", got)
	}
	if got := len(parent2.Members()); got != 1 {
		t.Fatalf("new group members = %d", got)
	}
	// Everything converges at the DC exactly once.
	waitFor(t, 3*time.Second, func() bool {
		obj, err := r.dcs[0].ReadAt(xID, r.dcs[0].State())
		return err == nil && obj.(*crdt.Counter).Total() == 2
	}, "DC value after migration")
	// The migrated member still sees its own writes.
	if got := counterAt(t, r.nodes[1]); got < 2 {
		t.Fatalf("migrated member value = %d", got)
	}
}

func TestLeaveRevertsToPlainEdge(t *testing.T) {
	r := newRig(t, 1, 1, 2, VariantAsync)
	if err := r.nodes[0].AddInterest(xID); err != nil {
		t.Fatal(err)
	}
	r.members[0].Leave()
	if got := len(r.parent.Members()); got != 1 {
		t.Fatalf("members after leave = %d", got)
	}
	// Re-attach directly to the DC and keep working.
	if err := r.nodes[0].Migrate("dc0"); err != nil {
		t.Fatal(err)
	}
	inc(t, r.nodes[0], 4)
	waitFor(t, 2*time.Second, func() bool {
		obj, err := r.dcs[0].ReadAt(xID, r.dcs[0].State())
		return err == nil && obj.(*crdt.Counter).Total() == 4
	}, "post-leave commit never reached the DC")
}

// TestParentAsColocatedMember: a node may serve as a member and a parent at
// the same time (§5.1.1) — the parent proposes its own transactions to the
// group's consensus via Submit.
func TestParentAsColocatedMember(t *testing.T) {
	r := newRig(t, 1, 1, 2, VariantAsync)
	for _, n := range r.nodes {
		if err := n.AddInterest(xID); err != nil {
			t.Fatal(err)
		}
	}
	// The parent application commits through its own edge node and submits
	// to the group's EPaxos.
	ptx := r.parent.Node().Begin()
	ptx.Update(xID, crdt.KindCounter, crdt.Op{Counter: &crdt.CounterOp{Delta: 9}})
	rec, err := ptx.Commit()
	if err != nil {
		t.Fatal(err)
	}
	// No commit hook is installed on the parent's node, so Commit queued it
	// for the DC directly; additionally order it in the group.
	r.parent.Submit(rec)
	for i, n := range r.nodes {
		n := n
		waitFor(t, 3*time.Second, func() bool { return counterAt(t, n) == 9 },
			fmt.Sprintf("member %d never saw the parent's tx", i))
	}
}
