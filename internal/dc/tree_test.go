package dc

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"colony/internal/obs"
	"colony/internal/simnet"
	"colony/internal/txn"
	"colony/internal/vclock"
	"colony/internal/wire"
)

// treeRecorder is a relay-capable pushRecorder: it subscribes with the Relay
// bit, keeps the child tables the DC assigns, re-fans TreePush frames out to
// its children before and independently of its own cursor check (mirroring
// edge.Node.relayPush), and still checks every pushRecorder delivery
// invariant on the frames it integrates. vanish simulates a relay that
// crashes after the network accepted a frame: the TreePush is swallowed — no
// forward, no error anywhere — so its children simply hear nothing.
type treeRecorder struct {
	pushRecorder
	relayMu    sync.Mutex
	tables     map[uint64]wire.TreeAssign // shard id → latest table
	forwards   atomic.Int64
	treePushes atomic.Int64
	vanish     atomic.Bool
}

func newTreeRecorder(net *simnet.Network, name string, strict bool) *treeRecorder {
	r := &treeRecorder{pushRecorder: pushRecorder{
		name:      name,
		strict:    strict,
		relay:     true,
		byBucket:  make(map[string]int),
		seen:      make(map[vclock.Dot]bool),
		lastTsBkt: make(map[string]uint64),
	}}
	r.tables = make(map[uint64]wire.TreeAssign)
	r.node = net.AddNode(name, r.handle)
	return r
}

func (r *treeRecorder) handle(from string, msg any) any {
	switch m := msg.(type) {
	case wire.PushTxs:
		return r.pushRecorder.handle(from, m)
	case wire.TreeAssign:
		r.relayMu.Lock()
		r.tables[m.Shard] = m
		r.relayMu.Unlock()
		return nil
	case wire.TreePush:
		if r.vanish.Load() {
			return nil // crashed after receive: no forward, nothing applied
		}
		r.treePushes.Add(1)
		r.relayMu.Lock()
		table, ok := r.tables[m.Shard]
		r.relayMu.Unlock()
		if ok && table.Epoch == m.Epoch {
			sent := len(table.Children)
			for _, err := range r.node.SendMulti(table.Children, m.Inner()) {
				if err != nil {
					sent--
				}
			}
			r.forwards.Add(int64(sent))
		}
		return r.pushRecorder.handle(from, m.Inner())
	}
	return nil
}

// subscribeRelay subscribes with the Relay bit (every treeRecorder does) —
// kept as a name so the tests read as what they set up.
func (r *treeRecorder) subscribeRelay(t *testing.T, dc string, ids ...txn.ObjectID) {
	t.Helper()
	r.subscribe(t, dc, false, nil, ids...)
}

// subscribePlain subscribes a relay-aware handler *without* the Relay bit.
func (r *treeRecorder) subscribePlain(t *testing.T, dc string, ids ...txn.ObjectID) {
	t.Helper()
	r.relay = false
	r.subscribe(t, dc, false, nil, ids...)
}

// childrenOf returns the children of the (single) subtree rooted at root.
func childrenOf(d *DC, root string) []string { return d.TreeTopology()[root] }

// TestTreeMulticastDelivery: relay-capable subscribers sharing an interest
// signature are organised into a subtree, the DC sends each flush once to
// the root, and the root's re-fan-out reaches every sibling with the usual
// delivery invariants intact. Run under -race via make ci.
func TestTreeMulticastDelivery(t *testing.T) {
	net := simnet.New(simnet.Config{})
	defer net.Close()
	reg := obs.New()
	d := singleDC(t, net, func(cfg *Config) { cfg.Obs = reg })

	recs := make([]*treeRecorder, 6)
	for i := range recs {
		recs[i] = newTreeRecorder(net, "relay"+string(rune('A'+i)), true)
		recs[i].subscribeRelay(t, "dc0", alphaID)
	}
	topo := d.TreeTopology()
	if len(topo) != 1 {
		t.Fatalf("topology = %v, want one subtree", topo)
	}
	for root, children := range topo {
		if len(children) != 5 {
			t.Fatalf("root %s has %d children, want 5", root, len(children))
		}
	}

	commitN(t, d, alphaID, 8)
	waitFor(t, 2*time.Second, func() bool {
		for _, r := range recs {
			if r.count("alpha") != 8 {
				return false
			}
		}
		return true
	}, "tree pushes never arrived")

	var forwards int64
	for _, r := range recs {
		forwards += r.forwards.Load()
		r.checkClean(t)
	}
	if forwards == 0 {
		t.Fatal("no relay ever forwarded a frame — pushes went direct")
	}
	snap := reg.Snapshot()
	if snap.Counters["dc.tree_assigns"] == 0 {
		t.Error("dc.tree_assigns never incremented")
	}
	// Egress: every tree flush is 1 DC send (plus assigns) instead of 6.
	if sends, relayed := snap.Counters["dc.push_sends"], forwards; sends >= 6*8 {
		t.Errorf("dc.push_sends = %d with %d relay forwards — tree mode saved nothing", sends, relayed)
	}
}

// TestTreeDegreeBounds: the subtree fan-out is capped at treeDegree children
// per root, splitting large shards into multiple subtrees.
func TestTreeDegreeBounds(t *testing.T) {
	net := simnet.New(simnet.Config{})
	defer net.Close()
	d := singleDC(t, net, nil)

	// Two full subtrees plus one more member: the last must open a third.
	const members = 2*(treeDegree+1) + 1
	for i := 0; i < members; i++ {
		r := newTreeRecorder(net, fmt.Sprintf("relay%02d", i), true)
		r.subscribeRelay(t, "dc0", alphaID)
	}
	topo := d.TreeTopology()
	if len(topo) != 3 {
		t.Fatalf("topology = %v, want 3 subtrees for %d members at degree %d", topo, members, treeDegree)
	}
	total := 0
	for root, children := range topo {
		if len(children) > treeDegree {
			t.Errorf("root %s has %d children, degree bound is %d", root, len(children), treeDegree)
		}
		total += 1 + len(children)
	}
	if total != members {
		t.Errorf("trees cover %d members, want %d", total, members)
	}
}

// TestTreeMixedRelayAndDirect: subscribers that never declared the Relay
// capability stay outside every tree and keep receiving plain direct frames —
// alone (no tree traffic at all) and next to relay-capable members of the
// same shard.
func TestTreeMixedRelayAndDirect(t *testing.T) {
	net := simnet.New(simnet.Config{})
	defer net.Close()
	reg := obs.New()
	d := singleDC(t, net, func(cfg *Config) { cfg.Obs = reg })

	// Relay-aware handlers subscribed without the Relay bit: they would
	// record a TreeAssign or TreePush if the DC ever sent them one.
	plains := []*treeRecorder{newTreeRecorder(net, "plainC", true), newTreeRecorder(net, "plainD", true)}
	noTreeTraffic := func() {
		t.Helper()
		for _, p := range plains {
			p.relayMu.Lock()
			tables := len(p.tables)
			p.relayMu.Unlock()
			if tables != 0 || p.treePushes.Load() != 0 || p.forwards.Load() != 0 {
				t.Errorf("%s never set Subscribe.Relay but saw %d TreeAssigns, %d TreePushes", p.name, tables, p.treePushes.Load())
			}
		}
	}
	for _, p := range plains {
		p.subscribePlain(t, "dc0", alphaID)
	}
	commitN(t, d, alphaID, 3)
	waitFor(t, 2*time.Second, func() bool {
		return plains[0].count("alpha") == 3 && plains[1].count("alpha") == 3
	}, "direct pushes never arrived")
	if topo := d.TreeTopology(); len(topo) != 0 {
		t.Fatalf("non-relay subscribers were placed in trees: %v", topo)
	}
	if n := reg.Snapshot().Counters["dc.tree_assigns"]; n != 0 {
		t.Errorf("dc.tree_assigns = %d with no relay-capable subscriber", n)
	}
	noTreeTraffic()

	ra := newTreeRecorder(net, "relayA", true)
	rb := newTreeRecorder(net, "relayB", true)
	ra.subscribeRelay(t, "dc0", alphaID)
	rb.subscribeRelay(t, "dc0", alphaID)
	for root, children := range d.TreeTopology() {
		for _, c := range append(children, root) {
			if c == "plainC" || c == "plainD" {
				t.Fatal("non-relay subscriber was placed in a tree")
			}
		}
	}
	commitN(t, d, alphaID, 5)
	waitFor(t, 2*time.Second, func() bool {
		return ra.count("alpha") == 5 && rb.count("alpha") == 5 &&
			plains[0].count("alpha") == 8 && plains[1].count("alpha") == 8
	}, "mixed-mode pushes never arrived")
	noTreeTraffic()
	for _, r := range append(plains, ra, rb) {
		r.checkClean(t)
	}
}

// TestTreeUnreachableChildResumes: when the root cannot reach a child the
// forward is simply lost — nobody tells the DC. The child sees the gap at its
// own cursor as soon as a frame reaches it again, resumes from the DC, and is
// moved out of the subtree that failed it — nothing lost, nothing
// double-applied.
func TestTreeUnreachableChildResumes(t *testing.T) {
	net := simnet.New(simnet.Config{})
	defer net.Close()
	reg := obs.New()
	d := singleDC(t, net, func(cfg *Config) { cfg.Obs = reg })

	recs := map[string]*treeRecorder{}
	for _, name := range []string{"relayA", "relayB", "relayC"} {
		r := newTreeRecorder(net, name, true)
		r.subscribeRelay(t, "dc0", alphaID)
		recs[name] = r
	}
	commitN(t, d, alphaID, 3)
	waitFor(t, 2*time.Second, func() bool {
		for _, r := range recs {
			if r.count("alpha") != 3 {
				return false
			}
		}
		return true
	}, "warm-up pushes never arrived")

	// Cut one child off; the root's forward to it fails and is forgotten.
	var root, victim string
	for r, children := range d.TreeTopology() {
		root, victim = r, children[0]
	}
	net.Isolate(victim)
	commitN(t, d, alphaID, 4)
	waitFor(t, 2*time.Second, func() bool {
		for name, r := range recs {
			if name != victim && r.count("alpha") != 7 {
				return false
			}
		}
		return true
	}, "connected subscribers never got the second batch")
	if got := recs[victim].count("alpha"); got != 3 {
		t.Fatalf("isolated child received %d alpha txs, want the 3 pre-cut ones", got)
	}
	if n := reg.Snapshot().Counters["dc.tree_repairs"]; n != 0 {
		t.Fatalf("dc.tree_repairs = %d before anyone resumed — the DC is not supposed to notice", n)
	}

	// Heal the link: the next frame does not connect to the child's cursor,
	// so it resumes and the range reply closes the gap.
	net.Rejoin(victim)
	commitN(t, d, alphaID, 1)
	waitFor(t, 3*time.Second, func() bool { return recs[victim].count("alpha") == 8 }, "child never resumed past its gap")
	if n := reg.Snapshot().Counters["dc.tree_repairs"]; n == 0 {
		t.Error("dc.tree_repairs never counted the range reply")
	}
	for _, c := range childrenOf(d, root) {
		if c == victim {
			t.Errorf("%s had to resume but is still a child of %s", victim, root)
		}
	}
	for _, r := range recs {
		r.checkClean(t)
	}
}

// TestTreeRelayCrashSweeperRepair (the name predates receiver-held cursors —
// there is no sweeper any more; the property stands): the hardest failure —
// the network accepts the TreePush but the root dies before forwarding. No
// error surfaces anywhere and no later frame reveals a gap: the children
// just hear nothing. A real edge's silence timer (internal/edge) makes it
// resume; here the test plays the timer. The range replies converge the
// survivors and re-form their tree without the dead relay.
func TestTreeRelayCrashSweeperRepair(t *testing.T) {
	net := simnet.New(simnet.Config{})
	defer net.Close()
	d := singleDC(t, net, nil)

	recs := map[string]*treeRecorder{}
	for _, name := range []string{"relayA", "relayB", "relayC"} {
		r := newTreeRecorder(net, name, true)
		r.subscribeRelay(t, "dc0", alphaID)
		recs[name] = r
	}
	commitN(t, d, alphaID, 2)
	waitFor(t, 2*time.Second, func() bool {
		for _, r := range recs {
			if r.count("alpha") != 2 {
				return false
			}
		}
		return true
	}, "warm-up pushes never arrived")

	var root string
	for r := range d.TreeTopology() {
		root = r
	}
	recs[root].vanish.Store(true) // crash after receive: swallow silently

	commitN(t, d, alphaID, 5)
	time.Sleep(50 * time.Millisecond)
	for name, r := range recs {
		if name != root {
			if got := r.count("alpha"); got != 2 {
				t.Fatalf("%s received %d alpha txs through a dead relay", name, got)
			}
			r.resume() // the silence timer fires
		}
	}
	// The children converge even though their relay is gone; the crashed root
	// swallowed its own copy too, so it stays behind until it answers again.
	waitFor(t, 2*time.Second, func() bool {
		for name, r := range recs {
			if name != root && r.count("alpha") != 7 {
				return false
			}
		}
		return true
	}, "children never converged after relay crash")

	// The survivors' tree must have re-formed without the dead relay.
	if left := childrenOf(d, root); len(left) != 0 {
		t.Fatalf("dead relay %s still has children %v", root, left)
	}
	survivors := 0
	for r, children := range d.TreeTopology() {
		if r != root {
			survivors += 1 + len(children)
		}
	}
	if survivors != 2 {
		t.Fatalf("topology %v: want both survivors in trees of their own", d.TreeTopology())
	}

	// The crashed relay comes back (it answers pushes again): the next frame
	// does not connect to its cursor and it resumes like anyone else.
	recs[root].vanish.Store(false)
	commitN(t, d, alphaID, 1)
	waitFor(t, 3*time.Second, func() bool {
		for _, r := range recs {
			if r.count("alpha") != 8 {
				return false
			}
		}
		return true
	}, "revived relay never caught up")
	for _, r := range recs {
		r.checkClean(t)
	}
}

// TestTreeChurnReRoots: unsubscribing the root re-roots the subtree and
// delivery continues for the remaining members.
func TestTreeChurnReRoots(t *testing.T) {
	net := simnet.New(simnet.Config{})
	defer net.Close()
	d := singleDC(t, net, nil)

	recs := map[string]*treeRecorder{}
	for _, name := range []string{"relayA", "relayB", "relayC", "relayD"} {
		r := newTreeRecorder(net, name, true)
		r.subscribeRelay(t, "dc0", alphaID)
		recs[name] = r
	}
	commitN(t, d, alphaID, 3)
	waitFor(t, 2*time.Second, func() bool {
		for _, r := range recs {
			if r.count("alpha") != 3 {
				return false
			}
		}
		return true
	}, "warm-up pushes never arrived")

	var root string
	for r := range d.TreeTopology() {
		root = r
	}
	recs[root].unsubscribe(t, "dc0")
	topo := d.TreeTopology()
	if len(topo) != 1 {
		t.Fatalf("topology after root unsubscribe = %v, want one subtree", topo)
	}
	for newRoot, children := range topo {
		if newRoot == root {
			t.Fatalf("tree still rooted at unsubscribed %s", root)
		}
		if len(children) != 2 {
			t.Fatalf("re-rooted tree has %d children, want 2", len(children))
		}
	}
	commitN(t, d, alphaID, 4)
	waitFor(t, 2*time.Second, func() bool {
		for name, r := range recs {
			if name != root && r.count("alpha") != 7 {
				return false
			}
		}
		return true
	}, "post-churn pushes never arrived")
	for name, r := range recs {
		if name != root {
			r.checkClean(t)
		}
	}
}
