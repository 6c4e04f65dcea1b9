package dc

import (
	"context"
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
// its children (mirroring edge.Node.relayPush), and still checks every
// pushRecorder delivery invariant on the frames it applies locally. vanish
// simulates a relay that crashes after the network accepted a frame: the
// TreePush is swallowed — no forward, no ack — which only the DC's receipt
// sweeper can detect.
type treeRecorder struct {
	pushRecorder
	relayMu  sync.Mutex
	tables   map[uint64]wire.TreeAssign // shard id → latest table
	forwards atomic.Int64
	acks     atomic.Int64
	vanish   atomic.Bool
}

func newTreeRecorder(net *simnet.Network, name string, strict bool) *treeRecorder {
	r := &treeRecorder{pushRecorder: pushRecorder{
		name:      name,
		strict:    strict,
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
			return nil // crashed after receive: no forward, no ack
		}
		r.relayMu.Lock()
		table, ok := r.tables[m.Shard]
		r.relayMu.Unlock()
		ack := wire.TreeAck{Node: r.name, Shard: m.Shard, Epoch: m.Epoch, Seq: m.Seq}
		if !ok || table.Epoch != m.Epoch {
			ack.Dropped = true
		} else {
			errs := r.node.SendMulti(table.Children, m.Inner())
			for i, err := range errs {
				if err != nil {
					ack.Failed = append(ack.Failed, table.Children[i])
				}
			}
			r.forwards.Add(int64(len(table.Children) - len(ack.Failed)))
		}
		_ = r.node.Send(m.From, ack)
		r.acks.Add(1)
		return r.pushRecorder.handle(from, m.Inner())
	}
	return nil
}

func (r *treeRecorder) subscribeRelay(t *testing.T, dc string, ids ...txn.ObjectID) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if _, err := r.node.Call(ctx, dc, wire.Subscribe{Node: r.name, Objects: ids, Relay: true}); err != nil {
		t.Fatalf("%s subscribe: %v", r.name, err)
	}
}

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
			if tables != 0 || p.acks.Load() != 0 || p.forwards.Load() != 0 {
				t.Errorf("%s never set Subscribe.Relay but saw %d TreeAssigns, %d TreePushes", p.name, tables, p.acks.Load())
			}
		}
	}
	for _, p := range plains {
		p.subscribe(t, "dc0", false, nil, alphaID)
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

// TestTreeAckFailedChildRewind: when the root cannot reach a child, its
// aggregated ack names the child, the DC rewinds that child's cursor, and
// the direct repair path re-covers it once it is reachable again — nothing
// lost, nothing double-applied.
func TestTreeAckFailedChildRewind(t *testing.T) {
	net := simnet.New(simnet.Config{})
	defer net.Close()
	d := singleDC(t, net, nil)

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

	// Cut one child off; the root's forward fails and the ack names it.
	topo := d.TreeTopology()
	var victim string
	for _, children := range topo {
		victim = children[0]
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

	// Heal the link: the rewound cursor makes the next flush repair the gap.
	net.Rejoin(victim)
	commitN(t, d, alphaID, 1)
	waitFor(t, 3*time.Second, func() bool { return recs[victim].count("alpha") == 8 }, "rewound child never repaired")
	for _, r := range recs {
		r.checkClean(t)
	}
}

// TestTreeRelayCrashSweeperRepair: the hardest failure — the network accepts
// the TreePush but the root dies before forwarding or acking. Only the
// receipt sweeper can notice; it must rewind every member the orphaned send
// covered, re-root the tree, and let the repair path converge the survivors.
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
	recs[root].vanish.Store(true) // crash after receive: swallow, never ack

	commitN(t, d, alphaID, 5)
	// The children must converge via sweeper rewind + direct repair even
	// though their relay is gone; the crashed root swallowed its own copy
	// too, so it stays behind until it starts answering again.
	waitFor(t, 5*time.Second, func() bool {
		for name, r := range recs {
			if name != root && r.count("alpha") != 7 {
				return false
			}
		}
		return true
	}, "children never converged after relay crash")

	// The tree must have been re-rooted away from the dead relay.
	waitFor(t, 2*time.Second, func() bool {
		for r := range d.TreeTopology() {
			if r != root {
				return true
			}
		}
		return false
	}, "tree never re-rooted")

	// The crashed relay comes back (it answers pushes again): the sweeper
	// already rewound it, so repair re-covers its gap too.
	recs[root].vanish.Store(false)
	commitN(t, d, alphaID, 1)
	waitFor(t, 5*time.Second, func() bool {
		for _, r := range recs {
			if r.count("alpha") != 8 {
				return false
			}
		}
		return true
	}, "revived relay never repaired")
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

// TestTreeRewindInvalidatesInFlightPlan: a cursor rewind (resume/reconnect)
// that lands between a tree plan's registration and sendTrees' optimistic
// advance must not be overwritten — the rewind bumps the tree's ver, and the
// advance backs off, leaving the replay gap for the repair path. Regression
// test: rewindSubLocked used to leave ver untouched, so the advance silently
// moved the cursor to hi and the rewound range was never replayed.
func TestTreeRewindInvalidatesInFlightPlan(t *testing.T) {
	net := simnet.New(simnet.Config{})
	defer net.Close()
	d := singleDC(t, net, nil)
	oldCut := d.Stable()

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

	// Register a plan by hand, exactly as a flush would: hi one past the
	// frontier so every (converged) member is eligible.
	f := d.fan
	f.mu.Lock()
	var sh *pushShard
	for _, s := range f.shards {
		sh = s
	}
	hi := f.idx + 1
	stable := f.stable.Clone()
	f.mu.Unlock()
	gen := f.gen.Load()
	plans, covered := d.planTreeSends(sh, hi, stable, gen)
	if len(plans) != 1 || len(covered) != 3 {
		t.Fatalf("planTreeSends: %d plans covering %d members, want 1 covering 3", len(plans), len(covered))
	}
	plan := plans[0]

	// The racing rewind: a member resumes with an old cut while the plan is
	// in flight (registered, not yet sent/advanced).
	var victim string
	for _, name := range []string{"relayA", "relayB", "relayC"} {
		if name != plan.root {
			victim = name
			break
		}
	}
	d.mu.Lock()
	sub := d.subs[victim]
	d.rewindSubLocked(sub, oldCut)
	d.mu.Unlock()

	// The send goes through (the root acks), but the advance must back off:
	// the tree's ver changed under the plan.
	segs := []pushSeg{{lo: plan.di, hi: hi, stable: stable}}
	d.sendTrees(sh, plans, segs, []int{0}, nil, stable, hi, gen)
	sub.outMu.Lock()
	got := sub.deliveredIdx
	sub.outMu.Unlock()
	if got >= hi {
		t.Fatalf("deliveredIdx = %d after racing rewind, want < %d (advance must back off)", got, hi)
	}
}

// TestTreeAckRewindsDepartedMember: a child that leaves the tree between the
// push and the ack (signature change moved it to another shard) still owns
// its optimistically advanced cursor; a TreeAck naming it Failed must rewind
// it from the pending's membership snapshot. Regression test: handleTreeAck
// used to scan the tree's *current* members and miss departed ones.
func TestTreeAckRewindsDepartedMember(t *testing.T) {
	net := simnet.New(simnet.Config{})
	defer net.Close()
	d := singleDC(t, net, nil)

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

	f := d.fan
	f.mu.Lock()
	var sh *pushShard
	for _, s := range f.shards {
		sh = s
	}
	shID := sh.id
	hi := f.idx + 1
	stable := f.stable.Clone()
	f.mu.Unlock()
	gen := f.gen.Load()
	plans, _ := d.planTreeSends(sh, hi, stable, gen)
	if len(plans) != 1 {
		t.Fatalf("planTreeSends: %d plans, want 1", len(plans))
	}
	plan := plans[0]

	// Simulate the optimistic advance a successful send performs.
	for _, s := range plan.subs {
		s.outMu.Lock()
		s.deliveredIdx = hi
		s.outMu.Unlock()
	}

	// A non-root child widens its interest: the signature change moves it to
	// another shard and detaches it from the tree — after the push, before
	// the ack.
	var victim string
	for _, name := range []string{"relayA", "relayB", "relayC"} {
		if name != plan.root {
			victim = name
			break
		}
	}
	recs[victim].subscribeRelay(t, "dc0", alphaID, betaID)
	d.mu.Lock()
	sub := d.subs[victim]
	d.mu.Unlock()
	f.mu.Lock()
	if sub.tree == plan.tr {
		f.mu.Unlock()
		t.Fatal("victim still in the tree — signature change did not detach it")
	}
	f.mu.Unlock()

	// The root's ack names the departed child as unreachable: its cursor must
	// rewind to the pending's pre-send position even though it left the tree.
	d.handleTreeAck(wire.TreeAck{Node: plan.root, Shard: shID, Epoch: plan.epoch, Seq: plan.seq, Failed: []string{victim}})
	sub.outMu.Lock()
	got := sub.deliveredIdx
	sub.outMu.Unlock()
	if got >= hi {
		t.Fatalf("departed child's deliveredIdx = %d, want rewound to %d", got, plan.di)
	}
}
