package group

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"colony/internal/crdt"
	"colony/internal/edge"
	"colony/internal/obs"
	"colony/internal/transport"
	"colony/internal/txn"
	"colony/internal/vclock"
	"colony/internal/wire"
)

// joinMember adds a member named name to the rig's group, its node on netw
// and instrumented with reg (either may be the rig's defaults: the rig's
// network, no registry).
func joinMember(t *testing.T, r *rig, name string, netw transport.Network, reg *obs.Registry) *edge.Node {
	t.Helper()
	n := edge.New(netw, edge.Config{Name: name, Actor: name, DC: "parent", RetryInterval: 5 * time.Millisecond, Obs: reg})
	t.Cleanup(n.Close)
	m, err := Join(n, MemberConfig{Parent: "parent", SyncInterval: 5 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { m.leave(false) })
	return n
}

// inboundNet decorates a network: every message delivered to a node it
// registers passes through filter first, which may drop it.
type inboundNet struct {
	transport.Network
	filter func(msg any) (drop bool)
}

func (w inboundNet) AddNode(name string, h transport.Handler) transport.Conn {
	return w.Network.AddNode(name, func(from string, msg any) any {
		if w.filter(msg) {
			return nil
		}
		return h(from, msg)
	})
}

// TestStreamRejoinRecoversForwards: a member is cut off while an edge outside
// the group writes three times, then rejoins, and the edge writes once more.
// The parent's forwards of the three writes never reached the member; the
// stream's cursor notices the gap at the next forward, and the member catches
// up from its cursor — with or without an explicit reconnect once its stable
// cut covers the last write.
func TestStreamRejoinRecoversForwards(t *testing.T) {
	for _, reconnect := range []bool{false, true} {
		t.Run(fmt.Sprintf("connect=%v", reconnect), func(t *testing.T) {
			r := newRig(t, 1, 1, 2, VariantAsync)
			for _, n := range r.nodes {
				if err := n.AddInterest(xID); err != nil {
					t.Fatal(err)
				}
			}
			outside := edge.New(r.net.Transport(), edge.Config{Name: "outside", Actor: "outside", DC: "dc0", RetryInterval: 5 * time.Millisecond})
			t.Cleanup(outside.Close)
			if err := outside.Connect(); err != nil {
				t.Fatal(err)
			}
			if err := outside.AddInterest(xID); err != nil {
				t.Fatal(err)
			}
			peer1 := r.nodes[1]
			inc(t, outside, 1)
			waitFor(t, 3*time.Second, func() bool { return counterAt(t, peer1) == 1 }, "peer1 never saw the first write")

			r.net.Isolate("peer1")
			for i := 0; i < 3; i++ {
				inc(t, outside, 1)
			}
			waitFor(t, 3*time.Second, func() bool { return counterAt(t, r.parent.Node()) == 4 },
				"the parent never saw the writes made while peer1 was away")
			r.net.Rejoin("peer1")
			last := inc(t, outside, 1).Dot
			var cv vclock.Vector
			waitFor(t, 3*time.Second, func() bool {
				tx, ok := outside.Store().Transaction(last)
				if ok {
					cv, ok = tx.CommitVector()
				}
				return ok
			}, "the last write was never acknowledged")
			// Once peer1's stable cut covers the last write, a resume that goes
			// by the cut alone would skip the three writes it missed.
			waitFor(t, 5*time.Second, func() bool { return cv.LEQ(peer1.StableVector()) },
				"peer1's stable cut never covered the last write")
			if reconnect {
				if err := peer1.Connect(); err != nil {
					t.Fatal(err)
				}
			}
			waitFor(t, 5*time.Second, func() bool { return counterAt(t, peer1) == 5 },
				"peer1 does not read the five writes after rejoining")
		})
	}
}

// TestStreamDroppedGroupFrameResumes: the first group frame the parent sends
// one member is lost. The member is cut off from the other members, so the
// parent's stream is its only source of their transactions: it must refuse
// the frames after the gap, resume from its cursor, and still see each
// origin's transactions in commit order, each once.
func TestStreamDroppedGroupFrameResumes(t *testing.T) {
	const each = 20
	r := newRig(t, 1, 1, 2, VariantAsync)
	var dropped atomic.Bool
	lossy := inboundNet{Network: r.net.Transport(), filter: func(msg any) bool {
		m, ok := msg.(wire.PushTxs)
		return ok && m.Group && dropped.CompareAndSwap(false, true)
	}}
	reg := obs.New()
	victim := joinMember(t, r, "victim", lossy, reg)
	objs := []txn.ObjectID{{Bucket: "b", Key: "seq0"}, {Bucket: "b", Key: "seq1"}}
	// The objects exist at the DC, so every cache holds them from its
	// subscribe on: the victim's reads below never miss (a miss would call
	// the parent from inside the delivery of the parent's own frame).
	seed := r.dcs[0].Begin("seed")
	for _, id := range objs {
		seed.Update(id, crdt.KindCounter, crdt.Op{Counter: &crdt.CounterOp{Delta: 0}})
	}
	if _, err := seed.Commit(); err != nil {
		t.Fatal(err)
	}
	for _, n := range append(r.nodes, victim) {
		if err := n.AddInterest(objs...); err != nil {
			t.Fatal(err)
		}
	}
	r.net.Partition("victim", "peer0")
	r.net.Partition("victim", "peer1")

	// Writer i's k-th transaction adds k to its object, so the value the
	// victim reads is the triangular number T(k) exactly when it sees the
	// writer's first k transactions, each once. Every update the victim
	// reports must show a longer prefix than the one before.
	var mu sync.Mutex
	prefix := make([]int, len(objs))
	var bad []string
	for i, id := range objs {
		victim.OnUpdate(id, func(txn.ObjectID) {
			v := counterOf(t, victim, id)
			mu.Lock()
			defer mu.Unlock()
			k := prefix[i]
			for int64(k*(k+1)/2) < v {
				k++
			}
			if int64(k*(k+1)/2) != v {
				bad = append(bad, fmt.Sprintf("origin %d reads %d after a prefix of %d", i, v, prefix[i]))
			}
			prefix[i] = k
		})
	}
	var wg sync.WaitGroup
	for i, n := range r.nodes {
		wg.Add(1)
		go func(n *edge.Node, id txn.ObjectID) {
			defer wg.Done()
			for k := 1; k <= each; k++ {
				tx := n.Begin()
				tx.Update(id, crdt.KindCounter, crdt.Op{Counter: &crdt.CounterOp{Delta: int64(k)}})
				if _, err := tx.Commit(); err != nil {
					t.Error(err)
					return
				}
			}
		}(n, objs[i])
	}
	wg.Wait()
	waitFor(t, 10*time.Second, func() bool {
		mu.Lock()
		defer mu.Unlock()
		return prefix[0] == each && prefix[1] == each
	}, "the victim never saw every transaction")
	mu.Lock()
	defer mu.Unlock()
	if len(bad) > 0 {
		t.Fatalf("the victim saw transactions out of commit order: %v", bad)
	}
	if !dropped.Load() {
		t.Fatal("no group frame was dropped")
	}
	if n := reg.Counter("edge.push_resyncs").Value(); n < 1 {
		t.Fatalf("edge.push_resyncs = %d after a lost frame, want ≥ 1", n)
	}
}

// counterOf reads a counter object at n, or -1.
func counterOf(t *testing.T, n *edge.Node, id txn.ObjectID) int64 {
	t.Helper()
	v, err := n.Value(id, crdt.KindCounter)
	if err != nil {
		return -1
	}
	return v.(int64)
}

// TestStreamRangeReplyBound: a member cut off while the parent logs more
// than rangeMax entries catches up in bounded range replies, asking again
// from its new cursor after each.
func TestStreamRangeReplyBound(t *testing.T) {
	const writes = rangeMax + 44
	r := newRig(t, 1, 1, 1, VariantAsync)
	var mu sync.Mutex
	var replies []int // sizes of the multi-transaction frames peer1 received
	counting := inboundNet{Network: r.net.Transport(), filter: func(msg any) bool {
		if m, ok := msg.(wire.PushTxs); ok && len(m.Txs) > 1 {
			mu.Lock()
			replies = append(replies, len(m.Txs))
			mu.Unlock()
		}
		return false
	}}
	peer1 := joinMember(t, r, "peer1", counting, nil)
	for _, n := range append(r.nodes, peer1) {
		if err := n.AddInterest(xID); err != nil {
			t.Fatal(err)
		}
	}
	// Without the DC the stream holds group entries only, each sent live in a
	// frame of its own, so every multi-transaction frame is a range reply.
	r.net.Partition("parent", "dc0")
	// peer0 stays cut off from peer1: the stream is peer1's only source.
	r.net.Partition("peer0", "peer1")
	r.net.Partition("parent", "peer1")
	for i := 0; i < writes; i++ {
		inc(t, r.nodes[0], 1)
	}
	waitFor(t, 10*time.Second, func() bool { return r.parent.StreamLen() >= writes },
		"the parent never logged every write")
	r.net.Heal("parent", "peer1")
	waitFor(t, 15*time.Second, func() bool { return counterAt(t, peer1) == writes },
		fmt.Sprintf("peer1 never caught up: reads %d of %d", counterAt(t, peer1), writes))
	mu.Lock()
	defer mu.Unlock()
	if len(replies) < 2 {
		t.Fatalf("peer1 caught up through range replies of %v transactions, want at least two", replies)
	}
	for _, n := range replies {
		if n > rangeMax {
			t.Fatalf("a range reply carried %d transactions, above the bound %d", n, rangeMax)
		}
	}
}

// TestStreamFaultFreeSendsInOrder: three members commit concurrently, so the
// parent logs group executions from its consensus driver while DC frames
// arrive on another goroutine. Frames leave in position order, so no member
// ever refuses one and resumes.
func TestStreamFaultFreeSendsInOrder(t *testing.T) {
	const members, each = 3, 70
	r := newRig(t, 1, 1, 0, VariantAsync)
	reg := obs.New()
	var nodes []*edge.Node
	for i := 0; i < members; i++ {
		nodes = append(nodes, joinMember(t, r, fmt.Sprintf("peer%d", i), r.net.Transport(), reg))
	}
	for _, n := range nodes {
		if err := n.AddInterest(xID); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	for _, n := range nodes {
		wg.Add(1)
		go func(n *edge.Node) {
			defer wg.Done()
			for k := 0; k < each; k++ {
				tx := n.Begin()
				tx.Update(xID, crdt.KindCounter, crdt.Op{Counter: &crdt.CounterOp{Delta: 1}})
				if _, err := tx.Commit(); err != nil {
					t.Error(err)
					return
				}
			}
		}(n)
	}
	wg.Wait()
	const total = members * each
	for i, n := range nodes {
		waitFor(t, 10*time.Second, func() bool { return counterAt(t, n) == total },
			fmt.Sprintf("peer%d never saw all %d commits", i, total))
	}
	if n := reg.Counter("edge.push_resyncs").Value(); n != 0 {
		t.Fatalf("edge.push_resyncs = %d in a fault-free run, want 0", n)
	}
}

// TestStreamMigrationIntoOfflineGroup: a group cut off from the DC holds a
// transaction only its consensus has ordered. A member migrating in from
// another group resumes from a cut that cannot cover it — a symbolic group
// entry is covered by no cut — so the new parent's stream delivers it.
func TestStreamMigrationIntoOfflineGroup(t *testing.T) {
	r := newRig(t, 1, 1, 2, VariantAsync)
	parent2 := NewParent(r.net.Transport(), ParentConfig{Name: "parent2", DC: "dc0", RetryInterval: 5 * time.Millisecond})
	t.Cleanup(parent2.Close)
	if err := parent2.Connect(); err != nil {
		t.Fatal(err)
	}
	q := edge.New(r.net.Transport(), edge.Config{Name: "q0", Actor: "q0", DC: "parent2", RetryInterval: 5 * time.Millisecond})
	t.Cleanup(q.Close)
	qm, err := Join(q, MemberConfig{Parent: "parent2", SyncInterval: 5 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { qm.leave(false) })
	for _, n := range append(r.nodes, q) {
		if err := n.AddInterest(xID); err != nil {
			t.Fatal(err)
		}
	}
	r.net.Partition("parent2", "dc0")
	// The new group's consensus cannot tell peer1 either: only the stream can.
	r.net.Partition("q0", "peer1")
	rec := inc(t, q, 7)
	waitFor(t, 3*time.Second, func() bool { return parent2.Node().Store().GroupVisible(rec.Dot) },
		"parent2 never executed the offline commit")

	m2, err := r.members[1].MigrateTo("parent2")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { m2.leave(false) })
	waitFor(t, 5*time.Second, func() bool { return counterAt(t, r.nodes[1]) == 7 },
		fmt.Sprintf("the migrated member reads %d, want the offline group's 7", counterAt(t, r.nodes[1])))
}

// TestStreamCompletesAckOfLostPromote: a member never receives the parent's
// PromoteMsg for its own commit. The stream brings the transaction back with
// its commit stamps, and the member completes the commit's lifecycle from
// there: acknowledged, then K-stable.
func TestStreamCompletesAckOfLostPromote(t *testing.T) {
	r := newRig(t, 1, 1, 0, VariantAsync)
	reg := obs.New()
	lossy := inboundNet{Network: r.net.Transport(), filter: func(msg any) bool {
		_, promote := msg.(PromoteMsg)
		return promote
	}}
	n := joinMember(t, r, "peer0", lossy, reg)
	if err := n.AddInterest(xID); err != nil {
		t.Fatal(err)
	}
	rec := inc(t, n, 1)
	waitFor(t, 5*time.Second, func() bool { return reg.Histogram("edge.commit_to_kstable_ns").Count() == 1 },
		"the member's commit never became K-stable at the member")
	if got := reg.Histogram("edge.commit_to_ack_ns").Count(); got != 1 {
		t.Fatalf("edge.commit_to_ack_ns count = %d, want 1", got)
	}
	if cur, ok := n.Store().Transaction(rec.Dot); !ok || cur.Symbolic() {
		t.Fatal("the member's store holds no commit stamp for its own transaction")
	}
}
