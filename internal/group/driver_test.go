package group

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"

	"colony/internal/crdt"
	"colony/internal/edge"
	"colony/internal/epaxos"
	"colony/internal/simnet"
	"colony/internal/txn"
	"colony/internal/vclock"
)

// vislogCopy returns a copy of the parent's visibility log.
func (p *Parent) vislogCopy() []vclock.Dot {
	p.mu.Lock()
	defer p.mu.Unlock()
	return slices.Clone(p.vislog)
}

// TestGroupOwnTransactionsUplinkInCommitOrder: one member commits a burst of
// transactions on disjoint objects while a second member, cut off from the
// first, has already written the first of them. The burst's first
// transaction then needs the slow path and the rest do not; the parent's
// visibility log — the order its sync point uplinks in — must still list
// the burst in commit order.
func TestGroupOwnTransactionsUplinkInCommitOrder(t *testing.T) {
	r := newRig(t, 1, 1, 2, VariantAsync)
	const burst = 10
	objs := make([]txn.ObjectID, burst)
	for i := range objs {
		objs[i] = txn.ObjectID{Bucket: "b", Key: fmt.Sprintf("o%d", i)}
	}
	if err := r.nodes[0].AddInterest(objs...); err != nil {
		t.Fatal(err)
	}
	if err := r.nodes[1].AddInterest(objs[0]); err != nil {
		t.Fatal(err)
	}
	bump := func(n *edge.Node, id txn.ObjectID) vclock.Dot {
		tx := n.Begin()
		tx.Update(id, crdt.KindCounter, crdt.Op{Counter: &crdt.CounterOp{Delta: 1}})
		rec, err := tx.Commit()
		if err != nil {
			t.Fatal(err)
		}
		return rec.Dot
	}
	r.net.Partition("peer0", "peer1")
	t.Cleanup(func() { r.net.Heal("peer0", "peer1") })
	other := bump(r.nodes[1], objs[0])
	waitFor(t, 2*time.Second, func() bool { return slices.Contains(r.parent.vislogCopy(), other) },
		"the parent never executed the second member's transaction")

	var want []vclock.Dot
	for _, id := range objs {
		want = append(want, bump(r.nodes[0], id))
	}
	var got []vclock.Dot
	waitFor(t, 3*time.Second, func() bool {
		got = got[:0]
		for _, dot := range r.parent.vislogCopy() {
			if dot.Node == "peer0" {
				got = append(got, dot)
			}
		}
		return len(got) == burst
	}, "the burst never became visible at the parent")
	if !slices.Equal(got, want) {
		t.Fatalf("the parent's visibility log lists the burst as %v, committed as %v", got, want)
	}
}

// TestGroupListenerCommitsFromExecute: an update listener that commits while
// the group applies a peer's transaction re-enters consensus from inside the
// driver's drain; it must queue behind it, not deadlock, and both
// transactions become visible everywhere.
func TestGroupListenerCommitsFromExecute(t *testing.T) {
	r := newRig(t, 1, 1, 2, VariantAsync)
	// Without the DC, the group's apply is the only way x reaches peer0.
	r.net.Partition("parent", "dc0")
	t.Cleanup(func() { r.net.Heal("parent", "dc0") })
	yID := txn.ObjectID{Bucket: "b", Key: "y"}
	for _, n := range r.nodes {
		if err := n.AddInterest(xID, yID); err != nil {
			t.Fatal(err)
		}
	}
	reply := make(chan vclock.Dot, 1)
	var once sync.Once
	r.nodes[0].OnUpdate(xID, func(txn.ObjectID) {
		once.Do(func() {
			tx := r.nodes[0].Begin()
			tx.Update(yID, crdt.KindCounter, crdt.Op{Counter: &crdt.CounterOp{Delta: 1}})
			rec, err := tx.Commit()
			if err != nil {
				t.Error(err)
				return
			}
			reply <- rec.Dot
		})
	})
	first := inc(t, r.nodes[1], 1).Dot
	var second vclock.Dot
	select {
	case second = <-reply:
	case <-time.After(3 * time.Second):
		t.Fatal("the listener never committed")
	}
	for i, n := range append(r.nodes, r.parent.Node()) {
		waitFor(t, 3*time.Second, func() bool {
			return n.Store().GroupVisible(first) && n.Store().GroupVisible(second)
		}, fmt.Sprintf("node %d: both transactions never became group-visible", i))
	}
}

// TestGroupDriverConcurrentHandlersApplyInCoreOrder: five drivers on simnet,
// which runs one delivery goroutine per link, so a node's handlers for
// different senders run concurrently; every node proposes concurrently too.
// Each node must apply exactly the order its replica executed in, and the
// nodes must agree on every object's order.
func TestGroupDriverConcurrentHandlersApplyInCoreOrder(t *testing.T) {
	net := simnet.New(simnet.Config{Default: simnet.LinkConfig{Jitter: 300 * time.Microsecond}, Seed: 7})
	t.Cleanup(net.Close)
	const each = 30
	names := []string{"r0", "r1", "r2", "r3", "r4"}
	objs := []txn.ObjectID{{Bucket: "b", Key: "k0"}, {Bucket: "b", Key: "k1"}, {Bucket: "b", Key: "k2"}}
	var mu sync.Mutex
	applied := make([][]*txn.Transaction, len(names))
	core := make([][]string, len(names)) // written under drivers[i].mu
	drivers := make([]*driver, len(names))
	for i, name := range names {
		n := edge.New(net.Transport(), edge.Config{Name: name, Actor: name})
		t.Cleanup(n.Close)
		d := newDriver(n, 5*time.Millisecond, func(tx *txn.Transaction) {
			runtime.Gosched() // an apply takes time: room for another to overtake it
			mu.Lock()
			applied[i] = append(applied[i], tx)
			mu.Unlock()
		})
		t.Cleanup(d.close)
		peers := slices.DeleteFunc(slices.Clone(names), func(p string) bool { return p == name })
		d.mu.Lock()
		d.replica = epaxos.NewReplica(name, peers,
			func(to string, msg any) { _ = n.Send(to, msg) },
			func(c epaxos.Command) { core[i] = append(core[i], c.ID); d.enqueue(c) })
		d.mu.Unlock()
		n.SetHooks(edge.Hooks{Extra: func(from string, msg any) any { d.handle(from, msg); return nil }})
		drivers[i] = d
	}

	var wg sync.WaitGroup
	for i, name := range names {
		wg.Add(1)
		go func(d *driver, name string, rng *rand.Rand) {
			defer wg.Done()
			for s := 1; s <= each; s++ {
				obj := objs[rng.Intn(len(objs))]
				d.propose(&txn.Transaction{
					Dot: vclock.Dot{Node: name, Seq: uint64(s)}, Origin: name,
					Updates: []txn.Update{{Object: obj, Kind: crdt.KindCounter}},
				}, 0)
			}
		}(drivers[i], name, rand.New(rand.NewSource(int64(i))))
	}
	wg.Wait()
	total := each * len(names)
	waitFor(t, 10*time.Second, func() bool {
		mu.Lock()
		defer mu.Unlock()
		for _, a := range applied {
			if len(a) != total {
				return false
			}
		}
		return true
	}, "not every node applied every transaction")

	perObject := func(txs []*txn.Transaction) map[txn.ObjectID][]vclock.Dot {
		out := make(map[txn.ObjectID][]vclock.Dot)
		for _, tx := range txs {
			out[tx.Updates[0].Object] = append(out[tx.Updates[0].Object], tx.Dot)
		}
		return out
	}
	mu.Lock()
	defer mu.Unlock()
	ref := perObject(applied[0])
	for i, d := range drivers {
		var ids []string
		for _, tx := range applied[i] {
			ids = append(ids, tx.Dot.String())
		}
		d.mu.Lock()
		executed := slices.Clone(core[i])
		d.mu.Unlock()
		if !slices.Equal(ids, executed) {
			t.Fatalf("%s applied %v\nbut its replica executed %v", names[i], ids, executed)
		}
		for obj, order := range perObject(applied[i]) {
			if !slices.Equal(order, ref[obj]) {
				t.Fatalf("%s and %s disagree on %v: %v vs %v", names[0], names[i], obj, ref[obj], order)
			}
		}
	}
}
