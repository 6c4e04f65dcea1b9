package group

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"colony/internal/crdt"
	"colony/internal/edge"
	"colony/internal/obs"
	"colony/internal/txn"
)

var docID = txn.ObjectID{Bucket: "b", Key: "doc"}

// typeChar inserts one character at the head of the shared document and bumps
// the shared counter, in one transaction. Head inserts anchor on nothing, so
// the test does not depend on the group making one member's transactions
// visible in commit order (ROADMAP item 3).
func typeChar(n *edge.Node, ch string) (*txn.Transaction, error) {
	tx := n.Begin()
	tx.Update(docID, crdt.KindRGA, crdt.NewRGA().PrepareInsertAt(0, ch))
	tx.Update(xID, crdt.KindCounter, crdt.Op{Counter: &crdt.CounterOp{Delta: 1}})
	return tx.Commit()
}

// TestGroupVisibleReadsHitCache: a member re-reading a shared document after
// each of a peer's 200 group-visible transactions extends its cached
// materialisation by the new entry instead of replaying the whole journal —
// group visibility is not part of the cache fingerprint.
func TestGroupVisibleReadsHitCache(t *testing.T) {
	r := newRig(t, 1, 1, 1, VariantAsync)
	writer := r.nodes[0]
	reg := obs.New()
	reader := edge.New(r.net.Transport(), edge.Config{
		Name: "reader", Actor: "reader", DC: "parent", RetryInterval: 5 * time.Millisecond, Obs: reg,
	})
	t.Cleanup(reader.Close)
	m, err := Join(reader, MemberConfig{Parent: "parent", SyncInterval: 5 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { m.leave(false) })
	for _, n := range []*edge.Node{writer, reader} {
		if err := n.AddInterest(docID, xID); err != nil {
			t.Fatal(err)
		}
	}
	const txs = 200
	for i := 1; i <= txs; i++ {
		rec, err := typeChar(writer, "a")
		if err != nil {
			t.Fatal(err)
		}
		waitFor(t, 3*time.Second, func() bool { return reader.Store().GroupVisible(rec.Dot) },
			fmt.Sprintf("tx %d never became group-visible at the reader", i))
		v, err := reader.Value(docID, crdt.KindRGA)
		if err != nil {
			t.Fatal(err)
		}
		if got := len(v.(string)); got != i {
			t.Fatalf("after tx %d the reader sees %d characters", i, got)
		}
	}
	hits, misses := reg.Counter("store.cache_hit").Value(), reg.Counter("store.cache_miss").Value()
	if misses > 2 || hits < txs-2 {
		t.Fatalf("store.cache_miss = %d, store.cache_hit = %d; want ≤ 2 and ≥ %d", misses, hits, txs-2)
	}
}

// TestSeedRaceJoinEvictResubscribe: four members type into one document and
// bump one counter while a fifth joins and, in a loop, drops both objects
// from its cache and subscribes again. Every seed the parent serves must
// declare folded exactly the group-visible transactions its state contains;
// a seed that declares one it lacks loses that update at the fifth member for
// good. At quiescence the fifth member reads what the parent reads.
func TestSeedRaceJoinEvictResubscribe(t *testing.T) {
	const writers, each = 4, 25
	r := newRig(t, 1, 1, writers+1, VariantAsync)
	fifth := r.nodes[writers]
	// Both objects exist at the DC first, so the parent's cache holds them
	// (seeded once, from the DC) before the group writes: a parent that pulls
	// an object in while its own transactions on it are in flight to the DC is
	// ROADMAP item 1(a), not this test.
	seed := r.dcs[0].Begin("seed")
	seed.Update(docID, crdt.KindRGA, crdt.NewRGA().PrepareInsertAt(0, "#"))
	seed.Update(xID, crdt.KindCounter, crdt.Op{Counter: &crdt.CounterOp{Delta: 0}})
	if _, err := seed.Commit(); err != nil {
		t.Fatal(err)
	}
	for _, n := range r.nodes {
		if err := n.AddInterest(docID, xID); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(n *edge.Node, ch string) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				if _, err := typeChar(n, ch); err != nil {
					t.Errorf("writer %s: %v", ch, err)
					return
				}
				time.Sleep(time.Millisecond)
			}
		}(r.nodes[w], string(rune('a'+w)))
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	for writing := true; writing; {
		select {
		case <-done:
			writing = false
		default:
		}
		fifth.Store().Evict(docID)
		fifth.Store().Evict(xID)
		if err := fifth.AddInterest(docID, xID); err != nil {
			t.Fatal(err)
		}
	}

	// read returns the counter and the document as n sees them.
	read := func(n *edge.Node) (int64, string) {
		doc, err1 := n.Value(docID, crdt.KindRGA)
		ctr, err2 := n.Value(xID, crdt.KindCounter)
		if err1 != nil || err2 != nil {
			return -1, fmt.Sprintf("read failed: %v, %v", err1, err2)
		}
		return ctr.(int64), doc.(string)
	}
	const total = writers * each
	waitFor(t, 10*time.Second, func() bool {
		ctr, doc := read(r.parent.Node())
		return ctr == total && len(doc) == total+1
	}, "the group never made every transaction visible at the parent")
	deadline := time.Now().Add(5 * time.Second)
	for {
		ctr, doc := read(fifth)
		pctr, pdoc := read(r.parent.Node())
		if ctr == pctr && doc == pdoc {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("fifth member diverged:\n fifth:  %d %s\n parent: %d %s", ctr, doc, pctr, pdoc)
		}
		time.Sleep(5 * time.Millisecond)
	}
}
