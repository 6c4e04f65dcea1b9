package dc

import (
	"testing"
	"time"

	"colony/internal/simnet"
	"colony/internal/txn"
	"colony/internal/vclock"
	"colony/internal/wal"
	"colony/internal/wire"
)

// edgeFlightOf builds an EdgeCommit carrying txs as one uplink flight.
func edgeFlightOf(txs ...*txn.Transaction) wire.EdgeCommit {
	m := wire.EdgeCommit{Tx: txs[0]}
	if len(txs) > 1 {
		m.Next = txs[1:]
	}
	return m
}

// ackedDots lists the dots an ack covers, head first.
func ackedDots(ack wire.EdgeCommitAck) []vclock.Dot {
	dots := []vclock.Dot{ack.Dot}
	for _, a := range ack.Next {
		dots = append(dots, a.Dot)
	}
	return dots
}

// TestEdgeFlightStampedInDotOrder sends a durable DC one flight of three
// edge commits. They are stamped in the flight's (dot) order, each
// follower's recorded snapshot covers its predecessor's commit vector, one
// ack covers all three, and the log replays them in stamp order.
func TestEdgeFlightStampedInDotOrder(t *testing.T) {
	net := simnet.New(simnet.Config{})
	defer net.Close()
	dcs, dir := durableCluster(t, net, 1)
	d := dcs[0]
	txs := []*txn.Transaction{edgeInc("edgeA", 1, 1, 1), edgeInc("edgeA", 2, 1, 1), edgeInc("edgeA", 3, 1, 1)}
	reply := awaitReply(t, d.handle("edgeA", edgeFlightOf(txs...)))
	ack, ok := reply.(wire.EdgeCommitAck)
	if !ok {
		t.Fatalf("reply %#v, want an ack", reply)
	}
	if len(ack.Next) != 2 {
		t.Fatalf("ack covers %v, want all three", ackedDots(ack))
	}

	d.mu.Lock()
	var recs []*txn.Transaction
	for i, dot := range ackedDots(ack) {
		if dot != txs[i].Dot {
			t.Errorf("ack %d names %v, want %v", i, dot, txs[i].Dot)
		}
		pos, ok := d.byDot[txs[i].Dot]
		if !ok {
			t.Fatalf("%v acked but not recorded", txs[i].Dot)
		}
		recs = append(recs, d.hist[pos].t)
	}
	d.mu.Unlock()
	acks := append([]wire.EdgeCommitAck{ack}, ack.Next...)
	for i, rec := range recs {
		if acks[i].DCIndex != 0 || acks[i].Ts != rec.Commit[0] {
			t.Errorf("ack %d names %d@%d, recorded %v", i, acks[i].Ts, acks[i].DCIndex, rec.Commit)
		}
		if i == 0 {
			continue
		}
		if rec.Commit[0] <= recs[i-1].Commit[0] {
			t.Errorf("%v stamped %d after %v's %d: not in dot order", rec.Dot, rec.Commit[0], recs[i-1].Dot, recs[i-1].Commit[0])
		}
		if cv, _ := recs[i-1].CommitVector(); !cv.LEQ(rec.Snapshot) {
			t.Errorf("%v recorded at snapshot %v, which misses its predecessor's commit vector %v", rec.Dot, rec.Snapshot, cv)
		}
	}

	d.Close()
	var logged []vclock.Dot
	var stamps []uint64
	if err := wal.Replay(dir, "dc0.wal", func(tx *txn.Transaction) error {
		logged = append(logged, tx.Dot)
		stamps = append(stamps, tx.Commit[0])
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(logged) != 3 {
		t.Fatalf("log holds %v, want the three commits", logged)
	}
	for i := range logged {
		if logged[i] != txs[i].Dot || (i > 0 && stamps[i] <= stamps[i-1]) {
			t.Fatalf("log replays %v at stamps %v, want the flight in stamp order", logged, stamps)
		}
	}
}

// TestEdgeFlightStopsAtFirstFailure sends a flight whose second transaction
// is a duplicate still waiting for its record — its earlier copy is
// committed, and the completions are held so it cannot be recorded. The DC
// acks the first transaction alone and does not sequence the third. Sent
// again once the duplicate is recorded, the rest of the flight is acked, and
// every dot takes effect once. A flight with a hole ends at it.
func TestEdgeFlightStopsAtFirstFailure(t *testing.T) {
	net := simnet.New(simnet.Config{})
	defer net.Close()
	dcs, _ := durableCluster(t, net, 1)
	d := dcs[0]
	tx1, tx2, tx3 := edgeInc("edgeA", 1, 1, 1), edgeInc("edgeA", 2, 1, 1), edgeInc("edgeA", 3, 1, 1)

	// Hold the completion queue: the WAL writer blocks handing over the
	// first durable commit, so nothing is recorded until it is released.
	d.completions.mu.Lock()
	early := d.handle("edgeA", wire.EdgeCommit{Tx: tx2.Clone()})
	pending := d.handle("edgeA", edgeFlightOf(tx1, tx2.Clone(), tx3))
	d.mu.Lock()
	_, sequenced := d.unrecorded[tx3.Dot]
	d.mu.Unlock()
	inStore := d.coord.Contains(tx3)
	d.completions.mu.Unlock()
	if sequenced || inStore {
		t.Fatalf("the transaction after the duplicate was sequenced (unrecorded %v, in store %v)", sequenced, inStore)
	}

	if r := awaitReply(t, early); !isAck(r) {
		t.Fatalf("first copy of %v: reply %#v, want an ack", tx2.Dot, r)
	}
	ack, ok := awaitReply(t, pending).(wire.EdgeCommitAck)
	if !ok || ack.Dot != tx1.Dot || len(ack.Next) != 0 {
		t.Fatalf("flight reply %#v, want an ack of %v alone", ack, tx1.Dot)
	}
	d.mu.Lock()
	_, recorded := d.byDot[tx3.Dot]
	d.mu.Unlock()
	if recorded || d.coord.Contains(tx3) {
		t.Fatalf("%v is in the history or the store after the flight stopped before it", tx3.Dot)
	}

	ack, ok = awaitReply(t, d.handle("edgeA", edgeFlightOf(tx2.Clone(), tx3.Clone()))).(wire.EdgeCommitAck)
	if !ok || ack.Dot != tx2.Dot || len(ack.Next) != 1 || ack.Next[0].Dot != tx3.Dot {
		t.Fatalf("re-sent flight reply %#v, want an ack of %v and %v", ack, tx2.Dot, tx3.Dot)
	}
	// A decoded flight can hold an absent transaction (presence byte 0): it
	// ends the flight like a failure.
	if r := d.handle("edgeA", wire.EdgeCommit{}); r != nil {
		t.Fatalf("empty flight answered %#v", r)
	}
	tx4, tx5 := edgeInc("edgeA", 4, 1, 1), edgeInc("edgeA", 5, 1, 1)
	ack, ok = awaitReply(t, d.handle("edgeA", wire.EdgeCommit{Tx: tx4, Next: []*txn.Transaction{nil, tx5}})).(wire.EdgeCommitAck)
	if !ok || ack.Dot != tx4.Dot || len(ack.Next) != 0 {
		t.Fatalf("flight with a hole answered %#v, want an ack of %v alone", ack, tx4.Dot)
	}
	if got := counterValue(t, d, d.State()); got != 4 {
		t.Fatalf("counter = %d, want 4: each dot once", got)
	}
	if n := d.LogLen(); n != 4 {
		t.Fatalf("history holds %d records for 4 distinct commits", n)
	}
}

// TestEdgeCommitSequencedTwiceJoinsBothStamps: dc0 sequences an edge commit
// whose ack is lost, and the edge re-sends it to dc1, which has not yet
// heard of it and sequences it too. When dc0's copy reaches dc1, dc1 keeps
// its one record but absorbs dc0's stamp into the record, its store and its
// state, so a later commit from the same edge whose snapshot names dc0's
// stamp (the edge saw it pushed by dc0) is accepted at dc1.
func TestEdgeCommitSequencedTwiceJoinsBothStamps(t *testing.T) {
	net := simnet.New(simnet.Config{})
	defer net.Close()
	dcs := cluster(t, net, 2, 1)
	d0, d1 := dcs[0], dcs[1]
	net.Partition("dc0", "dc1")
	tx := edgeInc("edgeA", 1, 2, 1)
	ack0, ok := awaitReply(t, d0.handle("edgeA", wire.EdgeCommit{Tx: tx.Clone()})).(wire.EdgeCommitAck)
	if !ok || ack0.DCIndex != 0 {
		t.Fatalf("dc0 answered %#v, want an ack with its stamp", ack0)
	}
	if ack1, ok := awaitReply(t, d1.handle("edgeA", wire.EdgeCommit{Tx: tx.Clone()})).(wire.EdgeCommitAck); !ok || ack1.DCIndex != 1 {
		t.Fatalf("dc1 answered %#v, want an ack with its own stamp", ack1)
	}

	// dc0's stream brings its copy once the partition heals (no heartbeat
	// runs here to retry the send the partition refused).
	net.Heal("dc0", "dc1")
	wake(d0.repl[1].wake)
	waitFor(t, 2*time.Second, func() bool { return d1.State().Get(0) >= ack0.Ts },
		"dc1's state never covered dc0's stamp for a dot dc1 holds")
	if n := d1.LogLen(); n != 1 {
		t.Fatalf("dc1's history holds %d records for one commit", n)
	}
	// A reader at dc0's commit vector, which does not cover dc1's stamp,
	// sees the commit at dc1.
	if got := counterValue(t, d1, vclock.Vector{ack0.Ts, 0}); got != 1 {
		t.Fatalf("counter at dc0's commit vector = %d at dc1, want 1", got)
	}
	next := edgeInc("edgeA", 2, 2, 1)
	next.Snapshot = vclock.Vector{ack0.Ts, 0}
	if r := awaitReply(t, d1.handle("edgeA", wire.EdgeCommit{Tx: next})); !isAck(r) {
		t.Fatalf("dc1 answered %#v to a commit naming dc0's stamp, want an ack", r)
	}
}

// TestSequencedTwiceMergeSurvivesRestart: the stamp merge above, at a DC with
// a write-ahead log and no heartbeats, survives the DC's restart: after Close
// and New on the same DataDir its state covers both stamps. dc0's copy
// reaches dc1 as an unsequenced batch, which an older DC admitted as it came
// and this one refuses, resuming dc0's stream.
func TestSequencedTwiceMergeSurvivesRestart(t *testing.T) {
	net := simnet.New(simnet.Config{})
	defer net.Close()
	dir := t.TempDir()
	peers := map[int]string{0: "dc0", 1: "dc1"}
	start := func(i int) *DC {
		d, err := New(net.Transport(), Config{Index: i, Name: peers[i], NumDCs: 2, Shards: 2, K: 1, DataDir: dir})
		if err != nil {
			t.Fatal(err)
		}
		d.SetPeers(peers)
		return d
	}
	d0, d1 := start(0), start(1)
	defer d0.Close()
	net.Partition("dc0", "dc1")
	tx := edgeInc("edgeA", 1, 2, 1)
	ack0, ok0 := awaitReply(t, d0.handle("edgeA", wire.EdgeCommit{Tx: tx.Clone()})).(wire.EdgeCommitAck)
	ack1, ok1 := awaitReply(t, d1.handle("edgeA", wire.EdgeCommit{Tx: tx.Clone()})).(wire.EdgeCommitAck)
	if !ok0 || !ok1 || ack0.DCIndex != 0 || ack1.DCIndex != 1 {
		t.Fatalf("acks %#v and %#v, want one stamp from each DC", ack0, ack1)
	}
	net.Heal("dc0", "dc1")
	d0.mu.Lock()
	copy0 := d0.hist[d0.byDot[tx.Dot]].t
	d0.mu.Unlock()
	d1.receiveReplicated(wire.ReplBatch{From: 0, Txs: []*txn.Transaction{copy0}, State: d0.State()})
	waitFor(t, 2*time.Second, func() bool { return d1.State().Get(0) >= ack0.Ts },
		"dc1 never absorbed dc0's stamp")

	d1.Close()
	net.RemoveNode("dc1")
	d1 = start(1)
	defer d1.Close()
	waitFor(t, 2*time.Second, func() bool {
		s := d1.State()
		return s.Get(0) >= ack0.Ts && s.Get(1) >= ack1.Ts
	}, "dc1's state after restart does not cover both stamps")
	if n := d1.LogLen(); n != 1 {
		t.Fatalf("dc1's history holds %d records after restart, want 1", n)
	}
}
