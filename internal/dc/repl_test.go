package dc

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"colony/internal/crdt"
	"colony/internal/obs"
	"colony/internal/simnet"
	"colony/internal/transport"
	"colony/internal/txn"
	"colony/internal/vclock"
	"colony/internal/wire"
)

// aeDC builds DC 0 of three with its peer table set and no other DC on the
// network: records are fed to it directly, and heartbeats are synthesised.
func aeDC(t testing.TB) *DC {
	t.Helper()
	net := simnet.New(simnet.Config{})
	t.Cleanup(net.Close)
	d, err := New(net.Transport(), Config{Index: 0, Name: "dc0", NumDCs: 3, Shards: 1, K: 1})
	if err != nil {
		t.Fatal(err)
	}
	d.SetPeers(map[int]string{0: "dc0", 1: "dc1", 2: "dc2"})
	t.Cleanup(d.Close)
	return d
}

// aeTx is a one-update transaction stamped by DC origin at ts.
func aeTx(origin int, ts uint64) *txn.Transaction {
	name := fmt.Sprintf("dc%d", origin)
	return &txn.Transaction{
		Dot:      vclock.Dot{Node: name, Seq: ts},
		Origin:   name,
		Snapshot: vclock.NewVector(3),
		Commit:   vclock.CommitStamps{origin: ts},
		Updates: []txn.Update{{
			Object: xID, Kind: crdt.KindCounter,
			Op: crdt.Op{Counter: &crdt.CounterOp{Delta: 1}},
		}},
	}
}

// resumeFrom has a sender for DC 1 hear a heartbeat from a peer with no
// position in this DC's stream that has seen this DC's stamps up to known,
// and returns the batch it sends next. The sender is not the DC's own: no
// goroutine races the test for it.
func resumeFrom(d *DC, p *replPeer, known uint64) (wire.ReplBatch, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.heardLocked(p, wire.ReplHeartbeat{From: 1, State: vclock.Vector{known, 0, 0}})
	return d.replBatchLocked(p)
}

// TestReplResumeSendsFromPeerPosition: a peer whose cursor is in no
// generation of this DC's is sent exactly this DC's own records above its
// state, in stamp order, at most wire.RangeMax of them — with other DCs'
// records interleaved in the history, and some of the own ones masked here
// (each peer applies its own visibility, so they are sent all the same).
func TestReplResumeSendsFromPeerPosition(t *testing.T) {
	d := aeDC(t)
	d.SetVisibilityCheck(func(tx *txn.Transaction) bool { return tx.Actor != "mallory" })
	const n = 600
	var own []*txn.Transaction
	d.mu.Lock()
	for i := 1; i <= n; i++ {
		tx := aeTx(0, uint64(i))
		if i%5 == 0 {
			tx.Actor = "mallory"
		}
		own = append(own, tx)
		d.recordLocked(tx)
		d.recordLocked(aeTx(1+i%2, uint64(i))) // replicated from a peer
	}
	d.mu.Unlock()
	if got := d.MaskedCount(); got != n/5 {
		t.Fatalf("%d own records masked, want %d", got, n/5)
	}

	p := &replPeer{idx: 1, name: "dc1", wake: make(chan struct{}, 1)}
	for _, known := range []uint64{0, 1, 299, n - 10, n - 1, n, n + 5} {
		b, ok := resumeFrom(d, p, known)
		var want []*txn.Transaction
		for _, tx := range own {
			if tx.Commit[0] > known && len(want) < wire.RangeMax {
				want = append(want, tx)
			}
		}
		if !ok {
			if len(want) > 0 {
				t.Fatalf("known=%d: nothing to send, want %d", known, len(want))
			}
			continue
		}
		if len(b.Txs) != len(want) || b.Hi-b.Lo != len(want) {
			t.Fatalf("known=%d: sent %d as [%d, %d), want %d", known, len(b.Txs), b.Lo, b.Hi, len(want))
		}
		for i, tx := range b.Txs {
			if tx.Origin != "dc0" || tx.Dot != want[i].Dot || tx.Commit[0] != want[i].Commit[0] {
				t.Fatalf("known=%d: record %d is %v@%v, want %v@%v", known, i, tx.Dot, tx.Commit, want[i].Dot, want[i].Commit)
			}
			if tx != want[i] {
				t.Fatalf("known=%d: record %d is a copy of the recorded transaction", known, i)
			}
		}
		// Stamps are 1…n, so the resume position is known and the record
		// below it carries stamp known.
		if b.From != 0 || len(b.State) != 3 || b.Gen != d.fan.boot || b.Lo != int(known) || b.Floor != known {
			t.Fatalf("known=%d: batch From=%d State=%v Gen=%d Lo=%d Floor=%d", known, b.From, b.State, b.Gen, b.Lo, b.Floor)
		}
	}
}

// BenchmarkReplResumeFlatInHistory: resuming a peer a few records behind
// costs the same whatever the history length.
func BenchmarkReplResumeFlatInHistory(b *testing.B) {
	for _, n := range []int{1 << 10, 1 << 16} {
		b.Run(fmt.Sprintf("records=%d", n), func(b *testing.B) {
			d := aeDC(b)
			d.mu.Lock()
			for i := 1; i <= n; i++ {
				d.recordLocked(aeTx(0, uint64(i)))
				d.recordLocked(aeTx(1, uint64(i)))
			}
			d.mu.Unlock()
			p := &replPeer{idx: 1, name: "dc1", wake: make(chan struct{}, 1)}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if r, _ := resumeFrom(d, p, uint64(n-8)); len(r.Txs) != 8 {
					b.Fatalf("sent %d, want 8", len(r.Txs))
				}
			}
		})
	}
}

// TestOwnIsAppendOnly: a peer's cursor is a position in d.own, so an own
// record stamped below the last one is refused loudly, not inserted.
func TestOwnIsAppendOnly(t *testing.T) {
	d := aeDC(t)
	d.mu.Lock()
	defer d.mu.Unlock()
	d.recordLocked(aeTx(0, 2))
	d.recordLocked(aeTx(1, 1))
	defer func() {
		if recover() == nil {
			t.Fatal("an own record stamped below the tail of d.own was recorded")
		}
	}()
	d.recordLocked(aeTx(0, 1))
}

// tapNet wraps a network so a test decides the fate of every ReplBatch a node
// sends: filter gets the sender's own connection and returns false to keep
// the batch from the network — dropped, as a lossy link would, or held and
// sent later through c.
type tapNet struct {
	transport.Network
	filter func(c transport.Conn, to string, b wire.ReplBatch) bool
}

func (n tapNet) AddNode(name string, h transport.Handler) transport.Conn {
	return tapConn{Conn: n.Network.AddNode(name, h), filter: n.filter}
}

type tapConn struct {
	transport.Conn
	filter func(c transport.Conn, to string, b wire.ReplBatch) bool
}

func (c tapConn) Send(to string, msg any) error {
	if b, ok := msg.(wire.ReplBatch); ok && !c.filter(c.Conn, to, b) {
		return nil
	}
	return c.Conn.Send(to, msg)
}

// clusterOn builds n DCs with no heartbeats on netw; tweak adjusts each
// configuration.
func clusterOn(t *testing.T, netw transport.Network, n, k int, tweak func(*Config)) []*DC {
	t.Helper()
	dcs := make([]*DC, n)
	peers := make(map[int]string, n)
	for i := 0; i < n; i++ {
		peers[i] = fmt.Sprintf("dc%d", i)
	}
	for i := 0; i < n; i++ {
		cfg := Config{Index: i, Name: peers[i], NumDCs: n, Shards: 2, K: k}
		if tweak != nil {
			tweak(&cfg)
		}
		d, err := New(netw, cfg)
		if err != nil {
			t.Fatal(err)
		}
		d.SetPeers(peers)
		t.Cleanup(d.Close)
		dcs[i] = d
	}
	return dcs
}

// TestReplDroppedMiddleBatchResumes: the second of three ReplBatches dc0
// sends dc1 is lost, and no heartbeat runs. Each batch carries one edge
// commit whose snapshot is empty, so the third does not depend on the
// second. dc1's state must never cover a stamp of dc0 whose record it does
// not hold, and the two must converge: the third batch leaves a gap, dc1
// refuses it, and dc0 re-sends from dc1's cursor.
func TestReplDroppedMiddleBatchResumes(t *testing.T) {
	sim := simnet.New(simnet.Config{})
	defer sim.Close()
	var mu sync.Mutex
	sent := 0
	tap := tapNet{Network: sim.Transport(), filter: func(c transport.Conn, to string, _ wire.ReplBatch) bool {
		if c.Name() != "dc0" || to != "dc1" {
			return true
		}
		mu.Lock()
		defer mu.Unlock()
		sent++
		return sent != 2
	}}
	dcs := clusterOn(t, tap, 2, 1, nil)
	d0, d1 := dcs[0], dcs[1]
	stamps := make(map[vclock.Dot]uint64)
	for i := 1; i <= 3; i++ {
		tx := edgeInc(fmt.Sprintf("edge%d", i), 1, 2, 1)
		ack, ok := awaitReply(t, d0.handle(tx.Origin, wire.EdgeCommit{Tx: tx})).(wire.EdgeCommitAck)
		if !ok {
			t.Fatalf("edge commit %d not acked", i)
		}
		stamps[tx.Dot] = ack.Ts
		waitFor(t, 2*time.Second, func() bool {
			mu.Lock()
			defer mu.Unlock()
			return sent >= i
		}, "dc0 never sent the commit's batch")
	}
	waitFor(t, 5*time.Second, func() bool {
		covered := d1.State().Get(0)
		d1.mu.Lock()
		for dot, ts := range stamps {
			if _, held := d1.byDot[dot]; ts <= covered && !held {
				d1.mu.Unlock()
				t.Fatalf("dc1's state covers dc0 up to %d, but dc1 does not hold %v, stamped %d", covered, dot, ts)
			}
		}
		d1.mu.Unlock()
		return counterValue(t, d1, d1.State()) == 3
	}, "dc1 never converged after the lost batch")
}

// TestAbsorbedStampWaitsForItsStream: an edge commit sequenced at dc0 and at
// dc1 reaches dc2 first on dc0's stream, carrying dc1's stamp, which dc0
// absorbed. That stamp must not lift dc2's component for dc1: dc2 holds
// nothing of dc1's stream yet. Once dc1's stream brings its own copy, dc2
// covers both stamps.
func TestAbsorbedStampWaitsForItsStream(t *testing.T) {
	sim := simnet.New(simnet.Config{})
	defer sim.Close()
	dcs := cluster(t, sim, 3, 1)
	d0, d1, d2 := dcs[0], dcs[1], dcs[2]
	for _, link := range [][2]string{{"dc0", "dc1"}, {"dc0", "dc2"}, {"dc1", "dc2"}} {
		sim.Partition(link[0], link[1])
	}
	tx := edgeInc("edgeA", 1, 3, 1)
	ack0, ok0 := awaitReply(t, d0.handle("edgeA", wire.EdgeCommit{Tx: tx.Clone()})).(wire.EdgeCommitAck)
	ack1, ok1 := awaitReply(t, d1.handle("edgeA", wire.EdgeCommit{Tx: tx.Clone()})).(wire.EdgeCommitAck)
	if !ok0 || !ok1 || ack0.DCIndex != 0 || ack1.DCIndex != 1 {
		t.Fatalf("acks %#v and %#v, want one stamp from each DC", ack0, ack1)
	}

	sim.Heal("dc0", "dc1")
	wake(d1.repl[0].wake) // no heartbeat runs to retry the refused sends
	waitFor(t, 2*time.Second, func() bool { return d0.State().Get(1) >= ack1.Ts }, "dc0 never absorbed dc1's stamp")

	sim.Heal("dc0", "dc2")
	wake(d0.repl[2].wake)
	waitFor(t, 2*time.Second, func() bool { return d2.LogLen() == 1 }, "dc2 never recorded dc0's copy")
	if got := d2.State().Get(1); got != 0 {
		t.Fatalf("dc2 covers dc1 up to %d from a stamp dc0 absorbed; dc2 holds nothing of dc1's stream", got)
	}

	sim.Heal("dc1", "dc2")
	wake(d1.repl[2].wake)
	waitFor(t, 2*time.Second, func() bool { return d2.State().Get(1) >= ack1.Ts }, "dc1's copy never gave dc2 its stamp")
	if d2.State().Get(0) < ack0.Ts || d2.LogLen() != 1 {
		t.Fatalf("dc2 state %v with %d records, want both stamps on one record", d2.State(), d2.LogLen())
	}
}

// TestReplBacklogGaugeTracksPartition: dc.repl_outbox_depth counts the own
// records peers have not acked. It grows while dc1 is cut off from dc0, and
// it returns to 0 once the partition heals and the stream catches up.
func TestReplBacklogGaugeTracksPartition(t *testing.T) {
	sim := simnet.New(simnet.Config{})
	defer sim.Close()
	reg := obs.New()
	dcs := clusterOn(t, sim.Transport(), 2, 1, func(c *Config) {
		c.Heartbeat = 5 * time.Millisecond
		if c.Index == 0 {
			c.Obs = reg
		}
	})
	backlog := func() int64 { return reg.Snapshot().Gauges["dc.repl_outbox_depth"] }
	waitFor(t, 2*time.Second, func() bool { return backlog() == 0 }, "backlog not 0 at rest")

	sim.Partition("dc0", "dc1")
	const commits = 10
	for i := 0; i < commits; i++ {
		commitN(t, dcs[0], xID, 1)
	}
	if got := backlog(); got != commits {
		t.Fatalf("backlog = %d while partitioned, want %d", got, commits)
	}
	sim.Heal("dc0", "dc1")
	waitFor(t, 5*time.Second, func() bool { return backlog() == 0 }, "backlog never drained after the heal")
	if got := counterValue(t, dcs[1], dcs[1].State()); got != commits {
		t.Fatalf("dc1 counts %d after the heal, want %d", got, commits)
	}
}

// TestReplRefusedSendsBoundedByTicks: with more than wire.RangeMax records
// unsent to a partitioned peer, a refused send does not retry at once. Once
// the commits stop, only the heartbeat tick retries: the send attempts stay
// within one per tick. After the heal the peer catches up.
func TestReplRefusedSendsBoundedByTicks(t *testing.T) {
	sim := simnet.New(simnet.Config{})
	defer sim.Close()
	var mu sync.Mutex
	attempts := 0
	tap := tapNet{Network: sim.Transport(), filter: func(c transport.Conn, to string, _ wire.ReplBatch) bool {
		if c.Name() == "dc0" && to == "dc1" {
			mu.Lock()
			attempts++
			mu.Unlock()
		}
		return true
	}}
	const hb = 20 * time.Millisecond
	dcs := clusterOn(t, tap, 2, 1, func(c *Config) { c.Heartbeat = hb })
	count := func() int {
		mu.Lock()
		defer mu.Unlock()
		return attempts
	}

	sim.Partition("dc0", "dc1")
	const commits = wire.RangeMax + 50
	for i := 0; i < commits; i++ {
		commitN(t, dcs[0], xID, 1)
	}
	before, start := count(), time.Now()
	time.Sleep(10 * hb)
	// One retry per tick begun, and two the commits' wake-ups may still owe:
	// one attempt under way and one wake-up pending.
	ticks := int(time.Since(start)/hb) + 1
	if got := count() - before; got > ticks+2 {
		t.Fatalf("%d send attempts to the partitioned peer in %d ticks", got, ticks)
	}

	sim.Heal("dc0", "dc1")
	waitFor(t, 5*time.Second, func() bool { return counterValue(t, dcs[1], dcs[1].State()) == commits }, "dc1 never caught up after the heal")
}

// TestReplLostFirstBatchResumes: the first batch of a fresh stream is lost.
// The next batch leaves a gap, and dc1's refusal rewinds dc0 to position 0 at
// once: a rewind to 0 is not mistaken for a repeat of an earlier one. The
// heartbeat period is long, so neither a tick nor a silence does the repair.
func TestReplLostFirstBatchResumes(t *testing.T) {
	sim := simnet.New(simnet.Config{})
	defer sim.Close()
	var mu sync.Mutex
	sent := 0
	tap := tapNet{Network: sim.Transport(), filter: func(c transport.Conn, to string, _ wire.ReplBatch) bool {
		if c.Name() != "dc0" || to != "dc1" {
			return true
		}
		mu.Lock()
		defer mu.Unlock()
		sent++
		return sent != 1
	}}
	dcs := clusterOn(t, tap, 2, 1, func(c *Config) { c.Heartbeat = time.Minute })
	commitN(t, dcs[0], xID, 1)
	waitFor(t, 2*time.Second, func() bool {
		mu.Lock()
		defer mu.Unlock()
		return sent == 1
	}, "dc0 never sent its first batch")
	commitN(t, dcs[0], xID, 1)
	waitFor(t, 2*time.Second, func() bool { return counterValue(t, dcs[1], dcs[1].State()) == 2 }, "dc1 never recovered the lost first batch")
}
