package dc

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"colony/internal/crdt"
	"colony/internal/simnet"
	"colony/internal/transport"
	"colony/internal/txn"
	"colony/internal/vclock"
	"colony/internal/wal"
	"colony/internal/wire"
)

// durableCluster builds n DCs that acknowledge a commit only once it is
// fsynced, each with its own log under one directory.
func durableCluster(t *testing.T, net *simnet.Network, n int) ([]*DC, string) {
	t.Helper()
	dir := t.TempDir()
	peers := make(map[int]string, n)
	for i := 0; i < n; i++ {
		peers[i] = fmt.Sprintf("dc%d", i)
	}
	dcs := make([]*DC, n)
	for i := range dcs {
		d, err := New(net.Transport(), Config{
			Index: i, Name: peers[i], NumDCs: n, Shards: 2, K: 1,
			DataDir: dir, SyncWrites: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		d.SetPeers(peers)
		t.Cleanup(d.Close)
		dcs[i] = d
	}
	return dcs, dir
}

// awaitReply returns a handler's reply, waiting for a *transport.Deferred to
// be resolved.
func awaitReply(t *testing.T, reply any) any {
	t.Helper()
	d, ok := reply.(*transport.Deferred)
	if !ok {
		return reply
	}
	ch := make(chan any, 1)
	d.Then(func(v any) { ch <- v })
	select {
	case v := <-ch:
		return v
	case <-time.After(10 * time.Second):
		t.Fatal("deferred reply never resolved")
		return nil
	}
}

// edgeInc is an edge transaction adding delta to xID on an empty snapshot.
func edgeInc(node string, seq uint64, numDCs int, delta int64) *txn.Transaction {
	tx := &txn.Transaction{
		Dot:      vclock.Dot{Node: node, Seq: seq},
		Origin:   node,
		Snapshot: vclock.NewVector(numDCs),
	}
	tx.AppendUpdate(xID, crdt.KindCounter, crdt.Op{Counter: &crdt.CounterOp{Delta: delta}})
	return tx
}

// TestDeferredEdgeCommitDuplicates delivers each edge commit twice back to
// back. The effect happens once and every ack names the stamp the DC
// recorded. The second copy may be nacked only because the first is still
// waiting for durability — and then a retry is acked.
func TestDeferredEdgeCommitDuplicates(t *testing.T) {
	net := simnet.New(simnet.Config{})
	defer net.Close()
	dcs, _ := durableCluster(t, net, 1)
	d := dcs[0]
	const commits = 50
	nacked := 0
	for seq := uint64(1); seq <= commits; seq++ {
		tx := edgeInc("edgeA", seq, 1, 1)
		first := d.handle("edgeA", wire.EdgeCommit{Tx: tx})
		second := d.handle("edgeA", wire.EdgeCommit{Tx: tx.Clone()})
		replies := []any{awaitReply(t, first), awaitReply(t, second)}
		if _, ok := replies[1].(wire.EdgeCommitNack); ok {
			nacked++
			replies[1] = awaitReply(t, d.handle("edgeA", wire.EdgeCommit{Tx: tx.Clone()}))
		}
		d.mu.Lock()
		recorded, _, ok := d.recordedAckLocked(tx.Dot)
		d.mu.Unlock()
		if !ok {
			t.Fatalf("commit %d acknowledged but not recorded", seq)
		}
		for i, r := range replies {
			ack, ok := r.(wire.EdgeCommitAck)
			if !ok {
				t.Fatalf("commit %d, copy %d: reply %#v, want an ack", seq, i, r)
			}
			if ack.Dot != tx.Dot || ack.DCIndex != recorded.DCIndex || ack.Ts != recorded.Ts {
				t.Fatalf("commit %d, copy %d: ack %+v, want the recorded stamp %d@%d",
					seq, i, ack, recorded.Ts, recorded.DCIndex)
			}
		}
	}
	t.Logf("%d of %d second copies arrived while the first awaited durability", nacked, commits)
	if got := counterValue(t, d, d.State()); got != commits {
		t.Fatalf("counter = %d after %d distinct commits delivered twice", got, commits)
	}
	if n := d.LogLen(); n != commits {
		t.Fatalf("history holds %d records for %d distinct commits", n, commits)
	}
}

// TestInlineCommitsRecordInStampOrder: without a journal, commits complete
// on their committers' goroutines, and concurrent ones still record in stamp
// order — the state vector never covers a stamp that awaits its record.
func TestInlineCommitsRecordInStampOrder(t *testing.T) {
	net := simnet.New(simnet.Config{})
	defer net.Close()
	d := cluster(t, net, 1, 1)[0]
	const workers, perWorker = 4, 50
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(2)
		go func(w int) {
			defer wg.Done()
			for k := 0; k < perWorker; k++ {
				tx := d.Begin(fmt.Sprintf("client%d", w))
				tx.Update(xID, crdt.KindCounter, crdt.Op{Counter: &crdt.CounterOp{Delta: 1}})
				if _, err := tx.Commit(); err != nil {
					t.Errorf("client %d commit %d: %v", w, k, err)
					return
				}
			}
		}(w)
		go func(w int) {
			defer wg.Done()
			node := fmt.Sprintf("edge%d", w)
			for seq := uint64(1); seq <= perWorker; seq += 2 {
				m := edgeFlightOf(edgeInc(node, seq, 1, 1), edgeInc(node, seq+1, 1, 1))
				if r, ok := awaitReply(t, d.handle(node, m)).(wire.EdgeCommitAck); !ok || len(r.Next) != 1 {
					t.Errorf("%s flight at %d: reply %#v", node, seq, r)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	d.mu.Lock()
	defer d.mu.Unlock()
	if want := 2 * workers * perWorker; len(d.hist) != want {
		t.Fatalf("history holds %d records, want %d", len(d.hist), want)
	}
	for i := 1; i < len(d.hist); i++ {
		if prev, ts := d.hist[i-1].t.Commit[0], d.hist[i].t.Commit[0]; ts <= prev {
			t.Fatalf("record %d carries stamp %d after %d: records out of stamp order", i, ts, prev)
		}
	}
}

// TestDeferredCommitsRecordInStampOrder runs interactive Tx.Commit callers
// and edge commits concurrently at a durable DC that also receives its
// peer's commits. Its log holds its own commits in rising stamp order, and
// its history records them in that order too: d.own, the stamp-ordered
// index, is in record order.
func TestDeferredCommitsRecordInStampOrder(t *testing.T) {
	net := simnet.New(simnet.Config{})
	defer net.Close()
	dcs, dir := durableCluster(t, net, 2)
	d := dcs[0]
	const workers, perWorker = 4, 40
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(3)
		go func(w int) { // interactive commits at dc0
			defer wg.Done()
			for k := 0; k < perWorker; k++ {
				tx := d.Begin(fmt.Sprintf("client%d", w))
				tx.Update(xID, crdt.KindCounter, crdt.Op{Counter: &crdt.CounterOp{Delta: 1}})
				if _, err := tx.Commit(); err != nil {
					t.Errorf("client %d commit %d: %v", w, k, err)
					return
				}
			}
		}(w)
		go func(w int) { // edge commits at dc0
			defer wg.Done()
			node := fmt.Sprintf("edge%d", w)
			for seq := uint64(1); seq <= perWorker; seq++ {
				r := awaitReply(t, d.handle(node, wire.EdgeCommit{Tx: edgeInc(node, seq, 2, 1)}))
				if _, ok := r.(wire.EdgeCommitAck); !ok {
					t.Errorf("%s commit %d: reply %#v", node, seq, r)
					return
				}
			}
		}(w)
		go func(w int) { // the peer's commits, replicated into dc0's log
			defer wg.Done()
			for k := 0; k < perWorker; k++ {
				tx := dcs[1].Begin(fmt.Sprintf("remote%d", w))
				tx.Update(xID, crdt.KindCounter, crdt.Op{Counter: &crdt.CounterOp{Delta: 1}})
				if _, err := tx.Commit(); err != nil {
					t.Errorf("remote %d commit %d: %v", w, k, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	const total = 3 * workers * perWorker
	waitFor(t, 10*time.Second, func() bool { return counterValue(t, d, d.State()) == total },
		"dc0 never applied every commit")

	d.mu.Lock()
	own := append([]int(nil), d.own...)
	var recorded []uint64
	for _, r := range d.hist {
		if ts, ok := r.t.Commit[0]; ok {
			recorded = append(recorded, ts)
		}
	}
	d.mu.Unlock()
	if want := 2 * workers * perWorker; len(own) != want {
		t.Fatalf("d.own holds %d records, want %d", len(own), want)
	}
	for i := 1; i < len(own); i++ {
		if own[i] <= own[i-1] {
			t.Fatalf("d.own[%d] = %d after %d: stamp order is not record order", i, own[i], own[i-1])
		}
	}
	for i := 1; i < len(recorded); i++ {
		if recorded[i] <= recorded[i-1] {
			t.Fatalf("record %d carries stamp %d after %d: records out of stamp order", i, recorded[i], recorded[i-1])
		}
	}

	d.Close()
	var logged []uint64
	if err := wal.Replay(dir, "dc0.wal", func(tx *txn.Transaction) error {
		if ts, ok := tx.Commit[0]; ok {
			logged = append(logged, ts)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(logged) != fmt.Sprint(recorded) {
		t.Fatalf("log holds dc0's stamps in order %v,\nhistory in order %v", logged, recorded)
	}
}

// TestDeferredRejectedCommitLeavesNoRecord sends a durable DC an edge
// commit its store rejects — an update of a counter as a register — between
// counter increments. The DC nacks it, and its log holds no record of it: a restart
// on the same directory replays the increments alone.
func TestDeferredRejectedCommitLeavesNoRecord(t *testing.T) {
	net := simnet.New(simnet.Config{})
	defer net.Close()
	dcs, dir := durableCluster(t, net, 1)
	d := dcs[0]
	for seq := uint64(1); seq <= 3; seq++ {
		if r := awaitReply(t, d.handle("edgeA", wire.EdgeCommit{Tx: edgeInc("edgeA", seq, 1, 1)})); !isAck(r) {
			t.Fatalf("increment %d: reply %#v, want an ack", seq, r)
		}
	}
	bad := &txn.Transaction{Dot: vclock.Dot{Node: "edgeB", Seq: 1}, Origin: "edgeB", Snapshot: vclock.NewVector(1)}
	bad.AppendUpdate(xID, crdt.KindLWWRegister, crdt.Op{LWW: &crdt.LWWRegisterOp{Value: "v"}})
	if r := awaitReply(t, d.handle("edgeB", wire.EdgeCommit{Tx: bad})); isAck(r) {
		t.Fatalf("kind-mismatched commit acked: %#v", r)
	}
	if r := awaitReply(t, d.handle("edgeA", wire.EdgeCommit{Tx: edgeInc("edgeA", 4, 1, 1)})); !isAck(r) {
		t.Fatalf("increment 4: reply %#v, want an ack", r)
	}
	state := d.State()
	d.Close()
	net.RemoveNode("dc0")

	again, err := New(net.Transport(), Config{Index: 0, Name: "dc0", NumDCs: 1, Shards: 2, K: 1, DataDir: dir, SyncWrites: true})
	if err != nil {
		t.Fatalf("restart after a rejected edge commit: %v", err)
	}
	defer again.Close()
	if got := counterValue(t, again, again.State()); got != 4 {
		t.Fatalf("counter after restart = %d, want 4", got)
	}
	if n := again.LogLen(); n != 4 {
		t.Fatalf("history after restart holds %d records, want 4", n)
	}
	if !again.State().Equal(state) {
		t.Fatalf("state after restart = %v, want %v", again.State(), state)
	}
}

// TestDeferredCommitReplicatedCopyRecordedOnce delivers, right after each
// edge commit's handler returns, a peer's replicated copy of the same dot —
// as after the edge resent it to that peer. The DC's own commit is then applied
// but usually still waiting for its fsync. The copy must not be recorded
// beside it: each dot is recorded once and the counter counts each once.
func TestDeferredCommitReplicatedCopyRecordedOnce(t *testing.T) {
	net := simnet.New(simnet.Config{})
	defer net.Close()
	dcs, _ := durableCluster(t, net, 2)
	d := dcs[0]
	const commits = 50
	for seq := uint64(1); seq <= commits; seq++ {
		tx := edgeInc("edgeA", seq, 2, 1)
		reply := d.handle("edgeA", wire.EdgeCommit{Tx: tx})
		cp := tx.Clone()
		cp.Commit = vclock.CommitStamps{1: seq}
		d.receiveReplicated(wire.ReplBatch{From: 1, Txs: []*txn.Transaction{cp}, State: vclock.Vector{0, seq},
			Gen: 1, Lo: int(seq - 1), Hi: int(seq), Floor: seq - 1})
		if r := awaitReply(t, reply); !isAck(r) {
			t.Fatalf("commit %d: reply %#v, want an ack", seq, r)
		}
	}
	if got := counterValue(t, d, d.State()); got != commits {
		t.Fatalf("counter = %d after %d commits, each also replicated", got, commits)
	}
	if n := d.LogLen(); n != commits {
		t.Fatalf("history holds %d records for %d distinct commits", n, commits)
	}
	// A copy that arrived while its dot awaited the fsync still gave its
	// stamp: no heartbeat runs here, so nothing else would bring it.
	if got := d.State().Get(1); got != commits {
		t.Fatalf("state covers dc1 up to %d, want the last peer stamp %d", got, commits)
	}
}

func isAck(reply any) bool {
	_, ok := reply.(wire.EdgeCommitAck)
	return ok
}
