package dc

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"colony/internal/crdt"
	"colony/internal/obs"
	"colony/internal/simnet"
	"colony/internal/txn"
	"colony/internal/vclock"
	"colony/internal/wire"
)

// pipelineCluster builds n DCs with WAL persistence and the staged write
// pipeline (the production configuration), plus any per-DC config tweak.
func pipelineCluster(t *testing.T, net *simnet.Network, n, k int, tweak func(*Config)) []*DC {
	t.Helper()
	dcs := make([]*DC, n)
	peers := make(map[int]string, n)
	for i := 0; i < n; i++ {
		peers[i] = fmt.Sprintf("dc%d", i)
	}
	for i := 0; i < n; i++ {
		cfg := Config{
			Index: i, Name: peers[i], NumDCs: n, Shards: 2, K: k,
			DataDir: t.TempDir(),
		}
		if tweak != nil {
			tweak(&cfg)
		}
		d, err := New(net.Transport(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		d.SetPeers(peers)
		t.Cleanup(d.Close)
		dcs[i] = d
	}
	return dcs
}

// TestPipelinedConcurrentCommittersConverge drives ≥8 concurrent committers
// through the full pipeline — group-commit WAL with durable acks, per-peer
// batched replication, async push fan-out — across 3 DCs and asserts
// state-vector and value convergence. Run under -race via make ci.
func TestPipelinedConcurrentCommittersConverge(t *testing.T) {
	net := simnet.New(simnet.Config{})
	defer net.Close()
	dcs := pipelineCluster(t, net, 3, 1, func(cfg *Config) {
		cfg.SyncWrites = true
	})

	const committers, perCommitter = 9, 10
	var wg sync.WaitGroup
	for c := 0; c < committers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			d := dcs[c%len(dcs)]
			for i := 0; i < perCommitter; i++ {
				tx := d.Begin(fmt.Sprintf("actor%d", c))
				tx.Update(xID, crdt.KindCounter, crdt.Op{Counter: &crdt.CounterOp{Delta: 1}})
				if _, err := tx.Commit(); err != nil {
					t.Errorf("committer %d: %v", c, err)
					return
				}
			}
		}(c)
	}
	wg.Wait()

	const total = committers * perCommitter
	for i, d := range dcs {
		d := d
		waitFor(t, 5*time.Second, func() bool {
			return counterValue(t, d, d.State()) == total
		}, fmt.Sprintf("dc%d never converged to %d", i, total))
	}
	// State vectors must agree exactly once everything is delivered.
	waitFor(t, 5*time.Second, func() bool {
		s0 := dcs[0].State()
		return s0.Equal(dcs[1].State()) && s0.Equal(dcs[2].State())
	}, "state vectors never converged")
	for i, d := range dcs {
		if err := d.LastWALError(); err != nil {
			t.Fatalf("dc%d WAL error: %v", i, err)
		}
	}
}

// remoteTx builds transaction #seq of a fake peer DC (index 1 of 2): its
// snapshot covers the peer's previous commits, its commit stamp extends them.
func remoteTx(seq uint64, delta int64) *txn.Transaction {
	t := &txn.Transaction{
		Dot:      vclock.Dot{Node: "fakedc1", Seq: seq},
		Origin:   "fakedc1",
		Actor:    "peer",
		Snapshot: vclock.Vector{0, seq - 1},
		Commit:   vclock.CommitStamps{1: seq},
	}
	t.AppendUpdate(xID, crdt.KindCounter, crdt.Op{Counter: &crdt.CounterOp{Delta: delta}})
	return t
}

// TestReplBatchDuplicateAndPartialDelivery feeds a DC overlapping and
// out-of-order batches of one peer's stream — a lost batch, then the re-send
// racing what was in flight behind it — and asserts exactly-once application
// in causal order: a batch that leaves a gap is refused whole, and overlaps
// below the cursor are skipped.
func TestReplBatchDuplicateAndPartialDelivery(t *testing.T) {
	net := simnet.New(simnet.Config{})
	defer net.Close()
	d, err := New(net.Transport(), Config{Index: 0, Name: "dc0", NumDCs: 2, Shards: 2, K: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(d.Close)
	d.SetPeers(map[int]string{1: "fakedc1"})
	var mu sync.Mutex
	var refusals []wire.ReplHeartbeat
	peer := net.AddNode("fakedc1", func(_ string, msg any) any {
		if hb, ok := msg.(wire.ReplHeartbeat); ok && hb.Refuse {
			mu.Lock()
			refusals = append(refusals, hb)
			mu.Unlock()
		}
		return nil
	})

	txs := []*txn.Transaction{remoteTx(1, 1), remoteTx(2, 10), remoteTx(3, 100)}
	state := vclock.Vector{0, 3}

	// send delivers positions [lo, hi) of the peer's stream.
	send := func(lo, hi int) {
		b := wire.ReplBatch{From: 1, Txs: txs[lo:hi], State: state.Clone(), Gen: 7, Lo: lo, Hi: hi}
		if lo > 0 {
			b.Floor = uint64(lo)
		}
		if err := peer.Send("dc0", b); err != nil {
			t.Fatal(err)
		}
	}
	// The tail arrives first (its head was lost): refused, nothing applied.
	send(2, 3)
	waitFor(t, 2*time.Second, func() bool {
		mu.Lock()
		defer mu.Unlock()
		return len(refusals) == 1
	}, "the tail was never refused")
	if got := counterValue(t, d, d.State()); got != 0 {
		t.Fatalf("tail applied before its dependencies: %d", got)
	}
	mu.Lock()
	if hb := refusals[0]; hb.Gen != 0 || hb.Cursor != 0 {
		t.Fatalf("refusal carries cursor (%d, %d), want the empty one", hb.Gen, hb.Cursor)
	}
	mu.Unlock()
	// The re-send from the head, then what was in flight: a full duplicate
	// and a partial overlap.
	send(0, 2)
	send(0, 3)
	send(1, 3)

	waitFor(t, 2*time.Second, func() bool {
		return counterValue(t, d, d.State()) == 111
	}, "batch contents never applied")
	// Duplicates must not double-apply: value stays put.
	time.Sleep(50 * time.Millisecond)
	if got := counterValue(t, d, d.State()); got != 111 {
		t.Fatalf("duplicate delivery changed the value: %d", got)
	}
	if got := d.State().Get(1); got != 3 {
		t.Fatalf("peer component = %d, want 3", got)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(refusals) != 1 {
		t.Fatalf("%d refusals, want only the tail's: overlaps connect", len(refusals))
	}
}

// TestPerPeerBatchesApplyInSendOrder commits a run at one DC and checks the
// receiver recorded them in the sender's commit order — the per-peer FIFO
// guarantee coalescing must not break.
func TestPerPeerBatchesApplyInSendOrder(t *testing.T) {
	net := simnet.New(simnet.Config{})
	defer net.Close()
	dcs := cluster(t, net, 2, 1)

	const commits = 40
	for i := 0; i < commits; i++ {
		tx := dcs[0].Begin("a")
		tx.Update(xID, crdt.KindCounter, crdt.Op{Counter: &crdt.CounterOp{Delta: 1}})
		if _, err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, 2*time.Second, func() bool { return dcs[1].LogLen() == commits },
		"receiver never saw the full run")

	d := dcs[1]
	d.mu.Lock()
	defer d.mu.Unlock()
	last := uint64(0)
	for i, r := range d.hist {
		ts := r.t.Commit[0]
		if ts <= last {
			t.Fatalf("apply order broken at %d: ts %d after %d", i, ts, last)
		}
		last = ts
	}
}

// TestPipelinedSubscriberReceivesPushes exercises the async push fan-out end
// to end: a subscriber sees every K-stable transaction exactly once, with a
// monotone stable cut, via its interest shard's flush.
func TestPipelinedSubscriberReceivesPushes(t *testing.T) {
	net := simnet.New(simnet.Config{})
	defer net.Close()
	dcs := pipelineCluster(t, net, 2, 1, nil)

	var (
		mu     sync.Mutex
		total  int64
		stable vclock.Vector
	)
	sub := net.AddNode("edgeA", func(_ string, msg any) any {
		if p, ok := msg.(wire.PushTxs); ok {
			mu.Lock()
			for _, tr := range p.Txs {
				for _, u := range tr.Updates {
					total += u.Op.Counter.Delta
				}
			}
			if stable != nil && !stable.LEQ(p.Stable) {
				t.Errorf("stable vector regressed: %v after %v", p.Stable, stable)
			}
			stable = p.Stable
			mu.Unlock()
		}
		return nil
	})
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	if _, err := sub.Call(ctx, "dc0", wire.Subscribe{Node: "edgeA", Objects: []txn.ObjectID{xID}}); err != nil {
		t.Fatal(err)
	}
	const commits = 25
	for i := 0; i < commits; i++ {
		tx := dcs[0].Begin("a")
		tx.Update(xID, crdt.KindCounter, crdt.Op{Counter: &crdt.CounterOp{Delta: 1}})
		if _, err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, 3*time.Second, func() bool {
		mu.Lock()
		defer mu.Unlock()
		return total == commits
	}, "subscriber never received all pushes")
	time.Sleep(30 * time.Millisecond)
	mu.Lock()
	defer mu.Unlock()
	if total != commits {
		t.Fatalf("push total = %d, want %d (duplicates?)", total, commits)
	}
}

// TestWALErrorSurfacedInObs pins the swallowed-error satellite: a WAL failure
// increments dc.wal_errors and sticks in LastWALError.
func TestWALErrorSurfacedInObs(t *testing.T) {
	net := simnet.New(simnet.Config{})
	defer net.Close()
	reg := obs.New()
	d, err := New(net.Transport(), Config{Index: 0, Name: "dc0", NumDCs: 1, Shards: 2, K: 1, Obs: reg})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(d.Close)
	if d.LastWALError() != nil {
		t.Fatal("fresh DC reports a WAL error")
	}
	boom := errors.New("disk on fire")
	d.noteWALError(boom)
	d.noteWALError(errors.New("later failure"))
	if got := d.LastWALError(); !errors.Is(got, boom) {
		t.Fatalf("LastWALError = %v, want the first failure", got)
	}
	if got := reg.Snapshot().Counters["dc.wal_errors"]; got != 2 {
		t.Fatalf("dc.wal_errors = %d, want 2", got)
	}
}

// TestPipelineObsExposed checks the acceptance-level observability surface:
// after traffic through a pipelined, WAL-backed cluster the snapshot carries
// outbox depth gauges, replication batch-size quantiles and fsync counters.
func TestPipelineObsExposed(t *testing.T) {
	net := simnet.New(simnet.Config{})
	defer net.Close()
	reg := obs.New()
	dcs := pipelineCluster(t, net, 2, 1, func(cfg *Config) {
		cfg.Obs = reg
		cfg.SyncWrites = true
	})
	for i := 0; i < 10; i++ {
		tx := dcs[0].Begin("a")
		tx.Update(xID, crdt.KindCounter, crdt.Op{Counter: &crdt.CounterOp{Delta: 1}})
		if _, err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, 2*time.Second, func() bool {
		return counterValue(t, dcs[1], dcs[1].State()) == 10
	}, "traffic never replicated")
	// Both DCs record all ten: the history-length gauge sums them.
	waitFor(t, 2*time.Second, func() bool {
		return reg.Snapshot().Gauges["dc.history_len"] == 20
	}, "dc.history_len never reached 20")

	snap := reg.Snapshot()
	if _, ok := snap.Gauges["dc.repl_outbox_depth"]; !ok {
		t.Error("dc.repl_outbox_depth gauge missing")
	}
	if _, ok := snap.Gauges["dc.push_outbox_depth"]; !ok {
		t.Error("dc.push_outbox_depth gauge missing")
	}
	if h := snap.Histograms["dc.repl_batch_txs"]; h.Count == 0 {
		t.Error("dc.repl_batch_txs histogram empty")
	}
	if snap.Counters["wal.fsyncs"] == 0 {
		t.Error("wal.fsyncs never incremented")
	}
	if snap.Counters["wal.appends"] == 0 {
		t.Error("wal.appends never incremented")
	}
	if h := snap.Histograms["wal.batch_txs"]; h.Count == 0 {
		t.Error("wal.batch_txs histogram empty")
	}
}

// TestPipelinedRestartRecoversState: the group-commit WAL replays cleanly
// after a Close/reopen cycle (commit path durability end to end).
func TestPipelinedRestartRecoversState(t *testing.T) {
	net := simnet.New(simnet.Config{})
	defer net.Close()
	dir := t.TempDir()
	cfg := Config{Index: 0, Name: "dc0", NumDCs: 1, Shards: 2, K: 1, DataDir: dir, SyncWrites: true}
	d1, err := New(net.Transport(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	d1.SetPeers(map[int]string{0: "dc0"})
	for i := 0; i < 30; i++ {
		tx := d1.Begin("a")
		tx.Update(xID, crdt.KindCounter, crdt.Op{Counter: &crdt.CounterOp{Delta: 1}})
		if _, err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	want := counterValue(t, d1, d1.State())
	d1.Close()
	net.RemoveNode("dc0")

	d2, err := New(net.Transport(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(d2.Close)
	if got := counterValue(t, d2, d2.State()); got != want {
		t.Fatalf("recovered value = %d, want %d", got, want)
	}
	// And the sequencer resumed: a post-restart commit still works.
	tx := d2.Begin("a")
	tx.Update(xID, crdt.KindCounter, crdt.Op{Counter: &crdt.CounterOp{Delta: 1}})
	if _, err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if got := counterValue(t, d2, d2.State()); got != want+1 {
		t.Fatalf("post-restart value = %d, want %d", got, want+1)
	}
}
