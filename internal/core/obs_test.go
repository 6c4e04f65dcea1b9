package core

import (
	"testing"
	"time"
)

// TestObsCommitToKStableE2E drives one write through a 2-DC deployment and
// checks the full instrumentation path end to end: the commit must be
// recorded, acknowledged, replicated to the second DC, and — once both DCs
// have seen it (K=2) — its commit→K-stable latency must land in the
// deployment-wide histogram.
func TestObsCommitToKStableE2E(t *testing.T) {
	cluster, err := NewCluster(ClusterConfig{
		DCs: 2, ShardsPerDC: 2, K: 2, Heartbeat: 5 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cluster.Close)
	reg := cluster.Obs()
	if reg == nil {
		t.Fatal("cluster has no obs registry")
	}
	conn := connect(t, cluster, "obs-client", 0)
	if err := conn.Update(func(tx *Tx) {
		tx.Counter("app", "obs-counter").Increment(1)
	}); err != nil {
		t.Fatal(err)
	}

	waitFor(t, 10*time.Second, func() bool {
		return reg.Snapshot().Histograms["edge.commit_to_kstable_ns"].Count >= 1
	}, "commit→K-stable latency recorded")

	snap := reg.Snapshot()
	if n := snap.Counters["edge.tx_committed"]; n < 1 {
		t.Fatalf("edge.tx_committed = %d, want >= 1", n)
	}
	if n := snap.Counters["edge.tx_acked"]; n < 1 {
		t.Fatalf("edge.tx_acked = %d, want >= 1", n)
	}
	if n := snap.Counters["dc.edge_commits"]; n < 1 {
		t.Fatalf("dc.edge_commits = %d, want >= 1", n)
	}
	// K=2 requires the write to reach the second DC before it stabilises.
	if n := snap.Counters["dc.repl_rx"]; n < 1 {
		t.Fatalf("dc.repl_rx = %d, want >= 1", n)
	}
	if h := snap.Histograms["edge.commit_to_ack_ns"]; h.Count < 1 {
		t.Fatalf("edge.commit_to_ack_ns count = %d, want >= 1", h.Count)
	}
	kst := snap.Histograms["edge.commit_to_kstable_ns"]
	if kst.Min < 0 || kst.P50 > kst.Max || kst.P50 <= 0 {
		t.Fatalf("commit→K-stable summary implausible: %+v", kst)
	}
	// The ack can only precede stability, never follow it.
	ack := snap.Histograms["edge.commit_to_ack_ns"]
	if ack.Min > kst.Max {
		t.Fatalf("ack latency (min %d) exceeds K-stable latency (max %d)", ack.Min, kst.Max)
	}
	if n := snap.Counters["net.sent"]; n < 1 {
		t.Fatalf("net.sent = %d, want >= 1", n)
	}
}

// TestObsSnapshotUnifiedReadPath checks that a single Snapshot covers every
// instrumented layer of a live deployment — the one read path the status
// loop and the bench harness share.
func TestObsSnapshotUnifiedReadPath(t *testing.T) {
	cluster := newCluster(t, 2)
	conn := connect(t, cluster, "snap-client", 0)
	if err := conn.Update(func(tx *Tx) {
		tx.Set("app", "snap-set").Add("x")
	}); err != nil {
		t.Fatal(err)
	}
	if err := conn.Flush(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	// One cached read so the store-layer counters move.
	if _, err := conn.StartTransaction().Set("app", "snap-set").Elems(); err != nil {
		t.Fatal(err)
	}

	snap := cluster.Obs().Snapshot()
	for _, name := range []string{"net.sent", "net.delivered", "edge.reads", "edge.tx_committed"} {
		if snap.Counters[name] < 1 {
			t.Fatalf("counter %s = %d, want >= 1 (snapshot: %v)", name, snap.Counters[name], snap.Counters)
		}
	}
	for _, name := range []string{"net.in_flight", "edge.unacked", "store.max_journal_len"} {
		if _, ok := snap.Gauges[name]; !ok {
			t.Fatalf("gauge %s missing from snapshot (gauges: %v)", name, snap.Gauges)
		}
	}
	if snap.Gauges["edge.unacked"] != 0 {
		t.Fatalf("edge.unacked = %d after Flush, want 0", snap.Gauges["edge.unacked"])
	}
}
