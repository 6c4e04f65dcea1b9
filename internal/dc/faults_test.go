package dc

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"colony/internal/crdt"
	"colony/internal/simnet"
	"colony/internal/txn"
	"colony/internal/vclock"
	"colony/internal/wire"
)

// TestConvergenceUnderLossyMesh: 20% message loss on every DC↔DC link; the
// stream's repair path (a refused batch, or a silence, rewinds the sender to
// the receiver's cursor) must still drive every DC to the same state.
func TestConvergenceUnderLossyMesh(t *testing.T) {
	net := simnet.New(simnet.Config{Seed: 99})
	defer net.Close()
	n := 3
	peers := map[int]string{0: "dc0", 1: "dc1", 2: "dc2"}
	dcs := make([]*DC, n)
	for i := 0; i < n; i++ {
		d, err := New(net.Transport(), Config{
			Index: i, Name: peers[i], NumDCs: n, Shards: 2, K: 1,
			Heartbeat: 5 * time.Millisecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		d.SetPeers(peers)
		defer d.Close()
		dcs[i] = d
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			net.SetBidirectional(peers[i], peers[j], simnet.LinkConfig{Loss: 0.2})
		}
	}

	var want int64
	var mu sync.Mutex
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(d *DC) {
			defer wg.Done()
			for k := 0; k < 10; k++ {
				tx := d.Begin("a")
				tx.Update(xID, crdt.KindCounter, crdt.Op{Counter: &crdt.CounterOp{Delta: 1}})
				if _, err := tx.Commit(); err == nil {
					mu.Lock()
					want++
					mu.Unlock()
				}
			}
		}(dcs[i])
	}
	wg.Wait()

	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		equal := true
		for _, d := range dcs {
			obj, err := d.ReadAt(xID, d.State())
			if err != nil || obj.(*crdt.Counter).Total() != want {
				equal = false
				break
			}
		}
		if equal {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	for i, d := range dcs {
		obj, err := d.ReadAt(xID, d.State())
		var got int64 = -1
		if err == nil {
			got = obj.(*crdt.Counter).Total()
		}
		t.Logf("dc%d: %d (want %d), state %v", i, got, want, d.State())
	}
	t.Fatal("DCs never converged over the lossy mesh")
}

// TestConvergenceAfterRollingPartitions: DCs are partitioned pairwise in a
// rolling pattern while commits continue; after healing, all converge.
func TestConvergenceAfterRollingPartitions(t *testing.T) {
	net := simnet.New(simnet.Config{})
	defer net.Close()
	n := 3
	peers := map[int]string{0: "dc0", 1: "dc1", 2: "dc2"}
	dcs := make([]*DC, n)
	for i := 0; i < n; i++ {
		d, err := New(net.Transport(), Config{
			Index: i, Name: peers[i], NumDCs: n, Shards: 2, K: 1,
			Heartbeat: 5 * time.Millisecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		d.SetPeers(peers)
		defer d.Close()
		dcs[i] = d
	}

	var want int64
	for round := 0; round < 3; round++ {
		a, b := peers[round%n], peers[(round+1)%n]
		net.Partition(a, b)
		for i, d := range dcs {
			tx := d.Begin(fmt.Sprintf("u%d", i))
			tx.Update(xID, crdt.KindCounter, crdt.Op{Counter: &crdt.CounterOp{Delta: 1}})
			if _, err := tx.Commit(); err == nil {
				want++
			}
		}
		time.Sleep(20 * time.Millisecond)
		net.Heal(a, b)
	}

	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		equal := true
		for _, d := range dcs {
			obj, err := d.ReadAt(xID, d.State())
			if err != nil || obj.(*crdt.Counter).Total() != want {
				equal = false
				break
			}
		}
		if equal {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal("DCs never converged after rolling partitions")
}

// TestPersistenceAcrossRestart: a DC with a WAL recovers its full state —
// values, sequencer position, and duplicate filtering — after a restart.
func TestPersistenceAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	net := simnet.New(simnet.Config{})
	defer net.Close()
	cfg := Config{Index: 0, Name: "dc0", NumDCs: 1, Shards: 2, K: 1, DataDir: dir}

	d1, err := New(net.Transport(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	var lastTs uint64
	for i := 0; i < 5; i++ {
		tx := d1.Begin("a")
		tx.Update(xID, crdt.KindCounter, crdt.Op{Counter: &crdt.CounterOp{Delta: 2}})
		stamps, err := tx.Commit()
		if err != nil {
			t.Fatal(err)
		}
		lastTs = stamps[0]
	}
	// An edge transaction too, to cover the replicated/accepted path.
	etx := incTxForRestart("edgeZ", 1, d1.State())
	if reply := d1.acceptEdgeTx(wire.EdgeCommit{Tx: etx}); reply == nil {
		t.Fatal("edge tx not accepted")
	}
	stateBefore := d1.State()
	d1.Close()
	net.RemoveNode("dc0")

	d2, err := New(net.Transport(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	if !d2.State().Equal(stateBefore) {
		t.Fatalf("state after restart = %v, want %v", d2.State(), stateBefore)
	}
	obj, err := d2.ReadAt(xID, d2.State())
	if err != nil {
		t.Fatal(err)
	}
	if got := obj.(*crdt.Counter).Total(); got != 11 {
		t.Fatalf("value after restart = %d, want 11", got)
	}
	// The sequencer resumes past the recovered timestamps.
	tx := d2.Begin("a")
	tx.Update(xID, crdt.KindCounter, crdt.Op{Counter: &crdt.CounterOp{Delta: 1}})
	stamps, err := tx.Commit()
	if err != nil {
		t.Fatal(err)
	}
	if stamps[0] <= lastTs {
		t.Fatalf("sequencer went backwards: %d after %d", stamps[0], lastTs)
	}
	// Duplicate filtering survives: re-accepting the edge tx re-acks, no
	// double apply.
	if reply := d2.acceptEdgeTx(wire.EdgeCommit{Tx: etx.Clone()}); reply == nil {
		t.Fatal("re-accept failed")
	}
	obj, _ = d2.ReadAt(xID, d2.State())
	if got := obj.(*crdt.Counter).Total(); got != 12 {
		t.Fatalf("duplicate applied after restart: %d", got)
	}
}

// incTxForRestart builds a single-increment edge transaction.
func incTxForRestart(node string, seq uint64, snap vclock.Vector) *txn.Transaction {
	tx := &txn.Transaction{
		Dot:      vclock.Dot{Node: node, Seq: seq},
		Origin:   node,
		Snapshot: snap.Clone(),
	}
	tx.AppendUpdate(xID, crdt.KindCounter, crdt.Op{Counter: &crdt.CounterOp{Delta: 1}})
	return tx
}
