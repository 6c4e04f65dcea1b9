package tcp_test

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"colony/internal/crdt"
	"colony/internal/dc"
	"colony/internal/transport/tcp"
	"colony/internal/txn"
)

var benchID = txn.ObjectID{Bucket: "bench", Key: "ctr"}

// tcpDCs builds n real DCs, one per TCP mesh, fully cross-wired on loopback.
// This is the in-process version of a multi-process colony-server
// deployment: every replication frame crosses a real socket through the
// binary codec.
func tcpDCs(t testing.TB, n int) []*dc.DC {
	t.Helper()
	peers := make(map[int]string, n)
	meshes := make([]*tcp.Mesh, n)
	for i := 0; i < n; i++ {
		peers[i] = fmt.Sprintf("dc%d", i)
		m, err := tcp.New(tcp.Config{Name: peers[i], Listen: "127.0.0.1:0"})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { m.Close() })
		meshes[i] = m
	}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i != j {
				meshes[i].SetPeer(peers[j], meshes[j].Addr())
			}
		}
	}
	dcs := make([]*dc.DC, n)
	for i := 0; i < n; i++ {
		d, err := dc.New(meshes[i], dc.Config{
			Index: i, Name: peers[i], NumDCs: n, Shards: 2, K: 1,
		})
		if err != nil {
			t.Fatal(err)
		}
		d.SetPeers(peers)
		t.Cleanup(d.Close)
		dcs[i] = d
	}
	return dcs
}

func counterAt(d *dc.DC) int64 {
	obj, err := d.ReadAt(benchID, d.State())
	if err != nil {
		return 0
	}
	return obj.(*crdt.Counter).Total()
}

// commitBurst commits perDC counter increments on every DC concurrently and
// returns when all commits are acknowledged locally.
func commitBurst(t testing.TB, dcs []*dc.DC, perDC int) {
	t.Helper()
	var wg sync.WaitGroup
	errs := make(chan error, len(dcs))
	for i, d := range dcs {
		wg.Add(1)
		go func(i int, d *dc.DC) {
			defer wg.Done()
			actor := fmt.Sprintf("actor%d", i)
			for k := 0; k < perDC; k++ {
				tx := d.Begin(actor)
				tx.Update(benchID, crdt.KindCounter, crdt.Op{Counter: &crdt.CounterOp{Delta: 1}})
				if _, err := tx.Commit(); err != nil {
					errs <- fmt.Errorf("dc%d commit %d: %w", i, k, err)
					return
				}
			}
		}(i, d)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// waitConverged polls until every DC reads total from the shared counter.
func waitConverged(t testing.TB, dcs []*dc.DC, total int64, timeout time.Duration) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		ok := true
		for _, d := range dcs {
			if counterAt(d) != total {
				ok = false
				break
			}
		}
		if ok {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	for i, d := range dcs {
		t.Logf("dc%d reads %d/%d, state %v", i, counterAt(d), total, d.State())
	}
	t.Fatalf("DCs did not converge to %d within %v", total, timeout)
}

// TestThreeDCConvergenceOverTCP is the tentpole's acceptance test: three DCs,
// each on its own TCP mesh (distinct listeners on loopback), replicate a
// concurrent write workload through the binary wire codec and converge to the
// same counter total and compatible state vectors — no simnet anywhere.
func TestThreeDCConvergenceOverTCP(t *testing.T) {
	dcs := tcpDCs(t, 3)
	const perDC = 40
	commitBurst(t, dcs, perDC)
	waitConverged(t, dcs, int64(len(dcs)*perDC), 20*time.Second)

	// State vectors must agree once quiescent (same set of transactions).
	deadline := time.Now().Add(10 * time.Second)
	for {
		v0 := dcs[0].State()
		same := true
		for _, d := range dcs[1:] {
			v := d.State()
			if len(v) != len(v0) {
				same = false
				break
			}
			for i := range v {
				if v[i] != v0[i] {
					same = false
					break
				}
			}
		}
		if same {
			break
		}
		if time.Now().After(deadline) {
			for i, d := range dcs {
				t.Logf("dc%d state %v", i, d.State())
			}
			t.Fatal("state vectors did not agree")
		}
		time.Sleep(2 * time.Millisecond)
	}
}
