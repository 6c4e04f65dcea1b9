package tcp_test

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"colony/internal/crdt"
	"colony/internal/dc"
	"colony/internal/edge"
	"colony/internal/obs"
	"colony/internal/transport/tcp"
	"colony/internal/txn"
	"colony/internal/wal"
	"colony/internal/wire"
)

const (
	durableEdges   = 8
	commitsPerEdge = 50
)

// durableDC is one DC that acknowledges a commit only once it is fsynced,
// on its own listening mesh, with durableEdges edges behind one dial-only
// mesh — the shape of a colony-server DC and its clients.
type durableDC struct {
	d     *dc.DC
	reg   *obs.Registry
	dir   string
	edges []*edge.Node
}

func newDurableDC(t *testing.T, hooks func(i int) edge.Hooks) *durableDC {
	t.Helper()
	f := &durableDC{reg: obs.New(), dir: t.TempDir()}
	m, err := tcp.New(tcp.Config{Name: "dc0", Listen: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { m.Close() })
	em, err := tcp.New(tcp.Config{Name: "edges", Peers: map[string]string{"dc0": m.Addr()}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { em.Close() })
	f.d, err = dc.New(m, dc.Config{
		Index: 0, Name: "dc0", NumDCs: 1, Shards: 2, K: 1,
		DataDir: f.dir, SyncWrites: true, Obs: f.reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(f.d.Close)
	for i := 0; i < durableEdges; i++ {
		name := fmt.Sprintf("e%d", i)
		n := edge.New(em, edge.Config{Name: name, Actor: name, DC: "dc0", CallTimeout: 10 * time.Second})
		if hooks != nil {
			n.SetHooks(hooks(i))
		}
		t.Cleanup(n.Close)
		if err := n.Connect(); err != nil {
			t.Fatal(err)
		}
		f.edges = append(f.edges, n)
	}
	return f
}

// commitAll has every edge commit commitsPerEdge counter increments at once
// and waits until the DC has acknowledged them all.
func (f *durableDC) commitAll(t *testing.T) {
	t.Helper()
	var wg sync.WaitGroup
	for _, n := range f.edges {
		wg.Add(1)
		go func(n *edge.Node) {
			defer wg.Done()
			for k := 0; k < commitsPerEdge; k++ {
				tx := n.Begin()
				tx.Update(benchID, crdt.KindCounter, crdt.Op{Counter: &crdt.CounterOp{Delta: 1}})
				if _, err := tx.Commit(); err != nil {
					t.Errorf("%s commit %d: %v", n.Name(), k, err)
					return
				}
			}
		}(n)
	}
	wg.Wait()
	deadline := time.Now().Add(30 * time.Second)
	for _, n := range f.edges {
		for n.UnackedCount() > 0 {
			if time.Now().After(deadline) {
				t.Fatalf("%s: %d commits never acknowledged", n.Name(), n.UnackedCount())
			}
			time.Sleep(2 * time.Millisecond)
		}
	}
}

// TestEdgeCommitsShareFsync: edge commits in flight together at a DC share
// fsyncs. The TCP dispatcher runs all of a DC's inbound traffic on one
// goroutine, so a DC that held it for each commit's fsync would see one
// record per fsync, however many edges were waiting.
func TestEdgeCommitsShareFsync(t *testing.T) {
	f := newDurableDC(t, nil)
	f.commitAll(t)
	const total = durableEdges * commitsPerEdge
	if got := counterAt(f.d); got != total {
		t.Fatalf("counter reads %d, want %d", got, total)
	}
	appends := f.reg.Counter("wal.appends").Value()
	fsyncs := f.reg.Counter("wal.fsyncs").Value()
	t.Logf("%d appends, %d fsyncs (%.2f fsyncs per append)", appends, fsyncs, float64(fsyncs)/float64(appends))
	if appends < total {
		t.Fatalf("wal.appends = %d, want at least %d", appends, total)
	}
	if fsyncs > appends/2 {
		t.Fatalf("wal.fsyncs = %d for %d appends: concurrent edge commits do not share fsyncs", fsyncs, appends)
	}
}

// TestEdgeAckImpliesLogged: by the time an edge sees a commit acknowledged,
// the DC's log holds it — a crash at that instant, modelled by replaying a
// copy of the log, would recover it.
func TestEdgeAckImpliesLogged(t *testing.T) {
	var f *durableDC
	var ready atomic.Bool
	var acks atomic.Int64
	f = newDurableDC(t, func(int) edge.Hooks {
		return edge.Hooks{Ack: func(a wire.EdgeCommitAck) {
			if !ready.Load() {
				return // set-up traffic
			}
			acks.Add(1)
			if !logHolds(t, f.dir, a) {
				t.Errorf("%v acknowledged before the DC's log held it", a.Dot)
			}
		}}
	})
	ready.Store(true)
	f.commitAll(t)
	if got := acks.Load(); got != durableEdges*commitsPerEdge {
		t.Fatalf("%d acks observed, want %d", got, durableEdges*commitsPerEdge)
	}
}

// logHolds replays a copy of dc0's log and reports whether it holds the
// acknowledged dot.
func logHolds(t *testing.T, dir string, a wire.EdgeCommitAck) bool {
	data, err := os.ReadFile(filepath.Join(dir, "dc0.wal"))
	if err != nil {
		t.Error(err)
		return false
	}
	cp, err := os.MkdirTemp(dir, "copy")
	if err != nil {
		t.Error(err)
		return false
	}
	defer os.RemoveAll(cp)
	if err := os.WriteFile(filepath.Join(cp, "dc0.wal"), data, 0o644); err != nil {
		t.Error(err)
		return false
	}
	found := false
	if err := wal.Replay(cp, "dc0.wal", func(tx *txn.Transaction) error {
		found = found || tx.Dot == a.Dot
		return nil
	}); err != nil {
		t.Error(err)
	}
	return found
}
