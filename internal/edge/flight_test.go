package edge

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"colony/internal/crdt"
	"colony/internal/dc"
	"colony/internal/simnet"
	"colony/internal/transport"
	"colony/internal/wire"
)

// uplinkNet wraps the network an edge registers on to watch its uplink:
// flights counts the EdgeCommit Calls that got a reply, and while loseAck is
// set an EdgeCommit's reply is dropped after the DC has handled it — the
// DC sequenced the flight, the edge never hears so.
type uplinkNet struct {
	transport.Network
	flights *atomic.Int64
	loseAck *atomic.Bool
}

func (u uplinkNet) AddNode(name string, h transport.Handler) transport.Conn {
	return uplinkConn{Conn: u.Network.AddNode(name, h), net: u}
}

type uplinkConn struct {
	transport.Conn
	net uplinkNet
}

func (c uplinkConn) Call(ctx context.Context, to string, msg any) (any, error) {
	reply, err := c.Conn.Call(ctx, to, msg)
	if _, ok := msg.(wire.EdgeCommit); ok && err == nil {
		if c.net.loseAck.Load() {
			return nil, fmt.Errorf("%s: reply lost", to)
		}
		c.net.flights.Add(1)
	}
	return reply, err
}

// ackLog records, per dot, the stamps the edge's Hooks.Ack saw, in order.
type ackLog struct {
	mu   sync.Mutex
	acks []wire.EdgeCommitAck
}

func (l *ackLog) hook(a wire.EdgeCommitAck) {
	l.mu.Lock()
	l.acks = append(l.acks, a)
	l.mu.Unlock()
}

func (l *ackLog) snapshot() []wire.EdgeCommitAck {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]wire.EdgeCommitAck(nil), l.acks...)
}

// commitIncs commits n increments of xID at e, one transaction each.
func commitIncs(t *testing.T, e *Node, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		tx := e.Begin()
		inc(tx, 1)
		if _, err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}
}

// dcCounter reads xID at d's current state.
func dcCounter(d *dc.DC) int64 {
	obj, err := d.ReadAt(xID, d.State())
	if err != nil {
		return -1
	}
	return obj.(*crdt.Counter).Total()
}

// TestEdgeFlightDrainsBacklog: an edge cut off from its DC commits ten
// transactions. Once the link heals, they reach the DC in at most two
// EdgeCommit flights, and Hooks.Ack runs ten times, in dot order.
func TestEdgeFlightDrainsBacklog(t *testing.T) {
	r := newRig(t, 1, 1)
	up := uplinkNet{Network: r.net.Transport(), flights: new(atomic.Int64), loseAck: new(atomic.Bool)}
	e := New(up, Config{Name: "edgeA", Actor: "edgeA", DC: "dc0", RetryInterval: 5 * time.Millisecond})
	t.Cleanup(e.Close)
	if err := e.Connect(); err != nil {
		t.Fatal(err)
	}
	var log ackLog
	e.SetHooks(Hooks{Ack: log.hook})

	r.net.Partition("edgeA", "dc0")
	commitIncs(t, e, 10)
	if n := e.UnackedCount(); n != 10 {
		t.Fatalf("%d commits queued while partitioned, want 10", n)
	}
	r.net.Heal("edgeA", "dc0")
	waitFor(t, 5*time.Second, func() bool { return e.UnackedCount() == 0 }, "the backlog never drained")

	if n := up.flights.Load(); n > 2 {
		t.Errorf("the backlog of 10 took %d EdgeCommit flights, want at most 2", n)
	}
	acks := log.snapshot()
	if len(acks) != 10 {
		t.Fatalf("Hooks.Ack ran %d times, want 10", len(acks))
	}
	for i := 1; i < len(acks); i++ {
		if !acks[i-1].Dot.Less(acks[i].Dot) || acks[i].Ts <= acks[i-1].Ts {
			t.Fatalf("ack %d for %v at %d follows %v at %d: not in dot order", i, acks[i].Dot, acks[i].Ts, acks[i-1].Dot, acks[i-1].Ts)
		}
	}
	if got := dcCounter(r.dcs[0]); got != 10 {
		t.Fatalf("DC counter = %d, want 10", got)
	}
}

// holdFlight wraps the network a DC registers on: the first EdgeCommit
// flight of more than one transaction to arrive once armed is handled — the
// DC sequences it — and then held: handled is closed, and after release is
// closed the reply is dropped, as if the DC had died before sending it.
type holdFlight struct {
	transport.Network
	armed    *atomic.Bool
	handled  chan struct{}
	release  chan struct{}
	flightTx *atomic.Int64
}

func (n holdFlight) AddNode(name string, h transport.Handler) transport.Conn {
	return n.Network.AddNode(name, func(from string, msg any) any {
		m, ok := msg.(wire.EdgeCommit)
		if !ok || len(m.Next) == 0 || !n.armed.CompareAndSwap(true, false) {
			return h(from, msg)
		}
		n.flightTx.Store(int64(m.Units()))
		_ = h(from, msg)
		close(n.handled)
		<-n.release
		return nil
	})
}

// TestEdgeFlightAcrossDCRestart: a durable DC is closed and reopened on its
// DataDir while an edge's flight is in flight — sequenced, its reply not yet
// sent. The edge re-sends it with the commits queued since. It converges:
// every dot takes effect once, and the stamps the DC acknowledged rise with
// dot sequence.
func TestEdgeFlightAcrossDCRestart(t *testing.T) {
	net := simnet.New(simnet.Config{})
	t.Cleanup(net.Close)
	hold := holdFlight{Network: net.Transport(), armed: new(atomic.Bool),
		handled: make(chan struct{}), release: make(chan struct{}), flightTx: new(atomic.Int64)}
	cfg := dc.Config{Index: 0, Name: "dc0", NumDCs: 1, Shards: 2, K: 1, DataDir: t.TempDir(), SyncWrites: true}
	d, err := dc.New(hold, cfg)
	if err != nil {
		t.Fatal(err)
	}
	e := New(net.Transport(), Config{Name: "edgeA", Actor: "edgeA", DC: "dc0", RetryInterval: 5 * time.Millisecond})
	t.Cleanup(e.Close)
	if err := e.Connect(); err != nil {
		t.Fatal(err)
	}
	var log ackLog
	e.SetHooks(Hooks{Ack: log.hook})
	commitIncs(t, e, 5)
	waitFor(t, 5*time.Second, func() bool { return e.UnackedCount() == 0 }, "the first commits were never acked")

	net.Partition("edgeA", "dc0")
	commitIncs(t, e, 20)
	hold.armed.Store(true)
	net.Heal("edgeA", "dc0")
	select {
	case <-hold.handled:
	case <-time.After(5 * time.Second):
		t.Fatal("no flight reached the DC")
	}
	d.Close()
	net.RemoveNode("dc0")
	d, err = dc.New(net.Transport(), cfg)
	if err != nil {
		t.Fatalf("restart: %v", err)
	}
	t.Cleanup(d.Close)
	close(hold.release)
	commitIncs(t, e, 10)
	const total = 35
	waitFor(t, 5*time.Second, func() bool { return e.UnackedCount() == 0 }, "the edge never converged on the restarted DC")

	t.Logf("a flight of %d was in flight across the restart", hold.flightTx.Load())
	if got := dcCounter(d); got != total {
		t.Fatalf("DC counter = %d after %d commits", got, total)
	}
	if n := d.LogLen(); n != total {
		t.Fatalf("DC history holds %d records for %d commits", n, total)
	}
	stamp := make(map[uint64]uint64, total)
	for _, a := range log.snapshot() {
		if ts, ok := stamp[a.Dot.Seq]; ok && ts != a.Ts {
			t.Fatalf("%v acked at %d and at %d", a.Dot, ts, a.Ts)
		}
		stamp[a.Dot.Seq] = a.Ts
	}
	if len(stamp) != total {
		t.Fatalf("acks name %d dots, want %d", len(stamp), total)
	}
	var prevTs uint64
	for seq := uint64(1); seq <= total; seq++ {
		ts, ok := stamp[seq]
		if !ok {
			t.Fatalf("edgeA:%d never acked", seq)
		}
		if ts <= prevTs {
			t.Fatalf("edgeA:%d stamped %d after edgeA:%d at %d", seq, ts, seq-1, prevTs)
		}
		prevTs = ts
	}
}

// TestEdgeFlightMigration: the DC sequences a flight but its ack is lost,
// more commits queue behind it, and the edge migrates to another DC with
// the whole queue, at once. The new DC re-acks the lost-ack commits it
// already holds by replication and sequences the ones it does not, then
// absorbs the old DC's stamps for those as its copies arrive — so the later
// commits, whose snapshots name those stamps, are accepted. It converges
// everywhere, with each dot taking effect once.
func TestEdgeFlightMigration(t *testing.T) {
	r := newRig(t, 3, 1)
	up := uplinkNet{Network: r.net.Transport(), flights: new(atomic.Int64), loseAck: new(atomic.Bool)}
	e := New(up, Config{Name: "edgeA", Actor: "edgeA", DC: "dc0",
		RetryInterval: 5 * time.Millisecond, CallTimeout: 500 * time.Millisecond})
	t.Cleanup(e.Close)
	if err := e.Connect(); err != nil {
		t.Fatal(err)
	}
	if err := e.AddInterest(xID); err != nil {
		t.Fatal(err)
	}
	up.loseAck.Store(true)
	commitIncs(t, e, 5)
	r.net.Partition("edgeA", "dc0")
	up.loseAck.Store(false)
	commitIncs(t, e, 5)
	if n := e.UnackedCount(); n != 10 {
		t.Fatalf("%d commits queued, want 10", n)
	}
	if err := e.Migrate("dc1"); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 5*time.Second, func() bool { return e.UnackedCount() == 0 }, "the queue never drained at dc1")
	for i, d := range r.dcs {
		waitFor(t, 5*time.Second, func() bool { return dcCounter(d) == 10 }, fmt.Sprintf("dc%d did not converge to 10", i))
	}
	if got := counterAt(t, e); got != 10 {
		t.Fatalf("edge counter = %d, want 10", got)
	}
}
