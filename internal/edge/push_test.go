package edge

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"colony/internal/crdt"
	"colony/internal/dc"
	"colony/internal/obs"
	"colony/internal/simnet"
	"colony/internal/transport"
	"colony/internal/txn"
	"colony/internal/vclock"
	"colony/internal/wire"
)

// pushRig is one DC plus the edges of one multicast subtree: every edge
// subscribes to xID with the Relay bit (edge.Node always does), so the first
// to subscribe roots the tree and the others are its children.
type pushRig struct {
	net   *simnet.Network
	d     *dc.DC
	reg   *obs.Registry
	edges []*Node
	log   commitLog
}

// commitLog collects the DC timestamps of the commits a test makes (they are
// not consecutive: the sequencer follows ClockSI prepare times).
type commitLog struct {
	mu sync.Mutex
	ts []uint64
}

func (l *commitLog) note(ts uint64) {
	l.mu.Lock()
	l.ts = append(l.ts, ts)
	l.mu.Unlock()
}

// missing returns a noted commit in (base, stable] that seen does not hold.
func (l *commitLog) missing(base, stable uint64, seen map[uint64]bool) (uint64, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, ts := range l.ts {
		if ts > base && ts <= stable && !seen[ts] {
			return ts, true
		}
	}
	return 0, false
}

// inboundFilter wraps the network an edge registers on: a message for which
// drop reports true is accepted by the network and never handled, and no
// error surfaces anywhere.
type inboundFilter struct {
	transport.Network
	drop func(msg any) bool
}

func (f inboundFilter) AddNode(name string, h transport.Handler) transport.Conn {
	return f.Network.AddNode(name, func(from string, msg any) any {
		if f.drop(msg) {
			return nil
		}
		return h(from, msg)
	})
}

func singleDC(t *testing.T, net *simnet.Network, dir string, reg *obs.Registry) *dc.DC {
	t.Helper()
	d, err := dc.New(net.Transport(), dc.Config{
		Index: 0, Name: "dc0", NumDCs: 1, Shards: 2, K: 1, DataDir: dir, Obs: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// newPushRig connects n edges to one DC. rootNet, when non-nil, is the
// network the first edge (the subtree root) registers on.
func newPushRig(t *testing.T, n int, rootNet func(transport.Network) transport.Network) *pushRig {
	t.Helper()
	r := &pushRig{net: simnet.New(simnet.Config{}), reg: obs.New()}
	t.Cleanup(r.net.Close)
	r.d = singleDC(t, r.net, "", nil)
	t.Cleanup(r.d.Close)
	for i := 0; i < n; i++ {
		nw := r.net.Transport()
		if i == 0 && rootNet != nil {
			nw = rootNet(nw)
		}
		name := fmt.Sprintf("edge%c", 'A'+i)
		e := New(nw, Config{Name: name, Actor: name, DC: "dc0", RetryInterval: 5 * time.Millisecond, Obs: r.reg})
		t.Cleanup(e.Close)
		if err := e.Connect(); err != nil {
			t.Fatal(err)
		}
		if err := e.AddInterest(xID); err != nil {
			t.Fatal(err)
		}
		r.edges = append(r.edges, e)
	}
	if children := r.d.TreeTopology()[r.edges[0].Name()]; len(children) != n-1 {
		t.Fatalf("topology %v: want one subtree rooted at %s with %d children", r.d.TreeTopology(), r.edges[0].Name(), n-1)
	}
	return r
}

// commitAt commits n increments of xID at the DC, noting their timestamps.
func commitAt(t *testing.T, d *dc.DC, l *commitLog, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		tx := d.Begin("push-test")
		tx.Update(xID, crdt.KindCounter, crdt.Op{Counter: &crdt.CounterOp{Delta: 1}})
		stamps, err := tx.Commit()
		if err != nil {
			t.Fatal(err)
		}
		l.note(stamps[0])
	}
}

// pushWatch checks, from inside Hooks.Push, what the cursor protocol promises
// a receiver: every writer's transactions are first integrated in commit
// order, and the stable cut never covers a (noted) commit that has not been
// integrated. It also keeps the frames, for tests that look at ranges.
type pushWatch struct {
	n   *Node
	log *commitLog

	mu         sync.Mutex
	base       uint64 // every commit above it reaches the node as a frame
	seen       map[uint64]bool
	lastSeq    map[string]uint64
	frames     []wire.PushTxs
	violations []string
}

func watchPushes(n *Node, l *commitLog) *pushWatch {
	w := &pushWatch{n: n, log: l, base: n.StableVector().Get(0), seen: make(map[uint64]bool), lastSeq: make(map[string]uint64)}
	n.SetHooks(Hooks{Push: w.onPush})
	return w
}

func (w *pushWatch) onPush(m wire.PushTxs) {
	stable := w.n.StableVector().Get(0)
	w.mu.Lock()
	defer w.mu.Unlock()
	w.frames = append(w.frames, m)
	for _, t := range m.Txs {
		ts := t.Commit[0]
		if w.seen[ts] {
			continue // an overlapping frame; the store filtered it by dot
		}
		w.seen[ts] = true
		if t.Dot.Seq <= w.lastSeq[t.Dot.Node] {
			w.violations = append(w.violations, fmt.Sprintf("%s:%d first integrated after %s:%d", t.Dot.Node, t.Dot.Seq, t.Dot.Node, w.lastSeq[t.Dot.Node]))
		}
		w.lastSeq[t.Dot.Node] = t.Dot.Seq
	}
	if ts, ok := w.log.missing(w.base, stable, w.seen); ok {
		w.violations = append(w.violations, fmt.Sprintf("stable cut %d covers commit %d, which was never integrated", stable, ts))
	}
}

func (w *pushWatch) count() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return len(w.seen)
}

func (w *pushWatch) checkClean(t *testing.T) {
	t.Helper()
	w.mu.Lock()
	defer w.mu.Unlock()
	for _, v := range w.violations {
		t.Errorf("%s: %s", w.n.Name(), v)
	}
}

// TestPushDirectFrameOvertakesRelayed: frames relayed to a child over a slow
// root→child link are overtaken by direct ones — the catch-up of an interest
// extension, then the frames of the shard the extension moved the child to.
// The child must still integrate every writer's transactions in commit order,
// and its stable cut must never run ahead of what it has integrated.
func TestPushDirectFrameOvertakesRelayed(t *testing.T) {
	r := newPushRig(t, 5, nil)
	root, child := r.edges[0], r.edges[4]
	writers := []*Node{r.edges[1], r.edges[2]}
	for _, wr := range writers {
		wr.SetHooks(Hooks{Ack: func(a wire.EdgeCommitAck) { r.log.note(a.Ts) }})
	}
	commit := func(n *Node) {
		t.Helper()
		tx := n.Begin()
		inc(tx, 1)
		if _, err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	for _, w := range writers {
		commit(w)
	}
	waitFor(t, 2*time.Second, func() bool { return counterAt(t, child) == 2 }, "warm-up commits never reached the child")
	w := watchPushes(child, &r.log)

	// Everything the root relays to the child now takes 150 ms.
	r.net.SetLink(root.Name(), child.Name(), simnet.LinkConfig{Latency: 150 * time.Millisecond})
	for i := 0; i < 3; i++ {
		for _, wr := range writers {
			commit(wr)
		}
	}
	waitFor(t, 2*time.Second, func() bool { return counterAt(t, root) == 8 }, "the root never received the relayed batch")
	// The child widens its interest while those frames are still on the slow
	// link: the DC answers directly, and from here on the child sits in a
	// shard of its own and is sent to directly.
	if err := child.AddInterest(txn.ObjectID{Bucket: "other", Key: "y"}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		for _, wr := range writers {
			commit(wr)
		}
	}
	waitFor(t, 3*time.Second, func() bool { return w.count() == 10 && counterAt(t, child) == 12 }, "the child never integrated all twelve commits")
	// Let the overtaken frames land too: they must be harmless.
	time.Sleep(200 * time.Millisecond)
	if got := counterAt(t, child); got != 12 {
		t.Fatalf("counter = %d after the overtaken frames arrived, want 12", got)
	}
	w.checkClean(t)
}

// TestPushGapRefusedThenResumed: a frame that does not connect to the cursor
// is refused whole — not applied, its stable cut not adopted, Hooks.Push not
// called — and the node resumes from its cursor, which the DC answers with
// the missing range.
func TestPushGapRefusedThenResumed(t *testing.T) {
	r := newPushRig(t, 1, nil)
	e := r.edges[0]
	commitAt(t, r.d, &r.log, 2)
	waitFor(t, 2*time.Second, func() bool { return counterAt(t, e) == 2 }, "warm-up commits never arrived")
	w := watchPushes(e, &r.log)

	// The edge misses three commits, then hears about a fourth — handed to it
	// while it is still cut off, so that nothing but the refusal can happen
	// before the checks below.
	r.net.Isolate(e.Name())
	commitAt(t, r.d, &r.log, 3)
	before := e.StableVector()
	e.mu.Lock()
	cur := e.push
	e.mu.Unlock()
	far := &txn.Transaction{
		Dot: vclock.Dot{Node: "dc0", Seq: 99}, Origin: "dc0", Snapshot: vclock.Vector{5},
		Commit:  vclock.CommitStamps{0: 6},
		Updates: []txn.Update{{Object: xID, Kind: crdt.KindCounter, Op: crdt.Op{Counter: &crdt.CounterOp{Delta: 100}}}},
	}
	e.ApplyPush(wire.PushTxs{From: "dc0", Txs: []*txn.Transaction{far}, Stable: vclock.Vector{6}, Gen: cur.Gen, Lo: cur.Idx + 3, Hi: cur.Idx + 4})
	w.mu.Lock()
	if len(w.frames) != 0 {
		t.Error("Hooks.Push ran for a frame past the cursor")
	}
	w.mu.Unlock()
	if after := e.StableVector(); !after.Equal(before) {
		t.Errorf("stable cut moved %v → %v on a refused frame", before, after)
	}
	if _, ok := e.Store().Transaction(far.Dot); ok {
		t.Error("a transaction from a refused frame reached the store")
	}
	// Back online. If the resume the refusal triggered already found the DC
	// unreachable, the next is due after resyncAfter — the test does not sit
	// that pause out.
	r.net.Rejoin(e.Name())
	waitFor(t, 2*time.Second, func() bool {
		e.mu.Lock()
		if e.resync {
			e.resyncAt = time.Time{}
		}
		e.mu.Unlock()
		e.wake()
		return counterAt(t, e) == 5
	}, "the resume never closed the gap")
	if n := r.reg.Snapshot().Counters["edge.push_resyncs"]; n == 0 {
		t.Error("edge.push_resyncs never counted the resume")
	}
	w.checkClean(t)
}

// TestPushResumeWithoutCut: an edge subscribed while the DC's stable cut was
// still zero, so it holds a position but no cut, and the first frame that
// carries transactions — and the first non-zero cut — never reaches it. Every
// later frame leaves a gap; the edge resumes from its cursor, not with a
// plain subscribe, which would leave it at the frontier with nothing sent.
func TestPushResumeWithoutCut(t *testing.T) {
	var dropped atomic.Bool
	r := newPushRig(t, 1, func(nw transport.Network) transport.Network {
		return inboundFilter{Network: nw, drop: func(msg any) bool {
			var txs int
			switch m := msg.(type) {
			case wire.PushTxs:
				txs = len(m.Txs)
			case wire.TreePush:
				txs = len(m.Txs)
			}
			return txs > 0 && dropped.CompareAndSwap(false, true)
		}}
	})
	e := r.edges[0]
	if s := e.StableVector(); len(s) != 0 {
		t.Fatalf("the edge holds cut %v before any commit, want none", s)
	}
	// Progress is watched through Hooks.Push, not read: a read would miss the
	// cache, and the fetch re-sends the stream above the served cut.
	w := watchPushes(e, &r.log)
	commitAt(t, r.d, &r.log, 1)
	waitFor(t, 2*time.Second, dropped.Load, "no frame carried the first commit")
	commitAt(t, r.d, &r.log, 2)
	waitFor(t, 3*time.Second, func() bool { return w.count() == 3 }, "the edge never recovered the dropped frame")
	w.checkClean(t)
}

// TestTreeSilentRootSurvivorsResume: the subtree root swallows the frames the
// DC hands it — the network accepted them, nothing errors, and no later frame
// reveals a gap; the children just hear nothing. Each resumes on its own once
// the stream has been silent for resyncAfter, converges, and the subtree
// re-forms without the dead relay.
func TestTreeSilentRootSurvivorsResume(t *testing.T) {
	t.Parallel()
	var dead atomic.Bool
	r := newPushRig(t, 5, func(nw transport.Network) transport.Network {
		// Once dead is set, the root swallows every TreePush: a relay that
		// died holding the frame.
		return inboundFilter{Network: nw, drop: func(msg any) bool {
			_, tree := msg.(wire.TreePush)
			return tree && dead.Load()
		}}
	})
	root, survivors := r.edges[0], r.edges[1:]
	commitAt(t, r.d, &r.log, 2)
	waitFor(t, 2*time.Second, func() bool {
		for _, e := range r.edges {
			if counterAt(t, e) != 2 {
				return false
			}
		}
		return true
	}, "warm-up commits never propagated")
	watches := make([]*pushWatch, len(survivors))
	for i, e := range survivors {
		watches[i] = watchPushes(e, &r.log)
	}

	dead.Store(true)
	commitAt(t, r.d, &r.log, 5)
	waitFor(t, 2*resyncAfter, func() bool {
		for _, e := range survivors {
			if counterAt(t, e) != 7 {
				return false
			}
		}
		return true
	}, "survivors did not converge within 2 × resyncAfter of their relay going silent")
	topo := r.d.TreeTopology()
	if left := topo[root.Name()]; len(left) != 0 {
		t.Errorf("the silent relay still has children %v", left)
	}
	placed := 0
	for rt, children := range topo {
		if rt != root.Name() {
			placed += 1 + len(children)
		}
	}
	if placed != len(survivors) {
		t.Errorf("topology %v: want all %d survivors in subtrees without %s", topo, len(survivors), root.Name())
	}
	if n := r.reg.Snapshot().Counters["edge.push_resyncs"]; n < int64(len(survivors)) {
		t.Errorf("edge.push_resyncs = %d, want at least one per survivor", n)
	}
	// Delivery goes on through the re-formed subtree.
	commitAt(t, r.d, &r.log, 1)
	waitFor(t, 2*time.Second, func() bool {
		for _, e := range survivors {
			if counterAt(t, e) != 8 {
				return false
			}
		}
		return true
	}, "the re-formed subtree never delivered")
	for _, w := range watches {
		w.checkClean(t)
	}
}

// TestResumeAcrossDCRestart: the DC restarts from its WAL with a new log
// generation and no subscriptions. An edge still holding a cursor from the
// previous incarnation hears nothing, resumes, is told by the ack where its
// stable cut puts it in the new log, and receives only what it is missing —
// not the log from index zero.
func TestResumeAcrossDCRestart(t *testing.T) {
	t.Parallel()
	net := simnet.New(simnet.Config{})
	t.Cleanup(net.Close)
	dir := t.TempDir()
	d := singleDC(t, net, dir, nil)
	e := New(net.Transport(), Config{Name: "edgeA", Actor: "edgeA", DC: "dc0", RetryInterval: 5 * time.Millisecond})
	t.Cleanup(e.Close)
	if err := e.Connect(); err != nil {
		t.Fatal(err)
	}
	if err := e.AddInterest(xID); err != nil {
		t.Fatal(err)
	}
	var log commitLog
	commitAt(t, d, &log, 20)
	waitFor(t, 2*time.Second, func() bool { return counterAt(t, e) == 20 }, "pre-restart commits never arrived")
	e.mu.Lock()
	old := e.push
	e.mu.Unlock()

	d.Close()
	d = singleDC(t, net, dir, nil)
	t.Cleanup(d.Close)
	if d.LogLen() != 20 {
		t.Fatalf("recovered log holds %d transactions, want 20", d.LogLen())
	}
	w := watchPushes(e, &log)
	commitAt(t, d, &log, 3)
	waitFor(t, 2*resyncAfter, func() bool { return counterAt(t, e) == 23 }, "the edge never converged on the restarted DC")

	e.mu.Lock()
	now := e.push
	e.mu.Unlock()
	if now.Gen == old.Gen || now.Gen == 0 {
		t.Errorf("cursor generation %d → %d across the restart, want a new non-zero one", old.Gen, now.Gen)
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	for _, f := range w.frames {
		if f.Lo < 20 {
			t.Errorf("frame [%d,%d) replays the log from before the edge's cut", f.Lo, f.Hi)
		}
	}
	if len(w.seen) != 3 {
		t.Errorf("%d transactions integrated after the restart, want the 3 new ones", len(w.seen))
	}
	for _, v := range w.violations {
		t.Error(v)
	}
}
