package main

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"colony/internal/edge"
	"colony/internal/txn"
	"colony/internal/vclock"
	"colony/internal/wire"
)

// epoch anchors every timestamp the benchmark takes; nowNs is monotonic.
var epoch = time.Now()

func nowNs() int64 { return int64(time.Since(epoch)) }

// phase says which part of a run an operation belongs to.
type phase uint8

const (
	phWarm  phase = iota // discarded
	phPaced              // open loop: latency metrics
	phSat                // closed loop: throughput metrics
)

// recvSet is a fixed set of receiver indices: the edges a DC will push a
// transaction to, which the DC decides by bucket signature.
type recvSet struct {
	bits []uint64
	n    int
}

func newRecvSet(nRecv int, members []int) *recvSet {
	s := &recvSet{bits: make([]uint64, (nRecv+63)/64)}
	for _, r := range members {
		if !s.has(r) {
			s.bits[r/64] |= 1 << (r % 64)
			s.n++
		}
	}
	return s
}

func (s *recvSet) has(r int) bool { return s.bits[r/64]&(1<<(r%64)) != 0 }

// op is one committed transaction followed from its due time to the last
// replica that must see it. Timestamps are nowNs values; 0 means not yet.
type op struct {
	w     *writer
	seq   uint64 // dot sequence, known once Commit returned
	phase phase
	// needStable makes K-stability at the origin part of completion (used
	// where no other edge is interested in the transaction).
	needStable bool

	due, commitStart, commitEnd int64

	ack, kstable, visible, gvisible, done atomic.Int64
	pvisible                              atomic.Int64 // traced group runs: visible at the sync point
	dcIdx                                 int
	ts                                    uint64

	recv       *recvSet
	got        []atomic.Uint64
	remaining  atomic.Int32 // interested edges that have not applied it yet
	gremaining atomic.Int32 // group members that have not seen it yet
	parts      atomic.Int32 // completion conditions outstanding

	last *inv // traced runs: handler invocation that made it visible everywhere
}

func dotOf(o *op) vclock.Dot { return vclock.Dot{Node: o.w.name, Seq: o.seq} }

// mark records that receiver r applied the op; false if it already had.
func (o *op) mark(r int) bool {
	w, bit := &o.got[r/64], uint64(1)<<(r%64)
	for {
		old := w.Load()
		if old&bit != 0 {
			return false
		}
		if w.CompareAndSwap(old, old|bit) {
			return true
		}
	}
}

// event is something that happened to a dot before its op was registered
// (Hooks.Ack can fire before Commit returns; so, in principle, can a push).
type event struct {
	deliver bool
	newer   bool
	r       int
	t       int64
	tx      *txn.Transaction
	ack     wire.EdgeCommitAck
}

// stableWatch follows acked ops until the watched node's K-stable cut covers
// their commit coordinate. Plain edges watch themselves; group members share
// their parent's (the sync point is the group's only DC connection).
type stableWatch struct {
	node *edge.Node
	n    atomic.Int32
	mu   sync.Mutex
	q    []*op
}

func (s *stableWatch) add(o *op) {
	s.mu.Lock()
	s.q = append(s.q, o)
	s.mu.Unlock()
	s.n.Add(1)
}

// check is called from the watched node's Ack and Push hooks.
func (s *stableWatch) check(t *tracker, now int64) {
	if s.n.Load() == 0 {
		return
	}
	sv := s.node.StableVector()
	s.mu.Lock()
	kept := s.q[:0]
	var stable []*op
	for _, o := range s.q {
		if sv.Get(o.dcIdx) >= o.ts {
			stable = append(stable, o)
		} else {
			kept = append(kept, o)
		}
	}
	s.q = kept
	s.mu.Unlock()
	s.n.Add(-int32(len(stable)))
	for _, o := range stable {
		o.kstable.Store(now)
		if o.needStable {
			t.partDone(o, now)
		}
	}
}

// writer is one committing edge.
type writer struct {
	idx     int
	name    string
	node    *edge.Node
	dc      int
	recvIdx int // this edge's receiver index, -1 if it receives nothing
	watch   *stableWatch
	unacked atomic.Int32
	open    atomic.Int32 // ops not complete yet (closed-loop windows)

	mu      sync.RWMutex
	ops     map[uint64]*op
	orphans map[uint64][]event
	byIndex []*op // group writers: commit order, appended before Commit
}

// tracker correlates commits, acks, stability and deliveries across edges.
type tracker struct {
	// writers is replaced, never written in place: edges that are already
	// subscribed receive pushes (the bootstrap transaction) while set-up is
	// still adding the writers that follow them.
	writers atomic.Pointer[map[string]*writer]
	wlist   []*writer
	nRecv   int
	lastSeq [][]uint64 // [receiver][writer] highest dot seq delivered
	tracing *tracer
	// check inspects a delivered transaction for workload-specific
	// violations (e.g. a chat post seen split); "" means fine.
	check func(r int, tx *txn.Transaction) string
	// wake is signalled whenever an op completes or is acked, for the
	// closed-loop generators.
	wake [2]chan struct{}

	outstanding atomic.Int64
	dupDeliver  atomic.Int64

	vmu        sync.Mutex
	violations []string
	nviol      int
	// anomalies are deliveries out of their writer's order. The program lets
	// one through now and then when the host stalls (a frame sent directly
	// overtakes an earlier one still on its way through a relay), so each
	// counts as a failed operation and not as a wrong result: the replicas
	// still have to converge on the model, which the end-of-run checks decide.
	anomalies []string
	nanom     int
}

func newTracker(nRecv int) *tracker {
	t := &tracker{nRecv: nRecv}
	t.writers.Store(&map[string]*writer{})
	for i := range t.wake {
		t.wake[i] = make(chan struct{}, 1)
	}
	return t
}

func (t *tracker) addWriter(node *edge.Node, dc, recvIdx int) *writer {
	return t.addNamedWriter(node.Name(), node, dc, recvIdx)
}

// addNamedWriter is addWriter for a writer whose node may be nil (the
// oracle's self-test feeds the tracker by hand).
func (t *tracker) addNamedWriter(name string, node *edge.Node, dc, recvIdx int) *writer {
	w := &writer{
		idx: len(t.wlist), name: name, node: node, dc: dc, recvIdx: recvIdx,
		watch: &stableWatch{node: node},
		ops:   make(map[uint64]*op), orphans: make(map[uint64][]event),
	}
	writers := make(map[string]*writer, len(t.wlist)+1)
	for _, prev := range t.wlist {
		writers[prev.name] = prev
	}
	writers[w.name] = w
	t.writers.Store(&writers)
	t.wlist = append(t.wlist, w)
	return w
}

// seal sizes the per-receiver tables; call once all writers are added.
func (t *tracker) seal() {
	t.lastSeq = make([][]uint64, t.nRecv)
	for r := range t.lastSeq {
		t.lastSeq[r] = make([]uint64, len(t.wlist))
	}
}

func (t *tracker) violate(format string, args ...any) {
	t.vmu.Lock()
	t.nviol++
	if len(t.violations) < 20 {
		t.violations = append(t.violations, fmt.Sprintf(format, args...))
	}
	t.vmu.Unlock()
}

func (t *tracker) anomaly(format string, args ...any) {
	t.vmu.Lock()
	t.nanom++
	if len(t.anomalies) < 20 {
		t.anomalies = append(t.anomalies, fmt.Sprintf(format, args...))
	}
	t.vmu.Unlock()
}

func (t *tracker) signal() {
	for _, ch := range t.wake {
		select {
		case ch <- struct{}{}:
		default:
		}
	}
}

// newOp prepares an op before its Commit; recv may be nil.
func (t *tracker) newOp(w *writer, ph phase, due int64, recv *recvSet, groupPeers int, needStable bool) *op {
	o := &op{w: w, phase: ph, due: due, recv: recv, needStable: needStable}
	parts := int32(1) // the ack
	if recv != nil {
		need := recv.n
		if w.recvIdx >= 0 && recv.has(w.recvIdx) {
			need--
		}
		if need > 0 {
			o.got = make([]atomic.Uint64, len(recv.bits))
			o.remaining.Store(int32(need))
			parts++
		}
	}
	if groupPeers > 0 {
		o.gremaining.Store(int32(groupPeers))
		parts++
	}
	if needStable {
		parts++
	}
	o.parts.Store(parts)
	w.unacked.Add(1)
	w.open.Add(1)
	t.outstanding.Add(1)
	return o
}

// abandon undoes newOp for a Commit that failed.
func (t *tracker) abandon(o *op) {
	o.w.unacked.Add(-1)
	o.w.open.Add(-1)
	t.outstanding.Add(-1)
}

// register binds the op to its dot once Commit has returned and replays
// whatever arrived for the dot in the meantime.
func (t *tracker) register(o *op, seq uint64) {
	w := o.w
	o.seq = seq
	w.mu.Lock()
	w.ops[seq] = o
	early := w.orphans[seq]
	delete(w.orphans, seq)
	w.mu.Unlock()
	for _, ev := range early {
		if ev.deliver {
			t.deliver(o, ev.r, ev.tx, ev.t, ev.newer)
		} else {
			t.acked(o, ev.ack, ev.t)
		}
	}
}

// find returns the op for seq, or parks ev until it is registered.
func (w *writer) find(seq uint64, ev event) *op {
	w.mu.RLock()
	o := w.ops[seq]
	w.mu.RUnlock()
	if o != nil {
		return o
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if o = w.ops[seq]; o != nil {
		return o
	}
	w.orphans[seq] = append(w.orphans[seq], ev)
	return nil
}

func (t *tracker) partDone(o *op, now int64) {
	if o.parts.Add(-1) == 0 {
		o.done.Store(now)
		o.w.open.Add(-1)
		t.outstanding.Add(-1)
		t.signal()
	}
}

// onAck handles a DC acknowledgement seen at the node that holds the DC
// connection (the writer itself, or its group's sync point).
func (t *tracker) onAck(a wire.EdgeCommitAck, now int64) {
	w := (*t.writers.Load())[a.Dot.Node]
	if w == nil {
		return
	}
	if o := w.find(a.Dot.Seq, event{ack: a, t: now}); o != nil {
		t.acked(o, a, now)
	}
}

func (t *tracker) acked(o *op, a wire.EdgeCommitAck, now int64) {
	if o.ack.Load() != 0 {
		return // re-ack of a duplicate send
	}
	o.dcIdx, o.ts = a.DCIndex, a.Ts
	o.ack.Store(now)
	o.w.unacked.Add(-1)
	o.w.watch.add(o)
	t.partDone(o, now)
	t.signal()
}

// delivered handles one transaction of a push applied at receiver r.
func (t *tracker) delivered(r int, tx *txn.Transaction, now int64) {
	w := (*t.writers.Load())[tx.Dot.Node]
	if w == nil || w.recvIdx == r {
		return // not a generator transaction, or the writer's own echo
	}
	last := &t.lastSeq[r][w.idx] // receiver r's handler is serial: no race
	newer := tx.Dot.Seq > *last
	if newer {
		*last = tx.Dot.Seq
	}
	if o := w.find(tx.Dot.Seq, event{deliver: true, newer: newer, r: r, t: now, tx: tx}); o != nil {
		t.deliver(o, r, tx, now, newer)
	}
}

func (t *tracker) deliver(o *op, r int, tx *txn.Transaction, now int64, newer bool) {
	if o.got == nil || !o.recv.has(r) {
		return
	}
	if !o.mark(r) {
		t.dupDeliver.Add(1) // a repair frame or resume replay; the store filters it
		return
	}
	if !newer {
		t.anomaly("order: receiver %d saw %s:%d for the first time after a later dot of the same writer", r, o.w.name, o.seq)
	}
	if t.check != nil {
		if msg := t.check(r, tx); msg != "" {
			t.violate("%s", msg)
		}
	}
	if o.remaining.Add(-1) == 0 {
		if t.tracing != nil {
			o.last = t.tracing.current(r)
		}
		o.visible.Store(now)
		t.partDone(o, now)
	}
}

// groupSeen records that a group member now sees the first upTo commits of
// writer w (read from w's sequence object inside OnUpdate). seen is the
// member's own cursor for w; calls for one member are serial.
func (t *tracker) groupSeen(w *writer, seen *int, upTo int, now int64) {
	if upTo <= *seen {
		return
	}
	w.mu.RLock()
	if upTo > len(w.byIndex) {
		upTo = len(w.byIndex)
	}
	ops := w.byIndex[*seen:upTo]
	w.mu.RUnlock()
	*seen = upTo
	for _, o := range ops {
		if o.gremaining.Add(-1) == 0 {
			o.gvisible.Store(now)
			t.partDone(o, now)
		}
	}
}

// edgeHooks builds the hook set of a plain edge: recvIdx >= 0 makes it a
// receiver, w != nil a writer.
func (t *tracker) edgeHooks(recvIdx int, w *writer) edge.Hooks {
	var h edge.Hooks
	if w != nil {
		h.Ack = func(a wire.EdgeCommitAck) {
			now := nowNs()
			t.onAck(a, now)
			w.watch.check(t, now)
		}
	}
	h.Push = func(m wire.PushTxs) {
		now := nowNs()
		if recvIdx >= 0 {
			for _, tx := range m.Txs {
				t.delivered(recvIdx, tx, now)
			}
		}
		if w != nil {
			w.watch.check(t, now)
		}
	}
	return h
}
