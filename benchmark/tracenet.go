package main

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"colony/internal/transport"
	"colony/internal/txn"
	"colony/internal/vclock"
	"colony/internal/wire"
)

// tracenet is the timing decorator around transport.Network/Conn/Handler.
// It measures the layers from outside: nothing in the program changes, the
// benchmark wraps the meshes it hands to dc.New, edge.New and group.NewParent.
//
// Pairing. The transport contract is FIFO per (sender, destination), so the
// k-th accepted send on a link is the k-th handler entry for that sender.
// Every accepted send appends {send time, tag} to its link's queue; the
// destination's handler wrapper pops the first entry with the message's tag
// (the head, unless two goroutines raced on the link). A locally refused
// send never enters the queue. The send time is stamped before the message
// is handed to the transport, so a transit time cannot be negative.
//
// Pairing is always on in a traced run; the recording switch gates the costly
// part (dot extraction, byte counting, span records) so that one run yields
// both a recorded and an unrecorded interval (trace.overhead_ratio).

type nodeClass uint8

const (
	classDC nodeClass = iota
	classEdge
	classGroup
	numClasses
)

const maxTag = 64 // wire tags are small append-only constants

// inv is one handler invocation: the span a layer's handler covers, with the
// send that caused it and, for a relayed push, the relay's own invocation.
type inv struct {
	from         string
	tag          wire.Tag
	sendT, entry int64
	exit         atomic.Int64
	parent       *inv
}

// callRec carries the callee's handler times back to the caller of a Call.
type callRec struct{ entry, exit atomic.Int64 }

type linkEntry struct {
	t      int64
	tag    wire.Tag
	parent *inv
	call   *callRec
}

// link is the send-time queue of one (sender, destination) pair.
type link struct {
	mu sync.Mutex
	q  []linkEntry
}

// pop removes and returns the oldest entry with the given tag.
func (l *link) pop(tag wire.Tag) (linkEntry, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for i := range l.q {
		if l.q[i].tag != tag {
			continue
		}
		e := l.q[i]
		if i == 0 {
			l.q[0] = linkEntry{}
			l.q = l.q[1:]
		} else {
			l.q = append(l.q[:i], l.q[i+1:]...)
		}
		return e, true
	}
	return linkEntry{}, false
}

// dropCall removes the entry of a Call that was refused locally.
func (l *link) dropCall(rec *callRec) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for i := len(l.q) - 1; i >= 0; i-- {
		if l.q[i].call == rec {
			l.q = append(l.q[:i], l.q[i+1:]...)
			return
		}
	}
}

type tagStat struct{ frames, units, bytes atomic.Int64 }

type handlerStat struct{ count, ns, units atomic.Int64 }

// commitTrace is the write path of one dot as the decorator saw it.
type commitTrace struct {
	dc         int // DC that accepted it
	callEnter  int64
	rec        *callRec
	callReturn atomic.Int64
	repl       [numDCs]struct{ send, entry, exit atomic.Int64 }
}

// epaxosTrace times one command at its proposer.
type epaxosTrace struct{ preAccept, commit atomic.Int64 }

type tracer struct {
	on atomic.Bool

	eps    sync.Map // node name -> *traceConn
	byRecv sync.Map // receiver index -> *traceConn

	traffic  [numClasses][numClasses][maxTag]tagStat
	handlers [numClasses][maxTag]handlerStat
	refused  atomic.Int64
	timeouts atomic.Int64
	unpaired atomic.Int64

	commits   sync.Map // vclock.Dot -> *commitTrace
	epaxos    sync.Map // command id -> *epaxosTrace
	commitRcv sync.Map // member name + "|" + command id -> handler entry (int64)

	// Inputs captured for the kernel benchmarks (bounded).
	capMu   sync.Mutex
	capTxs  []*txn.Transaction
	capRepl []wire.ReplBatch
	capPush []wire.PushTxs
	bufPool sync.Pool
}

const captureLimit = 256

func newTracer() *tracer { return &tracer{} }

// recPlan says when a traced run records: in every second slice of the
// latency window [from, to) — so that recorded and unrecorded operations
// alternate and a drift over the run does not pass for tracing overhead — and
// then continuously until tail, the end of the closed-loop phase.
type recPlan struct {
	from, to, tail int64
	slices         int
}

// on reports whether an operation due at t falls in a recorded slice of the
// latency window.
func (p recPlan) on(t int64) bool {
	if t < p.from || t >= p.to {
		return false
	}
	return (t-p.from)*int64(p.slices)/(p.to-p.from)%2 == 1
}

// follow switches recording according to the plan until stop is called; stop
// returns for how long recording was on.
func (t *tracer) follow(p recPlan) (stop func() int64) {
	quit, done := make(chan struct{}), make(chan struct{})
	var onNs, since int64
	set := func(on bool) {
		now := nowNs()
		if was := t.on.Swap(on); was && !on {
			onNs += now - since
		} else if !was && on {
			since = now
		}
	}
	go func() {
		defer close(done)
		defer set(false)
		for i := 1; i <= p.slices; i++ {
			at := p.from + (p.to-p.from)*int64(i)/int64(p.slices)
			select {
			case <-quit:
				return
			case <-time.After(time.Duration(at - nowNs())):
			}
			set(i%2 == 1 || (i == p.slices && p.tail > p.to))
		}
		select {
		case <-quit:
		case <-time.After(time.Duration(p.tail - nowNs())):
		}
	}()
	return func() int64 {
		close(quit)
		<-done
		return onNs
	}
}

// receiver tells the tracer which endpoint is receiver index r, so the
// tracker can ask for the invocation that is delivering to it. Nil-safe.
func (t *tracer) receiver(r int, name string) {
	if t == nil {
		return
	}
	if ep, ok := t.eps.Load(name); ok {
		t.byRecv.Store(r, ep)
	}
}

// current returns the handler invocation now running at receiver r (the
// tracker calls it from inside that receiver's Push hook).
func (t *tracer) current(r int) *inv {
	if ep, ok := t.byRecv.Load(r); ok {
		return ep.(*traceConn).cur.Load()
	}
	return nil
}

func (t *tracer) classOf(name string) nodeClass {
	if ep, ok := t.eps.Load(name); ok {
		return ep.(*traceConn).class
	}
	return classDC
}

// network decorates n; every node registered through it belongs to class.
func (t *tracer) network(n transport.Network, class nodeClass) transport.Network {
	return &traceNet{tr: t, inner: n, class: class}
}

type traceNet struct {
	tr    *tracer
	inner transport.Network
	class nodeClass
}

func (n *traceNet) AddNode(name string, h transport.Handler) transport.Conn {
	c := &traceConn{tr: n.tr, name: name, class: n.class, links: make(map[string]*link)}
	n.tr.eps.Store(name, c)
	var wrapped transport.Handler
	if h != nil {
		wrapped = c.handler(h)
	}
	c.inner = n.inner.AddNode(name, wrapped)
	return c
}

func (n *traceNet) RemoveNode(name string) {
	n.tr.eps.Delete(name)
	n.inner.RemoveNode(name)
}

// traceConn is one decorated endpoint.
type traceConn struct {
	tr    *tracer
	inner transport.Conn
	name  string
	class nodeClass
	cur   atomic.Pointer[inv] // invocation running in this node's handler

	multiMu sync.Mutex // orders multi-sends so their link locks nest one way
	lmu     sync.RWMutex
	links   map[string]*link
}

func (c *traceConn) Name() string { return c.name }

func (c *traceConn) link(to string) *link {
	c.lmu.RLock()
	l := c.links[to]
	c.lmu.RUnlock()
	if l != nil {
		return l
	}
	c.lmu.Lock()
	defer c.lmu.Unlock()
	if l = c.links[to]; l == nil {
		l = &link{}
		c.links[to] = l
	}
	return l
}

func tagOf(msg any) wire.Tag {
	if m, ok := msg.(wire.Message); ok && m != nil {
		if t := m.Tag(); t < maxTag {
			return t
		}
	}
	return wire.TagNone
}

// entryFor stamps a send. A plain push forwarded from inside a TreePush
// handler is a relay hop: it remembers the relay's invocation.
func (c *traceConn) entryFor(msg any, on bool) linkEntry {
	e := linkEntry{t: nowNs(), tag: tagOf(msg)}
	if on && e.tag == wire.TagPushTxs {
		if cur := c.cur.Load(); cur != nil && cur.tag == wire.TagTreePush {
			e.parent = cur
		}
	}
	return e
}

func (c *traceConn) Send(to string, msg any) error {
	on := c.tr.on.Load()
	l := c.link(to)
	e := c.entryFor(msg, on)
	l.mu.Lock()
	err := c.inner.Send(to, msg)
	if err == nil {
		l.q = append(l.q, e)
	}
	l.mu.Unlock()
	if err != nil {
		c.tr.refused.Add(1)
	} else if on {
		c.tr.sent(c, to, msg, e, 1)
	}
	return err
}

// lockLinks resolves the links of a multi-send and locks each once, in slice
// order; unlock releases them.
func (c *traceConn) lockLinks(to []string) (links []*link, unlock func()) {
	links = make([]*link, len(to))
	locked := make(map[*link]bool, len(to))
	for i, dst := range to {
		l := c.link(dst)
		links[i] = l
		if !locked[l] {
			locked[l] = true
			l.mu.Lock()
		}
	}
	return links, func() {
		for l := range locked {
			l.mu.Unlock()
		}
	}
}

func (c *traceConn) SendMulti(to []string, msg any) []error {
	if len(to) == 0 {
		return nil
	}
	on := c.tr.on.Load()
	e := c.entryFor(msg, on)
	c.multiMu.Lock()
	links, unlock := c.lockLinks(to)
	errs := c.inner.SendMulti(to, msg)
	accepted := 0
	for i, l := range links {
		if errs == nil || errs[i] == nil {
			l.q = append(l.q, e)
			accepted++
		}
	}
	unlock()
	c.multiMu.Unlock()
	c.tr.refused.Add(int64(len(to) - accepted))
	if on && accepted > 0 {
		c.tr.sent(c, to[0], msg, e, accepted)
	}
	return errs
}

func (c *traceConn) SendEach(to []string, msgs []any) []error {
	if len(to) == 0 {
		return nil
	}
	on := c.tr.on.Load()
	entries := make([]linkEntry, len(to))
	for i := range to {
		entries[i] = c.entryFor(msgs[i], on)
	}
	c.multiMu.Lock()
	links, unlock := c.lockLinks(to)
	errs := c.inner.SendEach(to, msgs)
	for i, l := range links {
		if errs == nil || errs[i] == nil {
			l.q = append(l.q, entries[i])
		} else {
			c.tr.refused.Add(1)
		}
	}
	unlock()
	c.multiMu.Unlock()
	if on {
		for i := range to {
			if errs == nil || errs[i] == nil {
				c.tr.sent(c, to[i], msgs[i], entries[i], 1)
			}
		}
	}
	return errs
}

func (c *traceConn) Call(ctx context.Context, to string, msg any) (any, error) {
	on := c.tr.on.Load()
	l := c.link(to)
	e := c.entryFor(msg, on)
	e.call = &callRec{}
	var ct *commitTrace
	if m, ok := msg.(wire.EdgeCommit); ok && on {
		// Registered before the call: the DC replicates the transaction
		// before its handler returns, and that send looks the dot up.
		ct = c.tr.commitCalled(m, to, e)
	}
	// Queue before calling: the callee's handler may run before Call returns.
	l.mu.Lock()
	l.q = append(l.q, e)
	l.mu.Unlock()
	reply, err := c.inner.Call(ctx, to, msg)
	switch {
	case err == nil:
		if ct != nil {
			ct.callReturn.Store(nowNs())
		}
	case errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled):
		c.tr.timeouts.Add(1) // sent, never answered: the entry pairs if it arrives
	default:
		c.tr.refused.Add(1)
		l.dropCall(e.call)
		return reply, err
	}
	if on {
		c.tr.sent(c, to, msg, e, 1)
	}
	return reply, err
}

// handler wraps the node's inbound handler.
func (c *traceConn) handler(h transport.Handler) transport.Handler {
	return func(from string, msg any) any {
		entry := nowNs()
		tag := tagOf(msg)
		var le linkEntry
		paired := false
		if src, ok := c.tr.eps.Load(from); ok {
			le, paired = src.(*traceConn).link(c.name).pop(tag)
		}
		on := c.tr.on.Load()
		if !on {
			reply := h(from, msg)
			if le.call != nil {
				le.call.entry.Store(entry)
				le.call.exit.Store(nowNs())
			}
			return reply
		}
		if !paired {
			c.tr.unpaired.Add(1)
		}
		iv := &inv{from: from, tag: tag, sendT: le.t, entry: entry, parent: le.parent}
		c.tr.received(c, msg, iv)
		c.cur.Store(iv)
		reply := h(from, msg)
		c.cur.Store(nil)
		exit := nowNs()
		iv.exit.Store(exit)
		if le.call != nil {
			le.call.entry.Store(entry)
			le.call.exit.Store(exit)
		}
		c.tr.handled(c, msg, iv)
		return reply
	}
}

func dcIndexOf(name string) int {
	if len(name) == 3 && name[:2] == "dc" && name[2] >= '0' && name[2] < '0'+numDCs {
		return int(name[2] - '0')
	}
	return -1
}

func unitsOf(msg any) int64 {
	if m, ok := msg.(wire.Message); ok && m != nil {
		return int64(m.Units())
	}
	return 1
}

// sent accounts one accepted message (copies fan-outs of the same message).
func (t *tracer) sent(c *traceConn, to string, msg any, e linkEntry, copies int) {
	dst := t.classOf(to)
	st := &t.traffic[c.class][dst][e.tag]
	st.frames.Add(int64(copies))
	st.units.Add(unitsOf(msg) * int64(copies))
	if c.class == classDC || dst == classDC {
		// Only hops that touch a DC cross a socket; edge-to-edge and
		// member-to-member hops stay inside one mesh and are never encoded.
		st.bytes.Add(int64(t.encodedLen(msg)) * int64(copies))
	}
	switch m := msg.(type) {
	case wire.ReplBatch:
		if peer := dcIndexOf(to); peer >= 0 {
			for _, tx := range m.Txs {
				if tx == nil {
					continue
				}
				if ct, ok := t.commits.Load(tx.Dot); ok {
					ct.(*commitTrace).repl[peer].send.CompareAndSwap(0, e.t)
				}
			}
		}
		t.capture(func() {
			if len(t.capRepl) < captureLimit/4 {
				t.capRepl = append(t.capRepl, m)
			}
		})
	case wire.PushTxs:
		if c.class == classDC && len(m.Txs) > 0 {
			t.capture(func() {
				if len(t.capPush) < captureLimit/4 {
					t.capPush = append(t.capPush, m)
				}
			})
		}
	case wire.EPaxosPreAccept:
		t.epaxosOf(m.Cmd.ID).preAccept.CompareAndSwap(0, e.t)
	case wire.EPaxosCommit:
		t.epaxosOf(m.Cmd.ID).commit.CompareAndSwap(0, e.t)
	}
}

func (t *tracer) epaxosOf(id string) *epaxosTrace {
	if v, ok := t.epaxos.Load(id); ok {
		return v.(*epaxosTrace)
	}
	v, _ := t.epaxos.LoadOrStore(id, &epaxosTrace{})
	return v.(*epaxosTrace)
}

func (t *tracer) capture(add func()) {
	t.capMu.Lock()
	add()
	t.capMu.Unlock()
}

func (t *tracer) encodedLen(msg any) int {
	m, ok := msg.(wire.Message)
	if !ok || m == nil {
		return 0
	}
	buf, _ := t.bufPool.Get().([]byte)
	out, err := wire.EncodeMessage(buf[:0], m)
	n := len(out)
	if err != nil {
		n = 0
	}
	if cap(out) <= 1<<20 {
		t.bufPool.Put(out[:0])
	}
	return n
}

// commitCalled starts the write-path record of an EdgeCommit about to be sent.
func (t *tracer) commitCalled(m wire.EdgeCommit, to string, e linkEntry) *commitTrace {
	ct := &commitTrace{dc: dcIndexOf(to), callEnter: e.t, rec: e.call}
	t.commits.Store(m.Tx.Dot, ct)
	t.capture(func() {
		if len(t.capTxs) < captureLimit {
			t.capTxs = append(t.capTxs, m.Tx)
		}
	})
	return ct
}

// received runs at handler entry.
func (t *tracer) received(c *traceConn, msg any, iv *inv) {
	switch m := msg.(type) {
	case wire.ReplBatch:
		if self := dcIndexOf(c.name); self >= 0 {
			for _, tx := range m.Txs {
				if tx == nil {
					continue
				}
				if ct, ok := t.commits.Load(tx.Dot); ok {
					ct.(*commitTrace).repl[self].entry.CompareAndSwap(0, iv.entry)
				}
			}
		}
	case wire.EPaxosCommit:
		t.commitRcv.LoadOrStore(c.name+"|"+m.Cmd.ID, iv.entry)
	}
}

// handled runs at handler exit.
func (t *tracer) handled(c *traceConn, msg any, iv *inv) {
	hs := &t.handlers[c.class][iv.tag]
	hs.count.Add(1)
	exit := iv.exit.Load()
	hs.ns.Add(exit - iv.entry)
	hs.units.Add(unitsOf(msg))
	if m, ok := msg.(wire.ReplBatch); ok {
		if self := dcIndexOf(c.name); self >= 0 {
			for _, tx := range m.Txs {
				if tx == nil {
					continue
				}
				if ct, ok := t.commits.Load(tx.Dot); ok {
					ct.(*commitTrace).repl[self].exit.CompareAndSwap(0, exit)
				}
			}
		}
	}
}

func (t *tracer) commitOf(d vclock.Dot) *commitTrace {
	if v, ok := t.commits.Load(d); ok {
		return v.(*commitTrace)
	}
	return nil
}
