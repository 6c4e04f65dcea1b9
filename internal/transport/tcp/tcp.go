// Package tcp implements transport.Network over real TCP sockets: a mesh of
// colony processes, each hosting one or more named nodes, exchanging
// length-prefixed binary frames (internal/wire codec). It is the deployment
// substrate behind colony-server's -listen/-peers mode; tests and benchmarks
// keep running on simnet behind the same transport seam.
//
// # Wire format
//
// Every connection opens with a handshake, each side writing immediately and
// then reading the peer's hello:
//
//	magic "CLNY" | uvarint version (=2) | uvarint feature bits | string name
//
// Feature bit 0 declares the v1 binary codec; a peer that lacks it (or speaks
// another version) is disconnected. After the handshake the stream is a
// sequence of frames:
//
//	uvarint frameLen | kind byte | string src | string dst | [uvarint callID] | msg bytes
//
// kind is send (0), call (1) or reply (2); callID is present for call and
// reply. msg bytes are the remainder of the frame, encoded by
// wire.EncodeMessage — the frame is already length-delimited, so the body
// needs no prefix of its own and the read path hands the codec a zero-copy
// subslice of the frame buffer.
//
// # Routing
//
// Send(to) resolves the destination in order: a node registered locally
// (loopback short-circuit, no encoding — this is how in-process sessions keep
// using closures like wire.MigratedTx), then the static peer table
// (name → addr, dialing on first use), then routes learned from inbound
// frames (a peer that contacted us is reachable on its own connection even if
// we have no address for it — how replies and push frames reach edge
// processes behind one listener). Connections are shared per address and
// re-dialed lazily after failure; the DC layers' heartbeats and anti-entropy
// make lazy re-dial self-healing.
//
// # Backpressure
//
// Each connection has a bounded outbound frame queue and each local node a
// bounded inbox. Send never blocks: a full queue fails fast with
// transport.ErrBackpressure and the caller falls back to its repair path.
// Inbound remote frames, by contrast, block the connection's read loop when a
// node's inbox is full, so backpressure propagates to the sender through TCP
// flow control instead of dropping acknowledged frames.
package tcp

import (
	"bufio"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"colony/internal/bin"
	"colony/internal/obs"
	"colony/internal/transport"
	"colony/internal/wire"
)

// Protocol constants. Version is bumped for incompatible changes to the
// framing or to the layout of an existing wire message, so a mixed-version
// mesh is refused at the handshake instead of mis-decoding; new message types
// ride on new wire tags instead. Version 2: push frames carry their log
// range, subscribes and their acks a stream position; tag 17 is retired.
const (
	magic       = "CLNY"
	version     = 2
	featCodecV1 = 1 << 0

	kindSend  = 0
	kindCall  = 1
	kindReply = 2

	maxFrame         = 64 << 20 // hard cap on a single frame, corrupt-length guard
	maxPooledBuf     = 1 << 20  // don't keep giant one-off buffers alive in the pool
	handshakeTimeout = 5 * time.Second
	dialTimeout      = 2 * time.Second // bounds connection establishment
	outboxDepth      = 1024            // per-connection outbound frame queue
)

// Mesh errors. Loss in flight is still silent (a frame queued on a
// connection that later breaks is simply gone); these report local refusal.
var (
	// ErrClosed reports an operation on a closed mesh.
	ErrClosed = errors.New("tcp: transport closed")
	// ErrUnknownPeer reports a destination that is neither a local node, a
	// configured peer, nor a learned route.
	ErrUnknownPeer = errors.New("tcp: no route to peer")
	// ErrPeerDown reports a connection that died between lookup and enqueue;
	// the next send re-dials.
	ErrPeerDown = errors.New("tcp: connection down")
)

// Config parameterises a Mesh.
type Config struct {
	// Name identifies this process in handshakes (diagnostics and route
	// learning). Defaults to the listen address.
	Name string
	// Listen is the TCP address to accept peers on ("127.0.0.1:0" picks a
	// free port — read it back with Addr). Empty means dial-only.
	Listen string
	// Peers maps node names to TCP addresses. Extend at runtime with
	// SetPeer.
	Peers map[string]string
	// Obs receives net.sent/net.delivered/net.dropped counters (and their
	// _units variants) compatible with simnet's. Nil disables metrics.
	Obs *obs.Registry
	// InboxDepth is the per-node inbound queue (default 4096).
	InboxDepth int
	// Deprecated: FlushDelay is ignored; the write loop flushes as soon as
	// its queue drains.
	FlushDelay time.Duration
}

// Mesh is a TCP transport endpoint hosting this process's nodes. It
// implements transport.Network.
type Mesh struct {
	cfg  Config
	ln   net.Listener
	done chan struct{}
	wg   sync.WaitGroup

	mu      sync.Mutex
	closed  bool
	nodes   map[string]*node  // local endpoints
	peers   map[string]string // static routes: node name -> addr
	conns   map[string]*conn  // dialed, keyed by addr
	routes  map[string]*conn  // learned: node/process name -> conn
	live    map[*conn]bool    // every open conn, incl. inbound duplicates
	pending map[uint64]chan any
	callSeq uint64
}

var (
	_ transport.Network = (*Mesh)(nil)
	_ transport.Conn    = (*node)(nil)
)

// New starts a mesh: the listener (if Listen is set) is bound before New
// returns, so Addr is immediately valid even with ":0".
func New(cfg Config) (*Mesh, error) {
	m := &Mesh{
		cfg:     cfg,
		done:    make(chan struct{}),
		nodes:   make(map[string]*node),
		peers:   make(map[string]string, len(cfg.Peers)),
		conns:   make(map[string]*conn),
		routes:  make(map[string]*conn),
		live:    make(map[*conn]bool),
		pending: make(map[uint64]chan any),
	}
	for name, addr := range cfg.Peers {
		m.peers[name] = addr
	}
	if cfg.Listen != "" {
		ln, err := net.Listen("tcp", cfg.Listen)
		if err != nil {
			return nil, fmt.Errorf("tcp: listen %s: %w", cfg.Listen, err)
		}
		m.ln = ln
		if m.cfg.Name == "" {
			m.cfg.Name = ln.Addr().String()
		}
		m.wg.Add(1)
		go m.acceptLoop()
	}
	return m, nil
}

// Addr returns the bound listen address ("" when dial-only).
func (m *Mesh) Addr() string {
	if m.ln == nil {
		return ""
	}
	return m.ln.Addr().String()
}

// SetPeer adds or replaces a static route. Used when peer addresses are only
// known after their listeners bind (":0" in tests).
func (m *Mesh) SetPeer(name, addr string) {
	m.mu.Lock()
	m.peers[name] = addr
	m.mu.Unlock()
}

// AddNode implements transport.Network.
func (m *Mesh) AddNode(name string, h transport.Handler) transport.Conn {
	nd := &node{
		m:     m,
		name:  name,
		h:     h,
		inbox: make(chan inbound, m.inboxDepth()),
		done:  make(chan struct{}),
	}
	m.mu.Lock()
	if old := m.nodes[name]; old != nil {
		old.stop()
	}
	m.nodes[name] = nd
	m.mu.Unlock()
	m.wg.Add(1)
	go nd.run()
	return nd
}

// RemoveNode implements transport.Network.
func (m *Mesh) RemoveNode(name string) {
	m.mu.Lock()
	nd := m.nodes[name]
	delete(m.nodes, name)
	m.mu.Unlock()
	if nd != nil {
		nd.stop()
	}
}

// Close shuts the mesh down: listener, all connections, all node
// dispatchers. In-flight frames are dropped (loss is silent by contract).
func (m *Mesh) Close() error {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return nil
	}
	m.closed = true
	// Snapshot from the live set, not conns+routes: an inbound connection
	// whose peer already had a route (both sides dialed each other at once)
	// is in neither map, and its loops must still be torn down.
	conns := make([]*conn, 0, len(m.live))
	for c := range m.live {
		conns = append(conns, c)
	}
	nodes := make([]*node, 0, len(m.nodes))
	for _, nd := range m.nodes {
		nodes = append(nodes, nd)
	}
	m.mu.Unlock()

	close(m.done)
	if m.ln != nil {
		m.ln.Close()
	}
	for _, c := range conns {
		c.close()
	}
	for _, nd := range nodes {
		nd.stop()
	}
	m.wg.Wait()
	return nil
}

func (m *Mesh) inboxDepth() int {
	if m.cfg.InboxDepth > 0 {
		return m.cfg.InboxDepth
	}
	return 4096
}

func (m *Mesh) count(name string, n int64) {
	if m.cfg.Obs != nil {
		m.cfg.Obs.Counter(name).Add(n)
	}
}

// localNode returns the locally registered endpoint for name, if any.
func (m *Mesh) localNode(name string) *node {
	m.mu.Lock()
	nd := m.nodes[name]
	m.mu.Unlock()
	return nd
}

// connFor resolves a remote destination to a live connection, dialing the
// static peer address on first use. Learned routes win over dialing: if the
// destination already reached us on some connection, reuse it.
func (m *Mesh) connFor(to string) (*conn, error) {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return nil, ErrClosed
	}
	if c := m.routes[to]; c != nil {
		m.mu.Unlock()
		return c, nil
	}
	addr, known := m.peers[to]
	if !known {
		m.mu.Unlock()
		return nil, fmt.Errorf("%w: %q", ErrUnknownPeer, to)
	}
	if c := m.conns[addr]; c != nil {
		m.mu.Unlock()
		return c, nil
	}
	m.mu.Unlock()

	nc, err := net.DialTimeout("tcp", addr, dialTimeout)
	if err != nil {
		return nil, fmt.Errorf("tcp: dial %s (%s): %w", to, addr, err)
	}
	peer, br, err := m.handshake(nc)
	if err != nil {
		nc.Close()
		return nil, fmt.Errorf("tcp: handshake %s (%s): %w", to, addr, err)
	}

	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		nc.Close()
		return nil, ErrClosed
	}
	if c := m.conns[addr]; c != nil { // lost a concurrent dial race
		m.mu.Unlock()
		nc.Close()
		return c, nil
	}
	c := m.newConnLocked(nc, br, addr, peer)
	m.mu.Unlock()
	return c, nil
}

// newConnLocked registers a handshaken connection and starts its loops.
// Caller holds m.mu. br is the handshake's reader, carried over so frame
// bytes the peer pipelined behind its hello are not lost.
func (m *Mesh) newConnLocked(nc net.Conn, br *bufio.Reader, addr, peer string) *conn {
	c := &conn{
		m:      m,
		c:      nc,
		br:     br,
		peer:   peer,
		addr:   addr,
		outbox: make(chan frame, outboxDepth),
		done:   make(chan struct{}),
	}
	m.live[c] = true
	if addr != "" {
		m.conns[addr] = c
	}
	if peer != "" && m.routes[peer] == nil {
		m.routes[peer] = c
	}
	m.wg.Add(2)
	go c.readLoop()
	go c.writeLoop()
	return c
}

func (m *Mesh) acceptLoop() {
	defer m.wg.Done()
	for {
		nc, err := m.ln.Accept()
		if err != nil {
			select {
			case <-m.done:
				return
			default:
			}
			// Transient accept error (or listener closed during Close's
			// window before done is visible): back off briefly.
			select {
			case <-m.done:
				return
			case <-time.After(10 * time.Millisecond):
			}
			continue
		}
		m.wg.Add(1)
		go func() {
			defer m.wg.Done()
			peer, br, err := m.handshake(nc)
			if err != nil {
				m.count("net.handshake_errors", 1)
				nc.Close()
				return
			}
			m.mu.Lock()
			if m.closed {
				m.mu.Unlock()
				nc.Close()
				return
			}
			m.newConnLocked(nc, br, "", peer)
			m.mu.Unlock()
		}()
	}
}

// handshake exchanges hellos (write first, then read — both sides do the
// same; the few bytes fit any socket buffer, so there is no deadlock). The
// returned reader is handed to the connection's read loop: the peer may
// legitimately pipeline frames right behind its hello, and those bytes land
// in this buffer.
func (m *Mesh) handshake(nc net.Conn) (peer string, br *bufio.Reader, err error) {
	nc.SetDeadline(time.Now().Add(handshakeTimeout))
	defer nc.SetDeadline(time.Time{})

	hello := append(getBuf(), magic...)
	hello = bin.AppendUvarint(hello, version)
	hello = bin.AppendUvarint(hello, featCodecV1)
	hello = bin.AppendString(hello, m.cfg.Name)
	_, werr := nc.Write(hello)
	putBuf(hello)
	if werr != nil {
		return "", nil, werr
	}

	br = bufio.NewReaderSize(nc, 64<<10)
	var mg [len(magic)]byte
	if _, err := io.ReadFull(br, mg[:]); err != nil {
		return "", nil, err
	}
	if string(mg[:]) != magic {
		return "", nil, errors.New("bad magic")
	}
	ver, err := binary.ReadUvarint(br)
	if err != nil {
		return "", nil, err
	}
	if ver != version {
		return "", nil, fmt.Errorf("protocol version %d, want %d", ver, version)
	}
	feats, err := binary.ReadUvarint(br)
	if err != nil {
		return "", nil, err
	}
	if feats&featCodecV1 == 0 {
		return "", nil, errors.New("peer lacks codec v1")
	}
	nameLen, err := binary.ReadUvarint(br)
	if err != nil {
		return "", nil, err
	}
	if nameLen > 4096 {
		return "", nil, errors.New("peer name too long")
	}
	nameBuf := make([]byte, nameLen)
	if _, err := io.ReadFull(br, nameBuf); err != nil {
		return "", nil, err
	}
	return string(nameBuf), br, nil
}

func (m *Mesh) nextCall() uint64 {
	m.mu.Lock()
	m.callSeq++
	id := m.callSeq
	m.mu.Unlock()
	return id
}

func (m *Mesh) registerCall(id uint64, ch chan any) {
	m.mu.Lock()
	m.pending[id] = ch
	m.mu.Unlock()
}

func (m *Mesh) dropCall(id uint64) {
	m.mu.Lock()
	delete(m.pending, id)
	m.mu.Unlock()
}

func (m *Mesh) completeCall(id uint64, v any) {
	m.mu.Lock()
	ch := m.pending[id]
	delete(m.pending, id)
	m.mu.Unlock()
	if ch != nil {
		ch <- v // cap 1, single completer: never blocks
	}
}

// learnRoute remembers that src is reachable on c (first writer wins; dead
// routes are removed by conn.close, so a reconnecting peer re-learns).
func (m *Mesh) learnRoute(src string, c *conn) {
	m.mu.Lock()
	if m.routes[src] == nil {
		m.routes[src] = c
	}
	m.mu.Unlock()
}

// ---- local endpoints -------------------------------------------------------

// inbound is one queued delivery for a local node. reply is non-nil when the
// message arrived as a call.
type inbound struct {
	from  string
	msg   any
	units int
	reply func(any)
}

// node is a local endpoint; it implements transport.Conn. All inbound
// traffic — loopback and remote — funnels through one dispatcher goroutine,
// which gives the FIFO-per-sender delivery the transport contract requires
// and keeps handler execution off connection read loops.
type node struct {
	m        *Mesh
	name     string
	h        transport.Handler
	inbox    chan inbound
	done     chan struct{}
	stopOnce sync.Once
}

func (nd *node) stop() {
	nd.stopOnce.Do(func() { close(nd.done) })
}

func (nd *node) run() {
	defer nd.m.wg.Done()
	for {
		select {
		case in := <-nd.inbox:
			var reply any
			if nd.h != nil {
				reply = nd.h(in.from, in.msg)
			}
			nd.m.count("net.delivered", 1)
			nd.m.count("net.delivered_units", int64(in.units))
			if in.reply != nil {
				transport.Reply(reply, in.reply)
			}
		case <-nd.done:
			return
		}
	}
}

// enqueue is the non-blocking path used by local senders: a full inbox is
// local refusal (ErrBackpressure), mirroring a full connection outbox.
func (nd *node) enqueue(in inbound) error {
	select {
	case <-nd.m.done:
		return ErrClosed
	default:
	}
	select {
	case <-nd.done:
		return fmt.Errorf("%w: %q", ErrUnknownPeer, nd.name)
	default:
	}
	select {
	case nd.inbox <- in:
		return nil
	default:
		nd.m.count("net.dropped", 1)
		return transport.ErrBackpressure
	}
}

// enqueueBlocking is the remote inbound path: the connection read loop waits
// for inbox space, so backpressure reaches the sender via TCP flow control.
func (nd *node) enqueueBlocking(in inbound, connDone chan struct{}) {
	select {
	case nd.inbox <- in:
	case <-nd.done:
	case <-connDone:
	}
}

// Name implements transport.Conn.
func (nd *node) Name() string { return nd.name }

// Send implements transport.Conn. Local destinations short-circuit without
// encoding; remote ones are encoded once and queued on the peer connection.
func (nd *node) Send(to string, msg any) error {
	if ln := nd.m.localNode(to); ln != nil {
		err := nd.m.sendLocal(nd.name, ln, msg, nil)
		if err == nil {
			nd.m.count("net.sent", 1)
			nd.m.count("net.sent_units", int64(unitsOf(msg)))
		}
		return err
	}
	c, err := nd.m.connFor(to)
	if err != nil {
		return err
	}
	body, err := encodeBody(msg)
	if err != nil {
		return err
	}
	hdr := appendHeader(getBuf(), kindSend, nd.name, to, 0)
	if err := c.enqueue(frame{hdr: hdr, body: body}); err != nil {
		return err
	}
	nd.m.count("net.sent", 1)
	nd.m.count("net.sent_units", int64(unitsOf(msg)))
	return nil
}

// SendMulti implements transport.Conn: one encode, one queue pass per
// destination, the encoded body shared across frames by refcount.
func (nd *node) SendMulti(to []string, msg any) []error {
	if len(to) == 0 {
		return nil
	}
	m := nd.m

	// Pass 1: resolve destinations so the shared body's refcount can be
	// fixed before any frame is queued.
	locals := make([]*node, len(to))
	conns := make([]*conn, len(to))
	errs := make([]error, len(to))
	failed := false
	remote := 0
	for i, dst := range to {
		if ln := m.localNode(dst); ln != nil {
			locals[i] = ln
			continue
		}
		c, err := m.connFor(dst)
		if err != nil {
			errs[i] = err
			failed = true
			continue
		}
		conns[i] = c
		remote++
	}

	var body []byte
	var refs *atomic.Int32
	if remote > 0 {
		b, err := encodeBody(msg)
		if err != nil {
			for i := range to {
				if conns[i] != nil {
					conns[i] = nil
					errs[i] = err
					failed = true
				}
			}
		} else {
			body = b
			refs = new(atomic.Int32)
			refs.Store(int32(remote))
		}
	}

	units := int64(unitsOf(msg))
	for i, dst := range to {
		switch {
		case locals[i] != nil:
			if err := m.sendLocal(nd.name, locals[i], msg, nil); err != nil {
				errs[i] = err
				failed = true
			} else {
				m.count("net.sent", 1)
				m.count("net.sent_units", units)
			}
		case conns[i] != nil:
			hdr := appendHeader(getBuf(), kindSend, nd.name, dst, 0)
			f := frame{hdr: hdr, body: body, refs: refs}
			if err := conns[i].enqueue(f); err != nil {
				errs[i] = err
				failed = true
			} else {
				m.count("net.sent", 1)
				m.count("net.sent_units", units)
			}
		}
	}
	if !failed {
		return nil
	}
	return errs
}

// SendEach implements transport.Conn. Unlike SendMulti there is no shared
// encoded body to refcount — every message is its own envelope — so each
// pair takes the plain Send path; the per-conn write loop still coalesces
// whatever of the burst queues up behind one flush into the next.
func (nd *node) SendEach(to []string, msgs []any) []error {
	var errs []error
	for i, dst := range to {
		if err := nd.Send(dst, msgs[i]); err != nil {
			if errs == nil {
				errs = make([]error, len(to))
			}
			errs[i] = err
		}
	}
	return errs
}

// Call implements transport.Conn.
func (nd *node) Call(ctx context.Context, to string, msg any) (any, error) {
	m := nd.m
	ch := make(chan any, 1)

	if ln := m.localNode(to); ln != nil {
		if err := m.sendLocal(nd.name, ln, msg, func(v any) { ch <- v }); err != nil {
			return nil, err
		}
		m.count("net.sent", 1)
		m.count("net.sent_units", int64(unitsOf(msg)))
		select {
		case v := <-ch:
			return v, nil
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-m.done:
			return nil, ErrClosed
		}
	}

	c, err := m.connFor(to)
	if err != nil {
		return nil, err
	}
	body, err := encodeBody(msg)
	if err != nil {
		return nil, err
	}
	id := m.nextCall()
	m.registerCall(id, ch)
	hdr := appendHeader(getBuf(), kindCall, nd.name, to, id)
	if err := c.enqueue(frame{hdr: hdr, body: body}); err != nil {
		m.dropCall(id)
		return nil, err
	}
	m.count("net.sent", 1)
	m.count("net.sent_units", int64(unitsOf(msg)))
	select {
	case v := <-ch:
		return v, nil
	case <-ctx.Done():
		m.dropCall(id)
		return nil, ctx.Err()
	case <-c.done:
		m.dropCall(id)
		return nil, ErrPeerDown
	case <-m.done:
		m.dropCall(id)
		return nil, ErrClosed
	}
}

// sendLocal queues a loopback delivery (no encoding: in-process messages may
// carry closures, e.g. wire.MigratedTx).
func (m *Mesh) sendLocal(from string, nd *node, msg any, reply func(any)) error {
	return nd.enqueue(inbound{from: from, msg: msg, units: unitsOf(msg), reply: reply})
}

// ---- connections -----------------------------------------------------------

// frame is one queued outbound envelope. hdr is always owned by the frame;
// body may be shared across a SendMulti fan-out, in which case refs counts
// the queues still holding it and the last writer recycles it.
type frame struct {
	hdr  []byte
	body []byte
	refs *atomic.Int32
}

// release recycles the frame's buffers after the last use.
func (f frame) release() {
	putBuf(f.hdr)
	if f.refs == nil {
		putBuf(f.body)
	} else if f.refs.Add(-1) == 0 {
		putBuf(f.body)
	}
}

// conn is one TCP connection after handshake. addr is non-empty for dialed
// connections (keyed in Mesh.conns); accepted connections are reached only
// via learned routes.
type conn struct {
	m         *Mesh
	c         net.Conn
	br        *bufio.Reader // carried over from the handshake
	peer      string
	addr      string
	outbox    chan frame
	done      chan struct{}
	closeOnce sync.Once
}

// close tears the connection down and unregisters it; the next send to any
// peer routed here re-dials.
func (c *conn) close() {
	c.closeOnce.Do(func() {
		close(c.done)
		c.c.Close()
		m := c.m
		m.mu.Lock()
		delete(m.live, c)
		if c.addr != "" && m.conns[c.addr] == c {
			delete(m.conns, c.addr)
		}
		for name, rc := range m.routes {
			if rc == c {
				delete(m.routes, name)
			}
		}
		m.mu.Unlock()
	})
}

// enqueue queues a frame for writing, failing fast when the outbox is full.
func (c *conn) enqueue(f frame) error {
	select {
	case <-c.done:
		f.release()
		return ErrPeerDown
	default:
	}
	select {
	case c.outbox <- f:
		return nil
	case <-c.done:
		f.release()
		return ErrPeerDown
	default:
		f.release()
		c.m.count("net.dropped", 1)
		return transport.ErrBackpressure
	}
}

// writeLoop writes queued frames and flushes as soon as the queue drains. A
// burst still coalesces: everything queued while one flush is in the kernel
// is drained into the buffer before the next, so the syscall count follows
// the arrival pattern rather than the frame count, and a lone frame never
// waits for a timer.
func (c *conn) writeLoop() {
	defer c.m.wg.Done()
	bw := bufio.NewWriterSize(c.c, 64<<10)
	var lenBuf [binary.MaxVarintLen64]byte
	write := func(f frame) bool {
		n := binary.PutUvarint(lenBuf[:], uint64(len(f.hdr)+len(f.body)))
		_, err := bw.Write(lenBuf[:n])
		if err == nil {
			_, err = bw.Write(f.hdr)
		}
		if err == nil {
			_, err = bw.Write(f.body)
		}
		f.release()
		return err == nil
	}
	// drain writes everything already queued without blocking.
	drain := func() bool {
		for {
			select {
			case f := <-c.outbox:
				if !write(f) {
					return false
				}
			default:
				return true
			}
		}
	}
	for {
		select {
		case f := <-c.outbox:
			if !write(f) || !drain() || bw.Flush() != nil {
				c.close()
				return
			}
			// net.flushes against net.sent: how many frames each write to
			// the socket carries.
			c.m.count("net.flushes", 1)
		case <-c.done:
			return
		}
	}
}

func (c *conn) readLoop() {
	defer c.m.wg.Done()
	defer c.close()
	br := c.br
	var payload []byte
	for {
		n, err := binary.ReadUvarint(br)
		if err != nil || n == 0 || n > maxFrame {
			return
		}
		if uint64(cap(payload)) < n {
			payload = make([]byte, n)
		}
		buf := payload[:n]
		if _, err := io.ReadFull(br, buf); err != nil {
			return
		}
		if !c.m.dispatchFrame(c, buf) {
			return
		}
	}
}

// dispatchFrame parses one inbound frame and routes it: sends and calls to
// the destination node's inbox (blocking — TCP flow control is the
// backpressure), replies to the pending-call table. Returns false on a
// malformed envelope (the stream can no longer be trusted).
func (m *Mesh) dispatchFrame(c *conn, payload []byte) bool {
	r := bin.NewReader(payload)
	kind := r.Byte()
	src := r.String()
	dst := r.String()
	var callID uint64
	if kind == kindCall || kind == kindReply {
		callID = r.Uvarint()
	}
	if r.Err() || kind > kindReply {
		m.count("net.frame_errors", 1)
		return false
	}
	body := payload[len(payload)-r.Remaining():]
	msg, err := wire.DecodeMessage(body)
	if err != nil {
		// The envelope framing is intact, so the stream stays in sync:
		// drop just this frame.
		m.count("net.decode_errors", 1)
		m.count("net.dropped", 1)
		return true
	}
	m.learnRoute(src, c)

	if kind == kindReply {
		m.completeCall(callID, normalizeAny(msg))
		return true
	}
	nd := m.localNode(dst)
	if nd == nil {
		m.count("net.dropped", 1)
		return true
	}
	in := inbound{from: src, msg: normalizeAny(msg), units: unitsOf(msg)}
	if kind == kindCall {
		id := callID
		in.reply = func(v any) {
			body, err := encodeBody(v)
			if err != nil {
				m.count("net.dropped", 1)
				return // unencodable reply: the caller times out
			}
			hdr := appendHeader(getBuf(), kindReply, dst, src, id)
			c.enqueue(frame{hdr: hdr, body: body}) // best effort
		}
	}
	nd.enqueueBlocking(in, c.done)
	return true
}

// ---- encoding helpers ------------------------------------------------------

// appendHeader writes the frame envelope (everything before the msg bytes).
func appendHeader(b []byte, kind byte, src, dst string, callID uint64) []byte {
	b = append(b, kind)
	b = bin.AppendString(b, src)
	b = bin.AppendString(b, dst)
	if kind != kindSend {
		b = bin.AppendUvarint(b, callID)
	}
	return b
}

// encodeBody encodes msg with the wire codec into a pooled buffer. Messages
// outside the wire protocol are refused with transport.ErrNotEncodable.
func encodeBody(msg any) ([]byte, error) {
	var wm wire.Message
	if msg != nil {
		var ok bool
		wm, ok = msg.(wire.Message)
		if !ok {
			return nil, fmt.Errorf("%w: %T", transport.ErrNotEncodable, msg)
		}
	}
	b, err := wire.EncodeMessage(getBuf(), wm)
	if err != nil {
		if errors.Is(err, wire.ErrNotEncodable) {
			return nil, fmt.Errorf("%w: %T", transport.ErrNotEncodable, msg)
		}
		return nil, err
	}
	return b, nil
}

// normalizeAny turns a nil wire.Message back into a plain nil any, so
// handlers and callers see the same "no message" they would on simnet.
func normalizeAny(m wire.Message) any {
	if m == nil {
		return nil
	}
	return m
}

// unitsOf mirrors simnet's batch accounting: wire.Message batches report
// their constituent count, everything else is one unit.
func unitsOf(msg any) int {
	if b, ok := msg.(interface{ Units() int }); ok {
		if n := b.Units(); n > 1 {
			return n
		}
	}
	return 1
}

// ---- buffer pool -----------------------------------------------------------

var bufPool sync.Pool // stores *[]byte

// getBuf returns a zero-length scratch buffer (possibly recycled).
func getBuf() []byte {
	if p, _ := bufPool.Get().(*[]byte); p != nil {
		return (*p)[:0]
	}
	return nil
}

// putBuf recycles a buffer unless it is trivially small or oversized.
func putBuf(b []byte) {
	if cap(b) == 0 || cap(b) > maxPooledBuf {
		return
	}
	bufPool.Put(&b)
}
