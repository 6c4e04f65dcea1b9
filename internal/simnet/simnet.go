// Package simnet is Colony's network substrate for local experiments. It
// replaces the paper's testbed machinery — Docker containers, 10 Gb/s
// switches shaped with Linux tc, RabbitMQ sockets between DCs and WebRTC
// between peers — with an in-process message bus whose links have
// configurable latency, jitter, loss and partitions.
//
// Delivery on a link is reliable (unless lossy) and FIFO, matching TCP and
// ordered WebRTC data channels. A global Scale factor shrinks all latencies
// proportionally so that the paper's minutes-long runs finish in seconds
// without changing who waits on whom.
package simnet

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"colony/internal/obs"
	"colony/internal/transport"
)

// Errors returned by the network.
var (
	ErrClosed      = errors.New("simnet: network closed")
	ErrUnknownNode = errors.New("simnet: unknown node")
	ErrUnreachable = errors.New("simnet: link down")
	ErrLost        = errors.New("simnet: message lost")
)

// Handler processes one incoming message on a node. The returned value is
// sent back to the caller for Call-style requests and discarded for Send; a
// *transport.Deferred is sent once it is resolved.
// Handlers run on delivery goroutines and may block; slow handlers delay
// later deliveries to the same node only if they share a link.
type Handler func(from string, msg any) any

// Batch is the structural subset of wire.Message the substrate cares about:
// the logical message count of a payload. Every wire message implements it
// (wire.Message embeds Units alongside the codec tag), so batch accounting
// needs no per-type knowledge here. The network counts net.sent/delivered
// per frame and net.sent_units / net.delivered_units per constituent unit,
// so experiments can report both frame savings and logical throughput.
type Batch interface {
	Units() int
}

// unitsOf returns the logical message count of a payload: Units() for wire
// messages, clamped to at least 1 (a pure control frame still crosses the
// network once), and 1 for payloads outside the wire protocol (test
// payloads, internal Call envelopes).
func unitsOf(msg any) int64 {
	if b, ok := msg.(Batch); ok {
		if n := b.Units(); n > 1 {
			return int64(n)
		}
	}
	return 1
}

// LinkConfig describes one directed link.
type LinkConfig struct {
	// Latency is the one-way delay; Jitter adds a uniform random extra in
	// [0, Jitter).
	Latency time.Duration
	Jitter  time.Duration
	// Loss is the probability in [0,1) that a message silently disappears.
	Loss float64
	// Down cuts the link: sends fail fast with ErrUnreachable, modelling a
	// broken TCP connection or a network partition.
	Down bool
}

// Config configures a Network.
type Config struct {
	// Default is the link configuration used for pairs without an override.
	Default LinkConfig
	// Scale multiplies every latency; 0 means 1.0 (real time). Experiments
	// use e.g. 0.1 to run 10× faster than the modelled network.
	Scale float64
	// Seed seeds the jitter/loss random source; 0 picks the current time.
	Seed int64
	// Obs attaches the deployment's observability registry: the network
	// records net.sent / net.delivered / net.dropped counters, a
	// net.in_flight gauge, and partition cut/heal events. Nil disables.
	Obs *obs.Registry
}

// Network is a simulated network of named nodes.
type Network struct {
	scale float64

	mu       sync.Mutex
	rng      *rand.Rand
	closed   bool
	nodes    map[string]*Node
	defaults LinkConfig
	links    map[[2]string]*link

	wg sync.WaitGroup

	sent      atomic.Int64
	delivered atomic.Int64
	dropped   atomic.Int64
	inFlight  atomic.Int64
	// Unit counters track logical messages: a coalesced batch frame counts
	// once in sent/delivered and len(batch) times here.
	sentUnits      atomic.Int64
	deliveredUnits atomic.Int64

	// Instrumentation handles (nil-safe no-ops without a registry).
	obsSent           *obs.Counter
	obsDelivered      *obs.Counter
	obsDropped        *obs.Counter
	obsSentUnits      *obs.Counter
	obsDeliveredUnits *obs.Counter
	bus               *obs.Bus
}

// link tracks the per-directed-pair state needed for FIFO delivery. Each
// link with traffic has a single worker goroutine draining its queue in
// order, so delivery order always matches send order.
type link struct {
	cfg LinkConfig
	// lastAt is the delivery deadline of the most recent message, so a
	// faster later message cannot overtake a slower earlier one.
	lastAt  time.Time
	queue   []delivery
	running bool
}

// delivery is one queued message on a link.
type delivery struct {
	at time.Time
	fn func()
}

// Node is one endpoint of the network.
type Node struct {
	name    string
	net     *Network
	handler Handler

	mu      sync.Mutex
	nextID  uint64
	pending map[uint64]chan any
}

// callMsg and replyMsg are internal envelopes for Call.
type (
	callMsg struct {
		id      uint64
		payload any
	}
	replyMsg struct {
		id      uint64
		payload any
	}
)

// New creates an empty network.
func New(cfg Config) *Network {
	scale := cfg.Scale
	if scale == 0 {
		scale = 1.0
	}
	seed := cfg.Seed
	if seed == 0 {
		seed = time.Now().UnixNano()
	}
	n := &Network{
		scale:    scale,
		rng:      rand.New(rand.NewSource(seed)),
		nodes:    make(map[string]*Node),
		defaults: cfg.Default,
		links:    make(map[[2]string]*link),
	}
	n.obsSent = cfg.Obs.Counter("net.sent")
	n.obsDelivered = cfg.Obs.Counter("net.delivered")
	n.obsDropped = cfg.Obs.Counter("net.dropped")
	n.obsSentUnits = cfg.Obs.Counter("net.sent_units")
	n.obsDeliveredUnits = cfg.Obs.Counter("net.delivered_units")
	n.bus = cfg.Obs.Events()
	cfg.Obs.RegisterGauge("net.in_flight", obs.AggSum, func() int64 {
		return n.inFlight.Load()
	})
	return n
}

// AddNode registers a node with its message handler and returns its handle.
// Adding a duplicate name replaces the previous handler (useful for node
// restarts in fault tests).
func (n *Network) AddNode(name string, h Handler) *Node {
	n.mu.Lock()
	defer n.mu.Unlock()
	node := &Node{name: name, net: n, handler: h, pending: make(map[uint64]chan any)}
	n.nodes[name] = node
	return node
}

// RemoveNode unregisters a node; in-flight messages to it are dropped.
func (n *Network) RemoveNode(name string) {
	n.mu.Lock()
	defer n.mu.Unlock()
	delete(n.nodes, name)
}

// Transport adapts the network to the pluggable transport seam: dc.New,
// edge.New and group.NewParent take a transport.Network, and tests hand them
// net.Transport() to keep running on the deterministic simulator. The
// adapter is stateless; call it as often as convenient.
func (n *Network) Transport() transport.Network { return simTransport{n} }

// simTransport lifts *Network to transport.Network. *Node satisfies
// transport.Conn directly (same method set); only AddNode needs the wrapper,
// because Go interface satisfaction cannot see through the concrete return
// type.
type simTransport struct{ n *Network }

func (s simTransport) AddNode(name string, h transport.Handler) transport.Conn {
	return s.n.AddNode(name, Handler(h))
}

func (s simTransport) RemoveNode(name string) { s.n.RemoveNode(name) }

// Compile-time checks: the simulator satisfies the transport seam.
var (
	_ transport.Conn    = (*Node)(nil)
	_ transport.Network = simTransport{}
)

// SetLink overrides the configuration of the directed link from → to.
func (n *Network) SetLink(from, to string, cfg LinkConfig) {
	n.mu.Lock()
	defer n.mu.Unlock()
	key := [2]string{from, to}
	l := n.links[key]
	if l == nil {
		l = &link{}
		n.links[key] = l
	}
	l.cfg = cfg
}

// SetBidirectional overrides both directions between a and b.
func (n *Network) SetBidirectional(a, b string, cfg LinkConfig) {
	n.SetLink(a, b, cfg)
	n.SetLink(b, a, cfg)
}

// Partition cuts both directions between a and b.
func (n *Network) Partition(a, b string) { n.setDown(a, b, true) }

// Heal restores both directions between a and b.
func (n *Network) Heal(a, b string) { n.setDown(a, b, false) }

func (n *Network) setDown(a, b string, down bool) {
	n.mu.Lock()
	for _, key := range [][2]string{{a, b}, {b, a}} {
		l := n.links[key]
		if l == nil {
			l = &link{cfg: n.defaults}
			n.links[key] = l
		}
		l.cfg.Down = down
	}
	n.mu.Unlock()
	if n.bus.Active() {
		ty := obs.EvPartitionCut
		if !down {
			ty = obs.EvPartitionHealed
		}
		n.bus.Publish(obs.Event{Type: ty, Node: a, Peer: b})
	}
}

// Isolate cuts every link to and from the node (node failure / going
// offline).
func (n *Network) Isolate(name string) { n.setIsolated(name, true) }

// Rejoin restores every link to and from the node.
func (n *Network) Rejoin(name string) { n.setIsolated(name, false) }

func (n *Network) setIsolated(name string, down bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	for other := range n.nodes {
		if other == name {
			continue
		}
		for _, key := range [][2]string{{name, other}, {other, name}} {
			l := n.links[key]
			if l == nil {
				l = &link{cfg: n.defaults}
				n.links[key] = l
			}
			l.cfg.Down = down
		}
	}
}

// Close shuts the network down and waits for in-flight deliveries.
func (n *Network) Close() {
	n.mu.Lock()
	n.closed = true
	n.mu.Unlock()
	n.wg.Wait()
}

// Stats returns the total messages sent and delivered so far.
func (n *Network) Stats() (sent, delivered int64) {
	return n.sent.Load(), n.delivered.Load()
}

// UnitStats returns the total logical messages sent and delivered so far:
// a coalesced batch frame counts len(batch) units (batch-delivery
// accounting), a plain message counts one.
func (n *Network) UnitStats() (sent, delivered int64) {
	return n.sentUnits.Load(), n.deliveredUnits.Load()
}

// Dropped returns the number of messages lost to lossy links so far.
func (n *Network) Dropped() int64 { return n.dropped.Load() }

// InFlight returns the number of messages scheduled but not yet delivered.
func (n *Network) InFlight() int64 { return n.inFlight.Load() }

// schedule computes the delivery deadline for one message on from→to and
// enqueues the delivery, or returns an error for down links; lost messages
// return errLostInternal so Call can fail fast while Send stays silent.
var errLostInternal = errors.New("simnet: lost (internal)")

func (n *Network) schedule(from, to string, units int64, deliver func(dst *Node)) error {
	n.mu.Lock()
	start, err := n.scheduleLocked(from, to, units, deliver)
	n.mu.Unlock()
	if start != nil {
		go n.runLink(start)
	}
	return err
}

// scheduleLocked is the core of schedule, with n.mu held by the caller. When
// the message activates an idle link, the link is returned (already marked
// running and counted in n.wg) and the caller must arrange for runLink to be
// invoked on it after releasing the lock — either on its own goroutine
// (schedule) or on a shared drain worker (SendMulti).
func (n *Network) scheduleLocked(from, to string, units int64, deliver func(dst *Node)) (*link, error) {
	if n.closed {
		return nil, ErrClosed
	}
	dst, ok := n.nodes[to]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownNode, to)
	}
	cfg := n.defaults
	if l := n.links[[2]string{from, to}]; l != nil {
		cfg = l.cfg
	}
	if cfg.Down {
		return nil, ErrUnreachable
	}
	if cfg.Loss > 0 && n.rng.Float64() < cfg.Loss {
		n.sent.Add(1)
		n.obsSent.Inc()
		n.sentUnits.Add(units)
		n.obsSentUnits.Add(units)
		n.dropped.Add(1)
		n.obsDropped.Inc()
		return nil, errLostInternal
	}
	delay := cfg.Latency
	if cfg.Jitter > 0 {
		delay += time.Duration(n.rng.Int63n(int64(cfg.Jitter)))
	}
	delay = time.Duration(float64(delay) * n.scale)

	// FIFO: never deliver before the previous message on this link.
	key := [2]string{from, to}
	l := n.links[key]
	if l == nil {
		l = &link{cfg: cfg}
		n.links[key] = l
	}
	deliverAt := time.Now().Add(delay)
	if deliverAt.Before(l.lastAt) {
		deliverAt = l.lastAt
	}
	l.lastAt = deliverAt
	n.sent.Add(1)
	n.obsSent.Inc()
	n.sentUnits.Add(units)
	n.obsSentUnits.Add(units)
	n.inFlight.Add(1)
	l.queue = append(l.queue, delivery{at: deliverAt, fn: func() {
		n.inFlight.Add(-1)
		n.mu.Lock()
		cur := n.nodes[to]
		n.mu.Unlock()
		if cur != dst {
			return
		}
		n.delivered.Add(1)
		n.obsDelivered.Inc()
		n.deliveredUnits.Add(units)
		n.obsDeliveredUnits.Add(units)
		deliver(dst)
	}})
	var start *link
	if !l.running {
		l.running = true
		n.wg.Add(1)
		start = l
	}
	return start, nil
}

// runLink drains one link's queue in order, sleeping until each message's
// delivery deadline. It exits when the queue empties or the network closes.
func (n *Network) runLink(l *link) {
	defer n.wg.Done()
	for {
		n.mu.Lock()
		if n.closed || len(l.queue) == 0 {
			l.running = false
			n.mu.Unlock()
			return
		}
		d := l.queue[0]
		l.queue = l.queue[1:]
		n.mu.Unlock()
		if wait := time.Until(d.at); wait > 0 {
			time.Sleep(wait)
		}
		d.fn()
	}
}

// Name returns the node's registered name.
func (nd *Node) Name() string { return nd.name }

// Send delivers msg to the handler of node to, asynchronously. A lost
// message is silent (nil error), matching datagram semantics; a down link
// fails fast.
func (nd *Node) Send(to string, msg any) error {
	err := nd.net.schedule(nd.name, to, unitsOf(msg), func(dst *Node) {
		dst.dispatch(nd.name, msg)
	})
	if errors.Is(err, errLostInternal) {
		return nil
	}
	return err
}

// fanoutDrainWorkers bounds the goroutines SendMulti spawns to drain links
// it activated; below this count each link gets its own drainer, exactly
// like Send.
const fanoutDrainWorkers = 8

// SendMulti delivers msg to every named destination asynchronously, sharing
// one scheduling pass (a single lock acquisition) and one payload value
// across the whole fan-out — the substrate analogue of writing one encoded
// frame to many sockets. Idle links activated by the fan-out are drained by
// a small bounded worker batch instead of one goroutine each, so a
// 10⁵-subscriber push does not spawn 10⁵ goroutines; a slow link in a batch
// can delay its batch-mates' deliveries past their deadline, which the
// substrate permits (latency is a lower bound, never an upper one).
//
// Partial-failure contract (the DC fan-out's repair path relies on this;
// see transport.Conn):
//
//   - errs[i] is exactly what Send(to[i], msg) would have returned at the
//     same instant: nil when the message was scheduled OR silently lost in
//     flight, non-nil only for local refusal (unknown node, down link,
//     closed network). Loss rolls are drawn independently per destination.
//   - Failure of one destination never affects another: every refusable
//     destination is refused, every deliverable one is scheduled. There is
//     no all-or-nothing mode.
//   - The returned slice is nil when every destination was accepted;
//     otherwise it has exactly len(to) entries with nil for successes.
//     Callers must treat a nil slice and a slice of nils identically.
func (nd *Node) SendMulti(to []string, msg any) []error {
	n := nd.net
	units := unitsOf(msg)
	deliver := func(dst *Node) { dst.dispatch(nd.name, msg) }
	var errs []error
	var started []*link
	n.mu.Lock()
	for i, dstName := range to {
		start, err := n.scheduleLocked(nd.name, dstName, units, deliver)
		if start != nil {
			started = append(started, start)
		}
		if err != nil && !errors.Is(err, errLostInternal) {
			if errs == nil {
				errs = make([]error, len(to))
			}
			errs[i] = err
		}
	}
	n.mu.Unlock()
	n.drainStarted(started)
	return errs
}

// SendEach delivers msgs[i] to to[i] in one scheduling pass — the
// heterogeneous sibling of SendMulti, for fan-outs where every destination
// gets its own envelope around mostly-shared payload (per-subtree TreePush
// frames differ only in routing header). One lock acquisition covers the
// whole batch and activated links drain on the same bounded worker pool, so
// a thousand subtree roots cost one scheduling pass, not a thousand. The
// error contract matches SendMulti: errs[i] is exactly what
// Send(to[i], msgs[i]) would have returned at the same instant, and a nil
// slice means every pair was accepted.
func (nd *Node) SendEach(to []string, msgs []any) []error {
	n := nd.net
	var errs []error
	var started []*link
	n.mu.Lock()
	for i, dstName := range to {
		msg := msgs[i]
		start, err := n.scheduleLocked(nd.name, dstName, unitsOf(msg), func(dst *Node) {
			dst.dispatch(nd.name, msg)
		})
		if start != nil {
			started = append(started, start)
		}
		if err != nil && !errors.Is(err, errLostInternal) {
			if errs == nil {
				errs = make([]error, len(to))
			}
			errs[i] = err
		}
	}
	n.mu.Unlock()
	n.drainStarted(started)
	return errs
}

// drainStarted runs the links a batched scheduling pass activated: one
// goroutine per link below fanoutDrainWorkers, a fixed worker batch above.
func (n *Network) drainStarted(started []*link) {
	if len(started) <= fanoutDrainWorkers {
		for _, l := range started {
			go n.runLink(l)
		}
		return
	}
	for w := 0; w < fanoutDrainWorkers; w++ {
		chunk := started[w*len(started)/fanoutDrainWorkers : (w+1)*len(started)/fanoutDrainWorkers]
		go func(chunk []*link) {
			for _, l := range chunk {
				n.runLink(l)
			}
		}(chunk)
	}
}

// Call sends msg to node to and waits for its handler's return value, a
// response timeout, or ctx cancellation. Message loss on either direction
// surfaces as ctx timeout.
func (nd *Node) Call(ctx context.Context, to string, msg any) (any, error) {
	nd.mu.Lock()
	nd.nextID++
	id := nd.nextID
	ch := make(chan any, 1)
	nd.pending[id] = ch
	nd.mu.Unlock()
	defer func() {
		nd.mu.Lock()
		delete(nd.pending, id)
		nd.mu.Unlock()
	}()

	err := nd.net.schedule(nd.name, to, unitsOf(msg), func(dst *Node) {
		dst.dispatch(nd.name, callMsg{id: id, payload: msg})
	})
	if err != nil && !errors.Is(err, errLostInternal) {
		return nil, err
	}
	select {
	case v := <-ch:
		return v, nil
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// dispatch routes an incoming envelope.
func (nd *Node) dispatch(from string, msg any) {
	switch m := msg.(type) {
	case callMsg:
		// Best effort: the reply takes the reverse link; loss or partition
		// surfaces as a caller timeout.
		transport.Reply(nd.invoke(from, m.payload), func(reply any) {
			_ = nd.net.schedule(nd.name, from, unitsOf(reply), func(dst *Node) {
				dst.dispatch(nd.name, replyMsg{id: m.id, payload: reply})
			})
		})
	case replyMsg:
		nd.mu.Lock()
		ch := nd.pending[m.id]
		nd.mu.Unlock()
		if ch != nil {
			ch <- m.payload
		}
	default:
		nd.invoke(from, msg)
	}
}

// invoke runs the handler, tolerating nodes registered without one.
func (nd *Node) invoke(from string, payload any) any {
	if nd.handler == nil {
		return nil
	}
	return nd.handler(from, payload)
}
