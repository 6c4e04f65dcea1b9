// Package transport is the pluggable network seam between Colony's layers
// (dc, edge, group, core) and the substrate that actually moves messages.
// Two implementations satisfy it:
//
//   - simnet (internal/simnet): the deterministic in-process simulator every
//     test runs on — latency/jitter/loss models, partitions, fault injection.
//     Obtain it via (*simnet.Network).Transport().
//   - tcp (internal/transport/tcp): a real mesh over TCP sockets with a
//     length-prefixed binary codec (internal/wire), used by colony-server's
//     -listen/-peers mode to form a multi-process deployment.
//
// The seam is deliberately the exact method set the layers already relied on
// when they held *simnet.Node directly; the paper's deployment swaps RabbitMQ
// (DC mesh) and WebRTC (peer groups) behind the same kind of boundary (§6.2).
//
// # Delivery contract
//
// Implementations must provide, per (sender, destination) pair, FIFO delivery
// of the messages that do arrive. Loss is silent: a Send whose message is
// dropped in flight still returns nil — only *local* refusal (unknown
// destination, closed transport, a full outbound queue) is reported as an
// error. Handlers for one sender run serially in send order; the returned
// value, if non-nil, answers a pending Call. A handler whose reply waits on
// something slow (a DC's fsync) returns a Deferred instead: the substrate
// dispatches the next message at once and sends the reply when it is
// resolved.
//
// # Backpressure and close
//
// Send and SendMulti never block on the destination: an implementation with
// bounded per-peer queues fails fast with ErrBackpressure when a queue is
// full, and the caller is expected to fall back to its repair path
// (a rewind of the replication stream between DCs, resume-subscribe at the
// edge) rather than
// retry in a loop. Call blocks until a reply, ctx expiry, or transport
// close. After Close, every operation fails.
package transport

import (
	"context"
	"errors"
	"sync"
)

// Handler processes one inbound message from the named sender. A non-nil
// return value is sent back as the reply if the message arrived as a Call;
// for plain Sends it is discarded. A *Deferred return value stands for a
// reply that is not known yet: the substrate sends whatever it is resolved
// to, once, as the Call's reply (a Send drops it), and runs the next
// handler without waiting for it. Handlers for one sender are invoked
// serially in send order (FIFO per link); handlers for different senders may
// run concurrently, so shared state needs the node's own locking.
type Handler func(from string, msg any) any

// Deferred is a handler's reply that is resolved after the handler returns —
// or before, on a path that turned out not to wait. The handler hands the
// work on, returns the Deferred, and whoever finishes the work calls
// Resolve.
type Deferred struct {
	mu       sync.Mutex
	v        any
	resolved bool
	send     func(any)
}

// NewDeferred returns an unresolved reply.
func NewDeferred() *Deferred { return &Deferred{} }

// Resolve sets the reply and, if a substrate is waiting for it, sends it.
// Only the first call counts.
func (d *Deferred) Resolve(v any) {
	d.mu.Lock()
	if d.resolved {
		d.mu.Unlock()
		return
	}
	d.v, d.resolved = v, true
	send := d.send
	d.mu.Unlock()
	if send != nil {
		send(v)
	}
}

// Then has send called once with the resolved reply: now if Resolve already
// ran, otherwise from Resolve. Substrates call it at most once per Deferred.
func (d *Deferred) Then(send func(any)) {
	d.mu.Lock()
	if !d.resolved {
		d.send = send
		d.mu.Unlock()
		return
	}
	v := d.v
	d.mu.Unlock()
	send(v)
}

// Reply is how a substrate answers a Call with its handler's return value v:
// send(v) at once or, for a Deferred, once it is resolved.
func Reply(v any, send func(any)) {
	if d, ok := v.(*Deferred); ok {
		d.Then(send)
		return
	}
	send(v)
}

// Conn is one node's endpoint on a transport: the handle dc, edge and group
// layers hold to reach their peers. *simnet.Node satisfies it directly.
type Conn interface {
	// Name returns the node name other endpoints address this one by.
	Name() string

	// Send delivers msg to the named destination asynchronously. nil means
	// the message was accepted (scheduled or silently lost in flight); a
	// non-nil error means local refusal — the destination is unknown, the
	// transport is closed or partitioned, or the peer's outbound queue is
	// full (ErrBackpressure).
	Send(to string, msg any) error

	// SendMulti delivers one message to many destinations, amortising
	// per-send overhead (one encode, one queue pass). The returned slice is
	// nil when every destination was accepted; otherwise it has exactly
	// len(to) entries where errs[i] is precisely what Send(to[i], msg)
	// would have returned — a partial failure still delivers to every
	// destination with a nil entry.
	SendMulti(to []string, msg any) []error

	// SendEach delivers msgs[i] to to[i] — the heterogeneous sibling of
	// SendMulti, for fan-outs where every destination gets its own envelope
	// around mostly-shared payload (e.g. per-subtree tree-push frames).
	// len(msgs) must equal len(to). The error contract is SendMulti's:
	// errs[i] is exactly what Send(to[i], msgs[i]) would have returned at
	// the same instant, and a nil slice means every pair was accepted.
	SendEach(to []string, msgs []any) []error

	// Call sends msg and blocks until the destination's handler returns a
	// reply, ctx expires, or the transport closes.
	Call(ctx context.Context, to string, msg any) (any, error)
}

// Network registers local endpoints on a transport. dc.New, edge.New and
// group.NewParent take one of these; tests pass simnet's adapter, deployment
// passes the TCP mesh.
type Network interface {
	// AddNode registers a named endpoint with its inbound handler. A nil
	// handler accepts no inbound traffic (send/call-only endpoints, e.g.
	// cloud client sessions). Registering a name twice replaces the
	// previous endpoint.
	AddNode(name string, h Handler) Conn

	// RemoveNode unregisters the endpoint; subsequent sends to the name
	// fail at the sender.
	RemoveNode(name string)
}

// ErrBackpressure is returned by Send/SendMulti when the destination's
// bounded outbound queue is full. It reports local refusal, not loss in
// flight: the message was never queued, and the caller should fall back to
// its repair path instead of spinning.
var ErrBackpressure = errors.New("transport: peer outbound queue full")

// ErrNotEncodable is returned by transports that cross process boundaries
// (tcp) when asked to carry a message outside the binary wire protocol —
// e.g. wire.MigratedTx, whose closure stands in for the paper's mobile code
// and can only travel in-process. simnet never returns it.
var ErrNotEncodable = errors.New("transport: message has no wire encoding")
