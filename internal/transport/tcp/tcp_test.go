package tcp

import (
	"context"
	"errors"
	"net"
	"reflect"
	"sync"
	"testing"
	"time"

	"colony/internal/bin"
	"colony/internal/obs"
	"colony/internal/transport"
	"colony/internal/vclock"
	"colony/internal/wire"
)

func newMesh(t *testing.T, name string) *Mesh {
	t.Helper()
	m, err := New(Config{Name: name, Listen: "127.0.0.1:0"})
	if err != nil {
		t.Fatalf("new mesh %s: %v", name, err)
	}
	t.Cleanup(func() { m.Close() })
	return m
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timeout waiting for %s", what)
}

// sink collects inbound messages and answers calls with an ack carrying the
// heartbeat's From, so tests can match request to reply.
type sink struct {
	mu   sync.Mutex
	from []string
	msgs []any
}

func (s *sink) handler(from string, msg any) any {
	s.mu.Lock()
	s.from = append(s.from, from)
	s.msgs = append(s.msgs, msg)
	s.mu.Unlock()
	if hb, ok := msg.(wire.ReplHeartbeat); ok {
		return wire.EdgeCommitAck{DCIndex: hb.From}
	}
	return nil
}

func (s *sink) len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.msgs)
}

func (s *sink) msg(i int) any {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.msgs[i]
}

func (s *sink) sender(i int) string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.from[i]
}

func TestSendAndCallAcrossMeshes(t *testing.T) {
	ma := newMesh(t, "procA")
	mb := newMesh(t, "procB")

	var bs, as sink
	b := mb.AddNode("b", bs.handler)
	a := ma.AddNode("a", as.handler)
	ma.SetPeer("b", mb.Addr())

	hb := wire.ReplHeartbeat{From: 7, State: vclock.Vector{1, 2, 0, 5}}
	if err := a.Send("b", hb); err != nil {
		t.Fatalf("send: %v", err)
	}
	waitFor(t, "heartbeat delivery", func() bool { return bs.len() == 1 })
	if got := bs.msg(0); !reflect.DeepEqual(got, hb) {
		t.Fatalf("delivered %#v, want %#v", got, hb)
	}
	if bs.sender(0) != "a" {
		t.Fatalf("from %q, want a", bs.sender(0))
	}

	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Second)
	defer cancel()
	reply, err := a.Call(ctx, "b", wire.ReplHeartbeat{From: 42})
	if err != nil {
		t.Fatalf("call: %v", err)
	}
	if ack, ok := reply.(wire.EdgeCommitAck); !ok || ack.DCIndex != 42 {
		t.Fatalf("reply %#v, want EdgeCommitAck{DCIndex: 42}", reply)
	}

	// b never configured a route to a, but a's dial taught mb one: the
	// learned-route path every push/ack to an edge process depends on.
	if err := b.Send("a", wire.ReplHeartbeat{From: 9}); err != nil {
		t.Fatalf("learned-route send: %v", err)
	}
	waitFor(t, "learned-route delivery", func() bool { return as.len() == 1 })
	if as.sender(0) != "b" {
		t.Fatalf("from %q, want b", as.sender(0))
	}
}

func TestFIFOPerSenderOverTCP(t *testing.T) {
	ma := newMesh(t, "procA")
	mb := newMesh(t, "procB")
	var bs sink
	mb.AddNode("b", bs.handler)
	a := ma.AddNode("a", nil)
	ma.SetPeer("b", mb.Addr())

	const n = 200
	for i := 0; i < n; i++ {
		if err := a.Send("b", wire.ReplHeartbeat{From: i}); err != nil {
			t.Fatalf("send %d: %v", i, err)
		}
	}
	waitFor(t, "all deliveries", func() bool { return bs.len() == n })
	for i := 0; i < n; i++ {
		if got := bs.msg(i).(wire.ReplHeartbeat).From; got != i {
			t.Fatalf("position %d got seq %d: FIFO violated", i, got)
		}
	}
}

func TestLoopbackCarriesUnencodableMessages(t *testing.T) {
	m := newMesh(t, "proc")
	var xs sink
	m.AddNode("x", func(from string, msg any) any {
		if mt, ok := msg.(wire.MigratedTx); ok {
			// Prove the closure crossed intact.
			if err := mt.Fn(nil, nil); err != nil {
				return wire.MigratedTxAck{Err: err.Error()}
			}
			return wire.MigratedTxAck{}
		}
		return xs.handler(from, msg)
	})
	y := m.AddNode("y", nil)

	ran := false
	mt := wire.MigratedTx{Fn: func(wire.TxReader, wire.TxUpdater) error { ran = true; return nil }}
	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Second)
	defer cancel()
	reply, err := y.Call(ctx, "x", mt)
	if err != nil {
		t.Fatalf("loopback call: %v", err)
	}
	if ack, ok := reply.(wire.MigratedTxAck); !ok || ack.Err != "" {
		t.Fatalf("reply %#v", reply)
	}
	if !ran {
		t.Fatal("closure did not run")
	}
}

func TestRemoteRejectsUnencodable(t *testing.T) {
	ma := newMesh(t, "procA")
	mb := newMesh(t, "procB")
	mb.AddNode("b", nil)
	a := ma.AddNode("a", nil)
	ma.SetPeer("b", mb.Addr())

	mt := wire.MigratedTx{Fn: func(wire.TxReader, wire.TxUpdater) error { return nil }}
	if err := a.Send("b", mt); !errors.Is(err, transport.ErrNotEncodable) {
		t.Fatalf("MigratedTx over TCP: %v, want ErrNotEncodable", err)
	}
	type notWire struct{ X int }
	if err := a.Send("b", notWire{1}); !errors.Is(err, transport.ErrNotEncodable) {
		t.Fatalf("non-wire type over TCP: %v, want ErrNotEncodable", err)
	}
}

func TestSendMultiPartialFailure(t *testing.T) {
	ma := newMesh(t, "procA")
	mb := newMesh(t, "procB")
	mc := newMesh(t, "procC")
	var bs, cs, ls sink
	mb.AddNode("b", bs.handler)
	mc.AddNode("c", cs.handler)
	ma.AddNode("local", ls.handler)
	a := ma.AddNode("a", nil)
	ma.SetPeer("b", mb.Addr())
	ma.SetPeer("c", mc.Addr())

	hb := wire.ReplHeartbeat{From: 3}
	errs := a.SendMulti([]string{"b", "local", "ghost", "c"}, hb)
	if errs == nil {
		t.Fatal("expected per-destination errors")
	}
	if len(errs) != 4 {
		t.Fatalf("len(errs) = %d, want 4", len(errs))
	}
	for _, i := range []int{0, 1, 3} {
		if errs[i] != nil {
			t.Errorf("errs[%d] = %v, want nil", i, errs[i])
		}
	}
	if !errors.Is(errs[2], ErrUnknownPeer) {
		t.Errorf("errs[2] = %v, want ErrUnknownPeer", errs[2])
	}
	waitFor(t, "fan-out deliveries", func() bool {
		return bs.len() == 1 && cs.len() == 1 && ls.len() == 1
	})

	// All-accepted contract: nil slice, not a slice of nils.
	if errs := a.SendMulti([]string{"b", "c", "local"}, hb); errs != nil {
		t.Fatalf("all-ok SendMulti: %v, want nil", errs)
	}
	waitFor(t, "second fan-out", func() bool {
		return bs.len() == 2 && cs.len() == 2 && ls.len() == 2
	})
}

func TestInboxBackpressure(t *testing.T) {
	m, err := New(Config{Name: "proc", Listen: "127.0.0.1:0", InboxDepth: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { m.Close() })

	gate := make(chan struct{})
	var mu sync.Mutex
	delivered := 0
	m.AddNode("slow", func(from string, msg any) any {
		<-gate
		mu.Lock()
		delivered++
		mu.Unlock()
		return nil
	})
	a := m.AddNode("a", nil)

	accepted := 0
	sawBackpressure := false
	for i := 0; i < 100; i++ {
		err := a.Send("slow", wire.ReplHeartbeat{From: i})
		if err == nil {
			accepted++
			continue
		}
		if !errors.Is(err, transport.ErrBackpressure) {
			t.Fatalf("send %d: %v, want ErrBackpressure", i, err)
		}
		sawBackpressure = true
		break
	}
	if !sawBackpressure {
		t.Fatal("never hit backpressure with InboxDepth=1")
	}
	close(gate)
	waitFor(t, "accepted messages drain", func() bool {
		mu.Lock()
		defer mu.Unlock()
		return delivered == accepted
	})
}

func TestCallContextTimeout(t *testing.T) {
	ma := newMesh(t, "procA")
	mb := newMesh(t, "procB")
	gate := make(chan struct{})
	t.Cleanup(func() { close(gate) })
	mb.AddNode("b", func(from string, msg any) any { <-gate; return nil })
	a := ma.AddNode("a", nil)
	ma.SetPeer("b", mb.Addr())

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	_, err := a.Call(ctx, "b", wire.ReplHeartbeat{From: 1})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("call: %v, want DeadlineExceeded", err)
	}
	// The abandoned call's pending entry must be gone.
	ma.mu.Lock()
	n := len(ma.pending)
	ma.mu.Unlock()
	if n != 0 {
		t.Fatalf("%d pending calls leaked", n)
	}
}

func TestBadHandshakeRejected(t *testing.T) {
	m := newMesh(t, "proc")
	var s sink
	m.AddNode("n", s.handler)

	// Garbage magic: the mesh must drop the conn without disturbing service.
	nc, err := net.Dial("tcp", m.Addr())
	if err != nil {
		t.Fatal(err)
	}
	nc.Write([]byte("XXXXgarbage"))
	nc.SetReadDeadline(time.Now().Add(3 * time.Second))
	// The mesh writes its own hello before parsing ours, then drops us:
	// keep reading until the close (an error before the deadline).
	buf := make([]byte, 256)
	for {
		if _, err := nc.Read(buf); err != nil {
			break
		}
	}
	nc.Close()

	// Wrong version: hello parses, version check fails.
	nc2, err := net.Dial("tcp", m.Addr())
	if err != nil {
		t.Fatal(err)
	}
	nc2.Write([]byte{'C', 'L', 'N', 'Y', 99, featCodecV1, 0})
	nc2.SetReadDeadline(time.Now().Add(3 * time.Second))
	// The mesh writes its hello first, then drops us: read until error.
	discard := make([]byte, 256)
	for {
		if _, err := nc2.Read(discard); err != nil {
			break
		}
	}
	nc2.Close()

	// Mesh still serves real peers.
	m2 := newMesh(t, "proc2")
	a := m2.AddNode("a", nil)
	m2.SetPeer("n", m.Addr())
	if err := a.Send("n", wire.ReplHeartbeat{From: 1}); err != nil {
		t.Fatalf("send after bad handshakes: %v", err)
	}
	waitFor(t, "delivery after bad handshakes", func() bool { return s.len() == 1 })
}

// TestPreviousVersionRefusedAtHandshake: a peer still speaking protocol
// version 1 — whose push frames lack the log range and whose relays send the
// retired tag 17 — is disconnected at the hello, and the well-formed frame it
// pipelined right behind it is never decoded or delivered.
func TestPreviousVersionRefusedAtHandshake(t *testing.T) {
	m := newMesh(t, "proc")
	var s sink
	m.AddNode("n", s.handler)

	nc, err := net.Dial("tcp", m.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	hello := append([]byte(magic), 1, featCodecV1)
	hello = bin.AppendString(hello, "old")
	body := []byte{kindSend}
	body = bin.AppendString(body, "a")
	body = bin.AppendString(body, "n")
	body, err = wire.EncodeMessage(body, wire.ReplHeartbeat{From: 1})
	if err != nil {
		t.Fatal(err)
	}
	frame := bin.AppendUvarint(nil, uint64(len(body)))
	nc.Write(append(hello, append(frame, body...)...))
	nc.SetReadDeadline(time.Now().Add(3 * time.Second))
	// The mesh writes its own hello, then drops us: read until the close.
	discard := make([]byte, 256)
	for {
		if _, err := nc.Read(discard); err != nil {
			if ne, ok := err.(net.Error); ok && ne.Timeout() {
				t.Fatal("version-1 peer was not disconnected")
			}
			break
		}
	}
	if n := s.len(); n != 0 {
		t.Fatalf("%d frames from a version-1 peer were delivered", n)
	}
}

func TestUnknownPeerAndClose(t *testing.T) {
	m := newMesh(t, "proc")
	a := m.AddNode("a", nil)
	if err := a.Send("nope", wire.ReplHeartbeat{}); !errors.Is(err, ErrUnknownPeer) {
		t.Fatalf("send to unknown: %v, want ErrUnknownPeer", err)
	}

	m.AddNode("local", func(string, any) any { return nil })
	m.Close()
	if err := a.Send("local", wire.ReplHeartbeat{}); !errors.Is(err, ErrClosed) {
		t.Fatalf("send after close: %v, want ErrClosed", err)
	}
	if err := a.Send("nope", wire.ReplHeartbeat{}); !errors.Is(err, ErrClosed) {
		t.Fatalf("remote send after close: %v, want ErrClosed", err)
	}
	ctx := context.Background()
	if _, err := a.Call(ctx, "local", wire.ReplHeartbeat{}); !errors.Is(err, ErrClosed) {
		t.Fatalf("call after close: %v, want ErrClosed", err)
	}
}

func TestReconnectAfterPeerRestart(t *testing.T) {
	ma := newMesh(t, "procA")
	mb, err := New(Config{Name: "procB", Listen: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	addr := mb.Addr()
	var first sink
	mb.AddNode("b", first.handler)
	a := ma.AddNode("a", nil)
	ma.SetPeer("b", addr)

	if err := a.Send("b", wire.ReplHeartbeat{From: 1}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "pre-restart delivery", func() bool { return first.len() == 1 })

	mb.Close()

	// Restart a fresh process on the same address; lazy re-dial must heal
	// the route without any action on ma.
	var second sink
	var mb2 *Mesh
	waitFor(t, "rebind peer address", func() bool {
		mb2, err = New(Config{Name: "procB2", Listen: addr})
		return err == nil
	})
	t.Cleanup(func() { mb2.Close() })
	mb2.AddNode("b", second.handler)

	waitFor(t, "post-restart delivery", func() bool {
		a.Send("b", wire.ReplHeartbeat{From: 2}) // errors until the dead conn is reaped
		return second.len() > 0
	})
}

// TestCloseReapsOrphanInboundConns pins the simultaneous-cross-dial shutdown
// bug: an inbound connection whose peer name already has a learned route
// lands in neither m.conns nor m.routes, and Close used to leave its loops
// running forever (wg.Wait hang). Two raw clients handshake as the same
// peer; the second becomes the orphan, and Close must still return.
func TestCloseReapsOrphanInboundConns(t *testing.T) {
	m, err := New(Config{Name: "hub", Listen: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	m.AddNode("dc0", func(string, any) any { return nil })

	dialAs := func(name string) net.Conn {
		nc, err := net.Dial("tcp", m.Addr())
		if err != nil {
			t.Fatal(err)
		}
		hello := []byte(magic)
		hello = bin.AppendUvarint(hello, version)
		hello = bin.AppendUvarint(hello, featCodecV1)
		hello = bin.AppendString(hello, name)
		if _, err := nc.Write(hello); err != nil {
			t.Fatal(err)
		}
		// Read the mesh's hello so the handshake completes on both sides.
		buf := make([]byte, 64)
		if _, err := nc.Read(buf); err != nil {
			t.Fatal(err)
		}
		return nc
	}

	nc1 := dialAs("procX")
	defer nc1.Close()
	waitFor(t, "first conn registered", func() bool {
		m.mu.Lock()
		defer m.mu.Unlock()
		return m.routes["procX"] != nil
	})
	nc2 := dialAs("procX") // duplicate: route already taken -> orphan
	defer nc2.Close()
	waitFor(t, "orphan conn tracked", func() bool {
		m.mu.Lock()
		defer m.mu.Unlock()
		return len(m.live) == 2
	})

	done := make(chan struct{})
	go func() { m.Close(); close(done) }()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Close hung with an orphan inbound conn open")
	}
}

// TestWriteLoopFlushesOnDrain: the write loop flushes as soon as its queue
// drains. A burst still coalesces — frames queued while one flush runs share
// the next — and arrives complete and in order; a lone call's round trip
// waits for no timer in either direction, whatever the (ignored) FlushDelay.
func TestWriteLoopFlushesOnDrain(t *testing.T) {
	reg := obs.New()
	newMeshWith := func(name string, r *obs.Registry) *Mesh {
		m, err := New(Config{
			Name: name, Listen: "127.0.0.1:0", Obs: r,
			FlushDelay: time.Second,
		})
		if err != nil {
			t.Fatalf("new mesh %s: %v", name, err)
		}
		t.Cleanup(func() { m.Close() })
		return m
	}
	ma := newMeshWith("procA", reg)
	mb := newMeshWith("procB", nil)

	var sb sink
	mb.AddNode("b", sb.handler)
	a := ma.AddNode("a", nil)
	ma.SetPeer("b", mb.Addr())

	const n = 500
	for i := 0; i < n; i++ {
		if err := a.Send("b", wire.ReplHeartbeat{From: i}); err != nil {
			t.Fatalf("send %d: %v", i, err)
		}
	}
	waitFor(t, "burst delivered", func() bool { return sb.len() >= n })
	for i := 0; i < n; i++ {
		hb, ok := sb.msg(i).(wire.ReplHeartbeat)
		if !ok || hb.From != i {
			t.Fatalf("frame %d: got %#v, want heartbeat From=%d", i, sb.msg(i), i)
		}
	}
	// The writer counts a flush after it returns, which can be after the
	// reader delivered what it carried.
	waitFor(t, "flush counted", func() bool { return reg.Counter("net.flushes").Value() > 0 })
	sent, flushes := reg.Counter("net.sent").Value(), reg.Counter("net.flushes").Value()
	if sent != n || flushes >= sent {
		t.Fatalf("net.sent = %d, net.flushes = %d: want %d frames in fewer flushes", sent, flushes, n)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	start := time.Now()
	v, err := a.Call(ctx, "b", wire.ReplHeartbeat{From: 42})
	if err != nil {
		t.Fatalf("call: %v", err)
	}
	if ack, ok := v.(wire.EdgeCommitAck); !ok || ack.DCIndex != 42 {
		t.Fatalf("call reply: got %#v, want ack DCIndex=42", v)
	}
	if el := time.Since(start); el >= 250*time.Millisecond {
		t.Fatalf("lone call took %v: a write loop held its frame instead of flushing on drain", el)
	}
}

// TestSendsStayOnOneConnection: a mesh that dialed a peer and then learns a
// route to one of that peer's nodes over a second, inbound connection keeps
// sending to the node on the first. Frames on two connections have no order
// between them, so moving a stream of sends would let a later send overtake
// earlier ones still queued on the first connection.
func TestSendsStayOnOneConnection(t *testing.T) {
	mb := newMesh(t, "procB")
	ma, err := New(Config{Name: "procA", Listen: "127.0.0.1:0", Peers: map[string]string{"b": mb.Addr()}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ma.Close() })
	first, err := ma.connFor("b")
	if err != nil {
		t.Fatal(err)
	}
	// procB dials back, as it does when it sends first.
	nc, err := net.Dial("tcp", ma.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	hello := []byte(magic)
	hello = bin.AppendUvarint(hello, version)
	hello = bin.AppendUvarint(hello, featCodecV1)
	hello = bin.AppendString(hello, "procB")
	if _, err := nc.Write(hello); err != nil {
		t.Fatal(err)
	}
	var inbound *conn
	waitFor(t, "inbound conn registered", func() bool {
		ma.mu.Lock()
		defer ma.mu.Unlock()
		for c := range ma.live {
			if c != first {
				inbound = c
			}
		}
		return inbound != nil
	})
	ma.learnRoute("b", inbound) // a frame from node b arrived on it
	if now, err := ma.connFor("b"); err != nil || now != first {
		t.Fatalf("sends to b moved to another connection (err %v)", err)
	}
}
