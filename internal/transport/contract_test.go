package transport_test

import (
	"context"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"colony/internal/simnet"
	"colony/internal/transport"
	"colony/internal/transport/tcp"
	"colony/internal/vclock"
	"colony/internal/wire"
)

// TestConnContract runs one behavioural suite over every transport
// implementation: the delivery, reply, fan-out and error semantics the dc,
// edge and group layers rely on must hold whether messages cross a simulated
// link or a real socket. Messages are wire types so the same suite is valid
// on the encoding substrate.
func TestConnContract(t *testing.T) { eachSubstrate(t, runConnContract) }

// TestConnContractDeferred runs the Deferred reply contract over every
// transport implementation: a DC answers an edge commit with a Deferred that
// its durable completion resolves.
func TestConnContractDeferred(t *testing.T) { eachSubstrate(t, runDeferredContract) }

// eachSubstrate runs a contract suite, as subtests, over simnet, one TCP mesh
// delivering to itself and two TCP meshes on loopback sockets.
func eachSubstrate(t *testing.T, run func(t *testing.T, netA, netB transport.Network)) {
	t.Run("simnet", func(t *testing.T) {
		net := simnet.New(simnet.Config{})
		t.Cleanup(func() { net.Close() })
		tr := net.Transport()
		run(t, tr, tr)
	})
	t.Run("tcp-loopback", func(t *testing.T) {
		m, err := tcp.New(tcp.Config{Name: "proc"})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { m.Close() })
		run(t, m, m)
	})
	t.Run("tcp-remote", func(t *testing.T) {
		ma, err := tcp.New(tcp.Config{Name: "procA", Listen: "127.0.0.1:0"})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { ma.Close() })
		mb, err := tcp.New(tcp.Config{Name: "procB", Listen: "127.0.0.1:0"})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { mb.Close() })
		ma.SetPeer("b", mb.Addr())
		ma.SetPeer("b2", mb.Addr())
		run(t, ma, mb)
	})
}

// runConnContract registers sender "a" on netA and receivers "b"/"b2" on
// netB, then checks the transport.Conn contract.
func runConnContract(t *testing.T, netA, netB transport.Network) {
	type rec struct {
		from string
		msg  any
	}
	var mu sync.Mutex
	var got []rec
	handler := func(from string, msg any) any {
		mu.Lock()
		got = append(got, rec{from, msg})
		mu.Unlock()
		if hb, ok := msg.(wire.ReplHeartbeat); ok {
			return wire.EdgeCommitAck{DCIndex: hb.From}
		}
		return nil
	}
	netB.AddNode("b", handler)
	netB.AddNode("b2", handler)
	a := netA.AddNode("a", nil)
	received := func() int {
		mu.Lock()
		defer mu.Unlock()
		return len(got)
	}
	waitCount := func(n int, what string) {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for time.Now().Before(deadline) {
			if received() >= n {
				return
			}
			time.Sleep(2 * time.Millisecond)
		}
		t.Fatalf("timeout waiting for %s (%d/%d)", what, received(), n)
	}

	if a.Name() != "a" {
		t.Fatalf("Name() = %q", a.Name())
	}

	// Send: accepted, delivered intact, correct sender attribution.
	hb := wire.ReplHeartbeat{From: 7, State: vclock.Vector{1, 0, 3}}
	if err := a.Send("b", hb); err != nil {
		t.Fatalf("send: %v", err)
	}
	waitCount(1, "first delivery")
	mu.Lock()
	first := got[0]
	mu.Unlock()
	if first.from != "a" || !reflect.DeepEqual(first.msg, hb) {
		t.Fatalf("delivered (%q, %#v), want (a, %#v)", first.from, first.msg, hb)
	}

	// FIFO per sender: 100 sends arrive in order.
	base := received()
	const n = 100
	for i := 0; i < n; i++ {
		if err := a.Send("b", wire.ReplHeartbeat{From: 1000 + i}); err != nil {
			t.Fatalf("send %d: %v", i, err)
		}
	}
	waitCount(base+n, "FIFO burst")
	mu.Lock()
	for i := 0; i < n; i++ {
		if seq := got[base+i].msg.(wire.ReplHeartbeat).From; seq != 1000+i {
			mu.Unlock()
			t.Fatalf("position %d carries seq %d: FIFO violated", i, seq)
		}
	}
	mu.Unlock()

	// Call: the handler's return value answers the call.
	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Second)
	defer cancel()
	reply, err := a.Call(ctx, "b", wire.ReplHeartbeat{From: 55})
	if err != nil {
		t.Fatalf("call: %v", err)
	}
	if ack, ok := reply.(wire.EdgeCommitAck); !ok || ack.DCIndex != 55 {
		t.Fatalf("reply %#v, want EdgeCommitAck{DCIndex: 55}", reply)
	}

	// SendMulti, all destinations good: nil slice, both delivered.
	base = received()
	if errs := a.SendMulti([]string{"b", "b2"}, hb); errs != nil {
		t.Fatalf("all-ok SendMulti: %v, want nil", errs)
	}
	waitCount(base+2, "fan-out delivery")

	// SendMulti with an unknown destination: per-index errors, the good
	// destination still delivered.
	base = received()
	errs := a.SendMulti([]string{"ghost", "b"}, hb)
	if len(errs) != 2 || errs[0] == nil || errs[1] != nil {
		t.Fatalf("partial SendMulti errs = %v, want [non-nil nil]", errs)
	}
	waitCount(base+1, "partial fan-out delivery")

	// SendEach, all destinations good: nil slice, each destination gets its
	// own message.
	base = received()
	if errs := a.SendEach([]string{"b", "b2"}, []any{wire.ReplHeartbeat{From: 70}, wire.ReplHeartbeat{From: 71}}); errs != nil {
		t.Fatalf("all-ok SendEach: %v, want nil", errs)
	}
	waitCount(base+2, "per-destination fan-out delivery")
	mu.Lock()
	seen := map[int]bool{}
	for _, r := range got[base:] {
		seen[r.msg.(wire.ReplHeartbeat).From] = true
	}
	mu.Unlock()
	if !seen[70] || !seen[71] {
		t.Fatalf("SendEach delivered %v, want both 70 and 71", seen)
	}

	// SendEach with an unknown destination: per-index errors, the good pair
	// still delivered.
	base = received()
	errs = a.SendEach([]string{"ghost", "b"}, []any{hb, wire.ReplHeartbeat{From: 72}})
	if len(errs) != 2 || errs[0] == nil || errs[1] != nil {
		t.Fatalf("partial SendEach errs = %v, want [non-nil nil]", errs)
	}
	waitCount(base+1, "partial per-destination delivery")
	mu.Lock()
	last := got[len(got)-1].msg.(wire.ReplHeartbeat)
	mu.Unlock()
	if last.From != 72 {
		t.Fatalf("partial SendEach delivered %#v, want From=72", last)
	}

	// Send to an unknown destination: local refusal.
	if err := a.Send("ghost", hb); err == nil {
		t.Fatal("send to unknown destination accepted")
	}
}

// runDeferredContract registers sender "a" on netA and receiver "b" on netB,
// whose handler answers every heartbeat with a *transport.Deferred: From 1
// resolved inside the handler, any other From parked for the test to
// resolve. It checks that a Deferred answers a Call once resolved, whether
// before or after the handler returned; that a Deferred returned to a Send is
// dropped; and that an open Deferred does not hold up the next message.
func runDeferredContract(t *testing.T, netA, netB transport.Network) {
	var handled atomic.Int64
	parked := make(chan *transport.Deferred, 4)
	netB.AddNode("b", func(from string, msg any) any {
		handled.Add(1)
		hb, ok := msg.(wire.ReplHeartbeat)
		if !ok {
			return nil
		}
		d := transport.NewDeferred()
		if hb.From == 1 {
			d.Resolve(wire.EdgeCommitAck{DCIndex: hb.From})
		} else {
			parked <- d
		}
		return d
	})
	// Nothing is ever sent to a: replies reach Call, not the handler.
	var strays atomic.Int64
	a := netA.AddNode("a", func(string, any) any { strays.Add(1); return nil })

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	nextParked := func() *transport.Deferred {
		t.Helper()
		select {
		case d := <-parked:
			return d
		case <-ctx.Done():
			t.Fatal("handler never parked its Deferred")
			return nil
		}
	}
	type result struct {
		reply any
		err   error
	}
	call := func(from int) <-chan result {
		done := make(chan result, 1)
		go func() {
			reply, err := a.Call(ctx, "b", wire.ReplHeartbeat{From: from})
			done <- result{reply, err}
		}()
		return done
	}
	wantAck := func(r result, from int) {
		t.Helper()
		if ack, ok := r.reply.(wire.EdgeCommitAck); r.err != nil || !ok || ack.DCIndex != from {
			t.Fatalf("reply %#v (err %v), want EdgeCommitAck{DCIndex: %d}", r.reply, r.err, from)
		}
	}

	// Resolved inside the handler, before it returns.
	wantAck(<-call(1), 1)

	// Resolved after the handler returned; while it is open, the handler of
	// the next message from the same sender runs.
	pending := call(2)
	open := nextParked()
	before := handled.Load()
	if err := a.Send("b", wire.ReplHeartbeat{From: 3}); err != nil {
		t.Fatalf("send behind an open Deferred: %v", err)
	}
	sendParked := nextParked()
	if handled.Load() != before+1 {
		t.Fatalf("handled %d messages behind the open Deferred, want 1", handled.Load()-before)
	}
	select {
	case r := <-pending:
		t.Fatalf("call returned %#v (err %v) before its Deferred was resolved", r.reply, r.err)
	default:
	}
	open.Resolve(wire.EdgeCommitAck{DCIndex: 2})
	wantAck(<-pending, 2)

	// Returned to a Send: resolving it sends nothing, and the next Call gets
	// its own reply.
	sendParked.Resolve(wire.EdgeCommitAck{DCIndex: 3})
	pending = call(4)
	nextParked().Resolve(wire.EdgeCommitAck{DCIndex: 4})
	wantAck(<-pending, 4)
	if n := strays.Load(); n != 0 {
		t.Fatalf("sender's handler received %d messages, want none", n)
	}
}
