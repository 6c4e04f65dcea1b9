package main

import (
	"context"
	"sync"
	"testing"
	"time"

	"colony/internal/transport"
	"colony/internal/transport/tcp"
	"colony/internal/vclock"
	"colony/internal/wire"
)

// tracedPair builds two TCP meshes on loopback behind one tracer: "a" dials,
// "b" and "b2" listen.
func tracedPair(t *testing.T) (*tracer, transport.Network, transport.Network) {
	t.Helper()
	listen, err := tcp.New(tcp.Config{Name: "srv", Listen: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = listen.Close() })
	dial, err := tcp.New(tcp.Config{Name: "cli", Peers: map[string]string{"b": listen.Addr(), "b2": listen.Addr()}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = dial.Close() })
	tr := newTracer()
	tr.on.Store(true)
	return tr, tr.network(dial, classEdge), tr.network(listen, classDC)
}

func heartbeat(i int) wire.ReplHeartbeat {
	return wire.ReplHeartbeat{From: 0, State: vclock.Vector{uint64(i)}}
}

// The decorated mesh keeps the transport's contract: per-link FIFO, replies
// to Calls, an error (and nothing delivered) for a locally refused send with
// exactly one error slot per destination of a multi-send. Every delivery
// pairs with its send, and no transit time is negative, refused sends in
// between notwithstanding.
func TestDecoratedMeshContract(t *testing.T) {
	tr, cli, srv := tracedPair(t)

	var mu sync.Mutex
	got := map[string][]uint64{}
	var conns sync.Map
	done := make(chan struct{}, 1024)
	handler := func(name string) transport.Handler {
		return func(from string, msg any) any {
			c, _ := conns.Load(name)
			iv := c.(*traceConn).cur.Load()
			if iv == nil || iv.sendT == 0 {
				t.Errorf("%s: delivery of %T did not pair with a send", name, msg)
			} else if iv.entry < iv.sendT {
				t.Errorf("%s: negative transit: sent %d, entered %d", name, iv.sendT, iv.entry)
			}
			switch m := msg.(type) {
			case wire.ReplHeartbeat:
				mu.Lock()
				got[name] = append(got[name], m.State.Get(0))
				mu.Unlock()
				done <- struct{}{}
				return nil
			case wire.FetchObject:
				return wire.ObjectState{ID: m.ID}
			}
			return nil
		}
	}
	for _, name := range []string{"b", "b2"} {
		conns.Store(name, srv.AddNode(name, handler(name)))
	}
	a := cli.AddNode("a", nil)

	want := map[string][]uint64{}
	expect := func(name string, i int) { want[name] = append(want[name], uint64(i)) }
	for i := 1; i <= 60; i++ {
		switch i % 4 {
		case 0:
			if err := a.Send("b", heartbeat(i)); err != nil {
				t.Fatal(err)
			}
			expect("b", i)
		case 1:
			// One refused destination in the middle of a multi-send.
			errs := a.SendMulti([]string{"b", "nobody", "b2"}, heartbeat(i))
			if len(errs) != 3 || errs[0] != nil || errs[1] == nil || errs[2] != nil {
				t.Fatalf("SendMulti errs = %v", errs)
			}
			expect("b", i)
			expect("b2", i)
		case 2:
			errs := a.SendEach([]string{"nobody", "b2"}, []any{heartbeat(i), heartbeat(i)})
			if len(errs) != 2 || errs[0] == nil || errs[1] != nil {
				t.Fatalf("SendEach errs = %v", errs)
			}
			expect("b2", i)
		case 3:
			if err := a.Send("nobody", heartbeat(i)); err == nil {
				t.Fatal("send to an unknown node was accepted")
			}
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			reply, err := a.Call(ctx, "b", wire.FetchObject{})
			cancel()
			if _, ok := reply.(wire.ObjectState); err != nil || !ok {
				t.Fatalf("Call = %T, %v", reply, err)
			}
		}
	}
	for n := len(want["b"]) + len(want["b2"]); n > 0; n-- {
		select {
		case <-done:
		case <-time.After(5 * time.Second):
			t.Fatal("deliveries did not arrive")
		}
	}
	mu.Lock()
	defer mu.Unlock()
	for name, w := range want {
		if len(got[name]) != len(w) {
			t.Fatalf("%s got %d messages, want %d", name, len(got[name]), len(w))
		}
		for i := range w {
			if got[name][i] != w[i] {
				t.Fatalf("%s: message %d is %d, want %d (FIFO broken)", name, i, got[name][i], w[i])
			}
		}
	}
	if n := tr.unpaired.Load(); n != 0 {
		t.Errorf("%d deliveries without a paired send", n)
	}
	if n := tr.refused.Load(); n != 15+15+15 {
		t.Errorf("refused = %d, want 45", n)
	}
	for _, dst := range []string{"b", "b2", "nobody"} {
		if l := a.(*traceConn).link(dst); len(l.q) != 0 {
			t.Errorf("link a->%s still holds %d send records", dst, len(l.q))
		}
	}
}
