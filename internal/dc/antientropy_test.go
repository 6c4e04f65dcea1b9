package dc

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"colony/internal/crdt"
	"colony/internal/simnet"
	"colony/internal/txn"
	"colony/internal/vclock"
	"colony/internal/wire"
)

// aeDC builds DC 0 of three with its peer table set and no other DC on the
// network: records are fed to it directly, and heartbeats are synthesised.
func aeDC(t testing.TB) *DC {
	t.Helper()
	net := simnet.New(simnet.Config{})
	t.Cleanup(net.Close)
	d, err := New(net.Transport(), Config{Index: 0, Name: "dc0", NumDCs: 3, Shards: 1, K: 1})
	if err != nil {
		t.Fatal(err)
	}
	d.SetPeers(map[int]string{0: "dc0", 1: "dc1", 2: "dc2"})
	t.Cleanup(d.Close)
	return d
}

// aeTx is a one-update transaction stamped by DC origin at ts.
func aeTx(origin int, ts uint64) *txn.Transaction {
	name := fmt.Sprintf("dc%d", origin)
	return &txn.Transaction{
		Dot:      vclock.Dot{Node: name, Seq: ts},
		Origin:   name,
		Snapshot: vclock.NewVector(3),
		Commit:   vclock.CommitStamps{origin: ts},
		Updates: []txn.Update{{
			Object: xID, Kind: crdt.KindCounter,
			Op: crdt.Op{Counter: &crdt.CounterOp{Delta: 1}},
		}},
	}
}

// resendTo runs one anti-entropy round for a heartbeat from DC 1 that has
// seen this DC's stamps up to known.
func resendTo(d *DC, known uint64) (wire.ReplBatch, string) {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.antiEntropyLocked(wire.ReplHeartbeat{From: 1, State: vclock.Vector{known, 0, 0}})
}

// TestAntiEntropyResendsFromPeerPosition: a round resends exactly this DC's
// own transactions above the peer's position, in stamp order, at most
// antiEntropyMax of them — with other DCs' transactions interleaved in the
// history, own ones recorded out of stamp order, and some of them masked here
// (each peer applies its own visibility, so they are resent all the same).
func TestAntiEntropyResendsFromPeerPosition(t *testing.T) {
	d := aeDC(t)
	d.SetVisibilityCheck(func(tx *txn.Transaction) bool { return tx.Actor != "mallory" })
	const n = 600
	rng := rand.New(rand.NewSource(1))
	stamps := make([]uint64, n)
	for i := range stamps {
		stamps[i] = uint64(i + 1)
	}
	// Concurrent committers swap neighbours between sequencing and recording.
	for i := 0; i+1 < n; i++ {
		if rng.Intn(4) == 0 {
			stamps[i], stamps[i+1] = stamps[i+1], stamps[i]
		}
	}
	var own []*txn.Transaction
	d.mu.Lock()
	for i, ts := range stamps {
		tx := aeTx(0, ts)
		if i%5 == 0 {
			tx.Actor = "mallory"
		}
		own = append(own, tx)
		d.recordLocked(tx)
		d.recordLocked(aeTx(1+i%2, uint64(i+1))) // replicated from a peer
	}
	d.mu.Unlock()
	if got := d.MaskedCount(); got != n/5 {
		t.Fatalf("%d own records masked, want %d", got, n/5)
	}
	sort.Slice(own, func(i, j int) bool { return own[i].Commit[0] < own[j].Commit[0] })

	for _, known := range []uint64{0, 1, 299, n - 10, n - 1, n, n + 5} {
		b, peer := resendTo(d, known)
		if peer != "dc1" {
			t.Fatalf("known=%d: peer %q, want dc1", known, peer)
		}
		var want []*txn.Transaction
		for _, tx := range own {
			if tx.Commit[0] > known && len(want) < antiEntropyMax {
				want = append(want, tx)
			}
		}
		if len(b.Txs) != len(want) {
			t.Fatalf("known=%d: resent %d, want %d", known, len(b.Txs), len(want))
		}
		for i, tx := range b.Txs {
			if tx.Origin != "dc0" || tx.Dot != want[i].Dot || tx.Commit[0] != want[i].Commit[0] {
				t.Fatalf("known=%d: resend %d is %v@%v, want %v@%v", known, i, tx.Dot, tx.Commit, want[i].Dot, want[i].Commit)
			}
			if tx != want[i] {
				t.Fatalf("known=%d: resend %d is a copy of the recorded transaction", known, i)
			}
		}
		if len(want) > 0 && (b.From != 0 || len(b.State) != 3) {
			t.Fatalf("known=%d: batch From=%d State=%v", known, b.From, b.State)
		}
	}
}

// BenchmarkAntiEntropyFlatInHistory: a heartbeat from a peer a few
// transactions behind costs the same whatever the history length.
func BenchmarkAntiEntropyFlatInHistory(b *testing.B) {
	for _, n := range []int{1 << 10, 1 << 16} {
		b.Run(fmt.Sprintf("records=%d", n), func(b *testing.B) {
			d := aeDC(b)
			d.mu.Lock()
			for i := 1; i <= n; i++ {
				d.recordLocked(aeTx(0, uint64(i)))
				d.recordLocked(aeTx(1, uint64(i)))
			}
			d.mu.Unlock()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if r, _ := resendTo(d, uint64(n-8)); len(r.Txs) != 8 {
					b.Fatalf("resent %d, want 8", len(r.Txs))
				}
			}
		})
	}
}
