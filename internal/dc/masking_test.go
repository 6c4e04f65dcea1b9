package dc

import (
	"context"
	"fmt"
	"math/rand"
	"sync/atomic"
	"testing"
	"time"

	"colony/internal/crdt"
	"colony/internal/simnet"
	"colony/internal/txn"
	"colony/internal/vclock"
	"colony/internal/wire"
)

// scanMasked is the masking rule stated as a scan: replayed over a history in
// record order, a transaction is masked if it fails the check or if any
// masked transaction before it is visible at its snapshot. It is the
// reference the DC's O(NumDCs) rule must agree with.
func scanMasked(hist []*txn.Transaction, visible func(*txn.Transaction) bool) map[vclock.Dot]bool {
	masked := make(map[vclock.Dot]bool)
	var prior []*txn.Transaction
	for _, t := range hist {
		m := !visible(t)
		for _, p := range prior {
			if m {
				break
			}
			m = p.Commit.VisibleAt(p.Snapshot, t.Snapshot)
		}
		if m {
			masked[t.Dot] = true
			prior = append(prior, t)
		}
	}
	return masked
}

// TestMaskingMatchesScanReference: three DCs, a visibility check that masks a
// random subset of actors, commits at random DCs and edge commits on older
// snapshots, the policy flipped and rechecked mid-run. Once quiet, every DC's
// masked records are exactly the ones the scan reference picks over that
// DC's own history.
func TestMaskingMatchesScanReference(t *testing.T) {
	var direct, transitive int
	for seed := int64(1); seed <= 50; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			d, tr := checkMaskingAgainstScan(t, seed)
			direct += d
			transitive += tr
		})
	}
	if direct == 0 || transitive == 0 {
		t.Fatalf("masked %d by the check and %d transitively over all seeds: the rule was not exercised", direct, transitive)
	}
}

// checkMaskingAgainstScan runs one seed and returns how many records, summed
// over the DCs, the check masked directly and how many only transitively.
func checkMaskingAgainstScan(t *testing.T, seed int64) (direct, transitive int) {
	rng := rand.New(rand.NewSource(seed))
	net := simnet.New(simnet.Config{})
	defer net.Close()
	dcs := cluster(t, net, 3, 1)
	actors := []string{"alice", "bob", "carol", "dave", "erin"}
	var policy atomic.Pointer[map[string]bool]
	pick := func() {
		banned := make(map[string]bool)
		for _, a := range actors {
			if rng.Intn(4) == 0 {
				banned[a] = true
			}
		}
		policy.Store(&banned)
	}
	pick()
	check := func(tx *txn.Transaction) bool { return !(*policy.Load())[tx.Actor] }
	for _, d := range dcs {
		d.SetVisibilityCheck(check)
	}
	edge := net.AddNode("edgeM", nil)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()

	const commits = 60
	past := make([][]vclock.Vector, len(dcs))
	for i := 0; i < commits; i++ {
		if i == commits/2 {
			pick()
			for _, d := range dcs {
				d.RecheckVisibility()
			}
		}
		k := rng.Intn(len(dcs))
		d := dcs[k]
		actor := actors[rng.Intn(len(actors))]
		past[k] = append(past[k], d.State())
		op := crdt.Op{Counter: &crdt.CounterOp{Delta: 1}}
		if rng.Intn(3) > 0 {
			tx := d.Begin(actor)
			tx.Update(xID, crdt.KindCounter, op)
			if _, err := tx.Commit(); err != nil {
				t.Fatal(err)
			}
			continue
		}
		etx := &txn.Transaction{
			Dot:      vclock.Dot{Node: "edgeM", Seq: uint64(i + 1)},
			Origin:   "edgeM",
			Actor:    actor,
			Snapshot: past[k][rng.Intn(len(past[k]))],
		}
		etx.AppendUpdate(xID, crdt.KindCounter, op)
		reply, err := edge.Call(ctx, d.Name(), wire.EdgeCommit{Tx: etx})
		if _, ok := reply.(wire.EdgeCommitAck); err != nil || !ok {
			t.Fatalf("edge commit at %s: %v, %#v", d.Name(), err, reply)
		}
	}
	for _, d := range dcs {
		d := d
		waitFor(t, 5*time.Second, func() bool { return d.LogLen()+d.MaskedCount() == commits },
			fmt.Sprintf("%s never recorded all %d commits", d.Name(), commits))
	}

	for _, d := range dcs {
		d.mu.Lock()
		hist := make([]*txn.Transaction, len(d.hist))
		got := make(map[vclock.Dot]bool)
		for i, r := range d.hist {
			hist[i] = r.t
			if r.masked {
				got[r.t.Dot] = true
			}
		}
		n := d.nMasked
		d.mu.Unlock()
		want := scanMasked(hist, check)
		for i, tx := range hist {
			if got[tx.Dot] == want[tx.Dot] {
				continue
			}
			var prior []string
			for _, p := range hist[:i] {
				if want[p.Dot] {
					prior = append(prior, fmt.Sprintf("%v %s@%v", p.Dot, p.Commit, p.Snapshot))
				}
			}
			t.Fatalf("%s: record %d %v (actor %s) %s@%v: masked %v, the scan says %v; masked before it: %v",
				d.Name(), i, tx.Dot, tx.Actor, tx.Commit, tx.Snapshot, got[tx.Dot], want[tx.Dot], prior)
		}
		if n != len(want) {
			t.Fatalf("%s: MaskedCount %d, the scan masks %d", d.Name(), n, len(want))
		}
		for _, tx := range hist {
			switch {
			case !check(tx):
				direct++
			case want[tx.Dot]:
				transitive++
			}
		}
	}
	return direct, transitive
}

// TestMaskingNeedsWholeAncestor pins the history the scan reference found: a
// snapshot can cover a masked record's stamp in one component without
// covering what that record depends on — an edge's snapshot holds its own
// acked commit's vector, which covers every lower stamp of that DC whatever
// those depend on — and a transaction on such a snapshot does not depend on
// it.
func TestMaskingNeedsWholeAncestor(t *testing.T) {
	d := aeDC(t)
	d.SetVisibilityCheck(func(tx *txn.Transaction) bool { return tx.Actor != "mallory" })
	root := aeTx(1, 5)
	root.Actor = "mallory"
	root.Snapshot = vclock.Vector{0, 4, 9}
	free := aeTx(2, 10)
	free.Snapshot = vclock.Vector{0, 6, 3} // covers 1:5, not the 2:9 it depends on
	dep := aeTx(2, 11)
	dep.Snapshot = vclock.Vector{0, 6, 9}
	d.mu.Lock()
	for _, tx := range []*txn.Transaction{root, free, dep} {
		d.recordLocked(tx)
	}
	var got []bool
	for _, r := range d.hist {
		got = append(got, r.masked)
	}
	d.mu.Unlock()
	if want := []bool{true, false, true}; fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("masked %v, want %v", got, want)
	}
	if want := scanMasked([]*txn.Transaction{root, free, dep}, d.visible); len(want) != 2 || want[free.Dot] {
		t.Fatalf("the scan reference masks %v", want)
	}
}

// BenchmarkRecordFlatInMaskedCount: recording a transaction that passes the
// visibility check costs the same however many records are masked.
func BenchmarkRecordFlatInMaskedCount(b *testing.B) {
	for _, n := range []int{0, 1 << 10, 1 << 14} {
		b.Run(fmt.Sprintf("masked=%d", n), func(b *testing.B) {
			d := aeDC(b)
			d.SetVisibilityCheck(func(tx *txn.Transaction) bool { return tx.Actor != "mallory" })
			d.mu.Lock()
			for i := 1; i <= n; i++ {
				tx := aeTx(1, uint64(i))
				tx.Actor = "mallory"
				d.recordLocked(tx)
			}
			d.mu.Unlock()
			txs := make([]*txn.Transaction, b.N)
			for i := range txs {
				txs[i] = aeTx(2, uint64(i+1))
			}
			d.mu.Lock()
			b.ResetTimer()
			for _, tx := range txs {
				d.recordLocked(tx)
			}
			b.StopTimer()
			d.mu.Unlock()
			if got := d.MaskedCount(); got != n {
				b.Fatalf("%d masked, want %d", got, n)
			}
		})
	}
}
