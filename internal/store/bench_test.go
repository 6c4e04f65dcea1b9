package store

import (
	"fmt"
	"testing"

	"colony/internal/crdt"
	"colony/internal/obs"
	"colony/internal/txn"
	"colony/internal/vclock"
)

// benchTx builds a committed counter increment against obj.
func benchTx(obj txn.ObjectID, node string, seq uint64, dcTS uint64) *txn.Transaction {
	return &txn.Transaction{
		Dot:      vclock.Dot{Node: node, Seq: seq},
		Origin:   node,
		Snapshot: vclock.Vector{0},
		Commit:   vclock.CommitStamps{0: dcTS},
		Updates: []txn.Update{{
			Object: obj,
			Kind:   crdt.KindCounter,
			Op:     crdt.Op{Counter: &crdt.CounterOp{Delta: 1}},
		}},
	}
}

// benchStore returns a store whose objects each carry a journal of depth
// committed entries, plus the cut covering all of them.
func benchStore(b *testing.B, cacheOn bool, objects, depth int) (*Store, []txn.ObjectID, vclock.Vector) {
	b.Helper()
	s := New("dc0")
	s.SetReadCache(cacheOn)
	ids := make([]txn.ObjectID, objects)
	ts := uint64(0)
	for o := 0; o < objects; o++ {
		ids[o] = txn.ObjectID{Bucket: "bench", Key: fmt.Sprintf("obj%d", o)}
		for i := 0; i < depth; i++ {
			ts++
			if err := s.Apply(benchTx(ids[o], "edge", ts, ts)); err != nil {
				b.Fatal(err)
			}
		}
	}
	return s, ids, vclock.Vector{ts}
}

// toggleTx builds a committed ORSet op against obj: adds on odd seq,
// removes (naming the preceding add's tag) on even seq — the churn of a
// collaborative set whose membership stays small while its journal grows.
func toggleTx(obj txn.ObjectID, seq uint64) *txn.Transaction {
	elem := fmt.Sprintf("e%d", (seq-1)/2%8)
	op := crdt.Op{Set: &crdt.ORSetOp{Elem: elem}}
	if seq%2 == 0 {
		op.Set.Remove = true
		op.Set.Removes = []crdt.Tag{{Dot: vclock.Dot{Node: "edge", Seq: seq - 1}}}
	}
	return &txn.Transaction{
		Dot:      vclock.Dot{Node: "edge", Seq: seq},
		Origin:   "edge",
		Snapshot: vclock.Vector{0},
		Commit:   vclock.CommitStamps{0: seq},
		Updates:  []txn.Update{{Object: obj, Kind: crdt.KindORSet, Op: op}},
	}
}

// BenchmarkStoreRead measures a steady-state read (same cut, growing
// nothing) against one object, swept over journal depth, with the
// materialisation cache on and off. The workload is ORSet add/remove churn,
// so the cache-off variant re-replays the full journal (allocating per op)
// every time while cache-on clones the small memoised state.
func BenchmarkStoreRead(b *testing.B) {
	for _, depth := range []int{16, 256, 4096} {
		for _, cache := range []bool{true, false} {
			name := fmt.Sprintf("depth=%d/cache=%v", depth, cache)
			b.Run(name, func(b *testing.B) {
				s := New("dc0")
				s.SetReadCache(cache)
				id := txn.ObjectID{Bucket: "bench", Key: "set"}
				for i := 1; i <= depth; i++ {
					if err := s.Apply(toggleTx(id, uint64(i))); err != nil {
						b.Fatal(err)
					}
				}
				cut := vclock.Vector{uint64(depth)}
				opts := ReadOptions{SelfVisible: true}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := s.Read(id, cut, opts); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkStoreReadAdvancingCut measures the incremental path: each read's
// cut has advanced past the previous one (a live replica tailing commits),
// so cache-on replays only the delta while cache-off replays everything.
func BenchmarkStoreReadAdvancingCut(b *testing.B) {
	const depth = 256
	for _, cache := range []bool{true, false} {
		b.Run(fmt.Sprintf("cache=%v", cache), func(b *testing.B) {
			s, ids, cut := benchStore(b, cache, 1, depth)
			opts := ReadOptions{SelfVisible: true}
			at := cut.Clone()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				at[0]++ // strictly advancing cut; journal unchanged
				if _, err := s.Read(ids[0], at, opts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkStoreReadParallel exposes lock contention: concurrent readers
// spread over many objects (and therefore shards). Before sharding, every
// read serialised on one store-wide mutex.
func BenchmarkStoreReadParallel(b *testing.B) {
	const objects, depth = 64, 256
	for _, cache := range []bool{true, false} {
		b.Run(fmt.Sprintf("cache=%v", cache), func(b *testing.B) {
			s, ids, cut := benchStore(b, cache, objects, depth)
			opts := ReadOptions{SelfVisible: true}
			b.ReportAllocs()
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				i := 0
				for pb.Next() {
					id := ids[i%objects]
					i++
					if _, err := s.Read(id, cut, opts); err != nil {
						b.Fatal(err)
					}
				}
			})
		})
	}
}

// BenchmarkStoreReadObs measures instrumentation overhead on the hot cached
// read path: the same steady-state read as BenchmarkStoreRead (depth 256,
// cache on) with no registry attached (the disabled path: nil-check-only
// counters) versus an attached per-deployment registry (one atomic add per
// read). The `make bench-obs` target runs this pair; the acceptance bar is
// <=5% delta on the obs=on variant.
func BenchmarkStoreReadObs(b *testing.B) {
	const depth = 256
	for _, withObs := range []bool{false, true} {
		b.Run(fmt.Sprintf("depth=%d/obs=%v", depth, withObs), func(b *testing.B) {
			s := New("dc0")
			if withObs {
				s.SetObs(obs.New())
			}
			id := txn.ObjectID{Bucket: "bench", Key: "set"}
			for i := 1; i <= depth; i++ {
				if err := s.Apply(toggleTx(id, uint64(i))); err != nil {
					b.Fatal(err)
				}
			}
			cut := vclock.Vector{uint64(depth)}
			opts := ReadOptions{SelfVisible: true}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := s.Read(id, cut, opts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkStoreGroupVisibleRead measures a group member's read loop: a peer's
// transaction becomes group-visible (symbolic — no cut covers it), then the
// object is read. The mark is on the journal entry, so the read extends the
// cached materialisation by the one new entry and ns/op is flat in journal
// depth. The store is rebuilt (off the clock) every depth iterations so the
// journal stays within [depth, 2·depth).
func BenchmarkStoreGroupVisibleRead(b *testing.B) {
	for _, depth := range []int{64, 256, 1024} {
		b.Run(fmt.Sprintf("depth=%d", depth), func(b *testing.B) {
			id := txn.ObjectID{Bucket: "bench", Key: "doc"}
			groupTx := func(seq uint64) *txn.Transaction {
				t := benchTx(id, "peer", seq, 0)
				t.Commit = nil
				return t
			}
			var s *Store
			var seq uint64
			at, opts := vclock.Vector{0}, ReadOptions{SelfVisible: true}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if i%depth == 0 {
					b.StopTimer()
					s = New("member")
					for j := 0; j < depth; j++ {
						seq++
						if err := s.ApplyGroupVisible(groupTx(seq)); err != nil {
							b.Fatal(err)
						}
					}
					if _, err := s.Read(id, at, opts); err != nil {
						b.Fatal(err)
					}
					b.StartTimer()
				}
				seq++
				if err := s.ApplyGroupVisible(groupTx(seq)); err != nil {
					b.Fatal(err)
				}
				if _, err := s.Read(id, at, opts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
