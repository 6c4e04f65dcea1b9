// Benchmarks for the sealed-snapshot read path and the chunked RGA kernel.
// The package is crdt_test so the cached-read benchmark can drive the store
// without an import cycle.
package crdt_test

import (
	"math/rand"
	"testing"

	"colony/internal/crdt"
	"colony/internal/store"
	"colony/internal/txn"
	"colony/internal/vclock"
)

// benchBurst is the keystrokes per simulated typing burst: the editor reads
// the document once, then types benchBurst characters before the next sync.
const benchBurst = 64

// --- builders ---

func buildFlatRGA(tb testing.TB, n int) *crdt.RGA {
	tb.Helper()
	r := crdt.NewRGA()
	var after crdt.Tag
	for i := 0; i < n; i++ {
		m := crdt.Meta{Dot: vclock.Dot{Node: "b", Seq: uint64(i + 1)}}
		if err := r.Apply(m, crdt.Op{RGA: &crdt.RGAOp{After: after, Value: "x"}}); err != nil {
			tb.Fatal(err)
		}
		after = crdt.Tag{Dot: m.Dot}
	}
	return r
}

// --- typing-burst benchmarks ---
//
// One iteration is one editor burst: read the n-element document, then type
// benchBurst characters at the end. The read forks the sealed snapshot; the
// burst copies the chunk list and the last chunk once, and each keystroke
// finds its anchor from the nearer end of the document.

func benchTypingBurstIndexed(b *testing.B, n int) {
	base := buildFlatRGA(b, n)
	base.Seal()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fork := base.Fork().(*crdt.RGA)
		pos := n
		for k := 0; k < benchBurst; k++ {
			op := fork.PrepareInsertAt(pos, "y")
			m := crdt.Meta{Dot: vclock.Dot{Node: "t", Seq: uint64(i*benchBurst + k + 1)}}
			if err := fork.Apply(m, op); err != nil {
				b.Fatal(err)
			}
			pos++
		}
	}
}

func BenchmarkRGATypingBurstIndexed1k(b *testing.B)   { benchTypingBurstIndexed(b, 1_000) }
func BenchmarkRGATypingBurstIndexed10k(b *testing.B)  { benchTypingBurstIndexed(b, 10_000) }
func BenchmarkRGATypingBurstIndexed100k(b *testing.B) { benchTypingBurstIndexed(b, 100_000) }

// --- mid-document insert ---
//
// One iteration is one insert at the middle of an owned document that grows
// from n elements (rebuilt outside the timer once it doubles): the shape of
// several typists editing the middle of one shared document.

func benchInsertMidDocument(b *testing.B, n int) {
	var r *crdt.RGA
	for i := 0; i < b.N; i++ {
		if i%n == 0 {
			b.StopTimer()
			r = buildFlatRGA(b, n)
			b.StartTimer()
		}
		op := r.PrepareInsertAt(r.Len()/2, "y")
		// A Lamport tag above every existing one, as a live typist's is: the
		// new element lands right after its anchor, so the insert, not the
		// sibling scan, is what is measured.
		m := crdt.Meta{Dot: vclock.Dot{Node: "t", Seq: uint64(n + i + 1)}}
		if err := r.Apply(m, op); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRGAInsertMidDocument1k(b *testing.B)  { benchInsertMidDocument(b, 1_000) }
func BenchmarkRGAInsertMidDocument10k(b *testing.B) { benchInsertMidDocument(b, 10_000) }

// --- fork refresh ---
//
// One iteration is one refresh of the store's materialisation cache: fork
// the sealed n-element snapshot, apply benchRefreshOps remote inserts at
// random positions, and seal the result. A refresh should cost what it
// edits, not what the document holds.

const benchRefreshOps = 4

func benchForkRefresh(b *testing.B, n int) {
	base := buildFlatRGA(b, n)
	base.Seal()
	elems := base.Elements()
	rng := rand.New(rand.NewSource(1))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fork := base.Fork().(*crdt.RGA)
		for k := 0; k < benchRefreshOps; k++ {
			op := crdt.Op{RGA: &crdt.RGAOp{After: elems[rng.Intn(n)].Tag, Value: "r"}}
			// A Lamport tag above the document's, as a concurrent remote
			// typist's is.
			m := crdt.Meta{Dot: vclock.Dot{Node: "r", Seq: uint64(n + i*benchRefreshOps + k + 1)}}
			if err := fork.Apply(m, op); err != nil {
				b.Fatal(err)
			}
		}
		fork.Seal()
	}
}

func BenchmarkRGAForkRefresh1k(b *testing.B)   { benchForkRefresh(b, 1_000) }
func BenchmarkRGAForkRefresh10k(b *testing.B)  { benchForkRefresh(b, 10_000) }
func BenchmarkRGAForkRefresh100k(b *testing.B) { benchForkRefresh(b, 100_000) }

// --- cached-read benchmark ---

// BenchmarkStoreCachedRGARead measures the store's snapshot hit path: a
// watermark-current cache hit returns the sealed materialisation directly,
// so steady-state reads of a 10k-element document are allocation-free.
func BenchmarkStoreCachedRGARead(b *testing.B) {
	s := store.New("n1")
	id := txn.ObjectID{Bucket: "doc", Key: "bench"}
	at := vclock.Vector{1}
	s.Seed(id, buildFlatRGA(b, 10_000), at)
	opts := store.ReadOptions{SelfVisible: true}
	if _, err := s.Read(id, at, opts); err != nil { // prime the cache
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Read(id, at, opts); err != nil {
			b.Fatal(err)
		}
	}
}
