package crdt

import (
	"fmt"
	"math/rand"
	"testing"

	"colony/internal/vclock"
)

// checkRGAChunks asserts the chunked kernel's invariants: no chunk is empty
// or over rgaChunkMax, each chunk's live count is its live elements and the
// counts sum to Len, where places every chunk, every element resolves
// through the index to where it is, ids are unique, and no compacted id is
// also present.
func checkRGAChunks(t *testing.T, step int, what string, r *RGA) {
	t.Helper()
	if !r.sealed {
		r.ensureIndex()
	}
	indexed := r.indexed() // a sealed decode or clone never builds one
	seen := make(map[Tag]bool)
	live := 0
	for ci, c := range r.chunks {
		if len(c.elems) == 0 || len(c.elems) > rgaChunkMax {
			t.Fatalf("step %d %s: chunk %d holds %d elements", step, what, ci, len(c.elems))
		}
		if got := r.where[c.id]; int(got) != ci {
			t.Fatalf("step %d %s: chunk %d (id %d) is placed at %d", step, what, ci, c.id, got)
		}
		n := 0
		for ei := range c.elems {
			e := &c.elems[ei]
			if seen[e.id] {
				t.Fatalf("step %d %s: element %v appears twice", step, what, e.id)
			}
			seen[e.id] = true
			if !e.tombstone {
				n++
			}
			if cid, ok := r.index.get(e.id); indexed && (!ok || cid != c.id) {
				t.Fatalf("step %d %s: index names chunk %d (%v) for %v, held by chunk %d",
					step, what, cid, ok, e.id, c.id)
			}
			if _, g := r.gone[e.id]; g {
				t.Fatalf("step %d %s: element %v is both present and compacted", step, what, e.id)
			}
		}
		if n != int(c.live) {
			t.Fatalf("step %d %s: chunk %d counts %d live, holds %d", step, what, ci, c.live, n)
		}
		live += n
	}
	if live != r.live {
		t.Fatalf("step %d %s: live count %d, %d live elements", step, what, r.live, live)
	}
	for id := range r.gone {
		if _, ok := r.index.get(id); ok {
			t.Fatalf("step %d %s: compacted element %v still resolves", step, what, id)
		}
	}
}

// rgaElems counts r's elements, tombstones included.
func rgaElems(r *RGA) int { return len(r.all()) }

// sameRGA asserts two replicas hold the same live sequence, tags included.
func sameRGA(t *testing.T, step int, what string, got, want *RGA) {
	t.Helper()
	ge, we := got.Elements(), want.Elements()
	if len(ge) != len(we) {
		t.Fatalf("step %d %s: %d live elements, want %d\ngot:  %q\nwant: %q", step, what, len(ge), len(we), got.String(), want.String())
	}
	for i := range ge {
		if ge[i] != we[i] {
			t.Fatalf("step %d %s: element %d is %v, want %v", step, what, i, ge[i], we[i])
		}
	}
}

type rgaStep struct {
	m  Meta
	op Op
}

// TestRGAIndexRandomized drives one replica through a seeded mix of head,
// middle and tail inserts, deletes, tombstone compaction, late concurrent ops
// that resurrect compacted anchors, re-deliveries, and Seal/Fork/Clone
// hand-offs. After every step its index must place every element where it
// is, its contents must match a replica that applied the same ops without
// ever compacting or sharing, and every sealed snapshot taken on the way must
// still read as it did when sealed.
func TestRGAIndexRandomized(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) { rgaIndexSchedule(t, seed, 1500) })
	}
}

func rgaIndexSchedule(t *testing.T, seed int64, steps int) {
	rng := rand.New(rand.NewSource(seed))
	cur, ref := NewRGA(), NewRGA()
	var (
		history []rgaStep
		tags    []Tag // every inserted element, deleted or not
		lamport uint64
	)
	type snapshot struct {
		r    *RGA
		want string
	}
	var snaps []snapshot
	apply := func(step int, m Meta, op Op) {
		t.Helper()
		if err := cur.Apply(m, op); err != nil {
			t.Fatalf("step %d: apply %+v: %v", step, *op.RGA, err)
		}
		mustApply(t, ref, m, op)
		history = append(history, rgaStep{m, op})
		if !op.RGA.Delete {
			tags = append(tags, m.tag())
		}
	}
	next := func() Meta {
		lamport++
		return Meta{Dot: vclock.Dot{Node: "w", Seq: lamport}}
	}

	for step := 0; step < steps; step++ {
		switch k := rng.Intn(20); {
		case k < 9: // insert at the head, the middle or the tail
			var i int
			switch rng.Intn(3) {
			case 0:
				i = 0
			case 1:
				i = cur.Len() / 2
			default:
				i = cur.Len()
			}
			m := next()
			apply(step, m, cur.PrepareInsertAt(i, fmt.Sprintf("%d.", step)))
			if got := cur.Elements()[i].Tag; got != m.tag() {
				t.Fatalf("step %d: insert at %d landed %v there, want %v", step, i, got, m.tag())
			}
		case k < 13: // delete a live element, or any element ever inserted
			if rng.Intn(2) == 0 && cur.Len() > 0 {
				op, _ := cur.PrepareDeleteAt(rng.Intn(cur.Len()))
				apply(step, next(), op)
			} else if len(tags) > 0 {
				apply(step, next(), cur.PrepareDelete(tags[rng.Intn(len(tags))]))
			}
		case k < 15: // a late concurrent insert: old Lamport time, any anchor
			if len(tags) == 0 {
				continue
			}
			m := Meta{Dot: vclock.Dot{Node: fmt.Sprintf("late%d", step), Seq: uint64(rng.Int63n(int64(lamport))) + 1}}
			apply(step, m, cur.PrepareInsertAfter(tags[rng.Intn(len(tags))], "L"))
		case k == 15:
			cur.CompactTombstones()
		case k == 16: // re-delivery of an applied op is a no-op
			if len(history) == 0 {
				continue
			}
			h := history[rng.Intn(len(history))]
			if err := cur.Apply(h.m, h.op); err != nil {
				t.Fatalf("step %d: re-delivery: %v", step, err)
			}
		case k == 17: // seal and keep editing a fork
			cur.Seal()
			snaps = append(snaps, snapshot{cur, cur.String()})
			cur = cur.Fork().(*RGA)
		case k == 18:
			cur = cur.Clone().(*RGA)
		default: // fork an unsealed replica (a clone) and drop the original
			cur = cur.Fork().(*RGA)
		}

		checkRGAChunks(t, step, "replica", cur)
		sameRGA(t, step, "replica vs reference", cur, ref)
		if step%100 == 99 || step == steps-1 {
			fresh := NewRGA()
			for _, h := range history {
				mustApply(t, fresh, h.m, h.op)
			}
			sameRGA(t, step, "replica vs rebuilt", cur, fresh)
			for i, s := range snaps {
				if got := s.r.String(); got != s.want {
					t.Fatalf("step %d: snapshot %d reads %q, sealed as %q", step, i, got, s.want)
				}
				checkRGAChunks(t, step, fmt.Sprintf("snapshot %d", i), s.r)
			}
		}
	}
}

// TestRGASiblingForksPushIndexLevels edits two forks of one sealed snapshot
// hard enough that each pushes index levels of its own: neither may see the
// other's entries, and the snapshot must read as sealed.
func TestRGASiblingForksPushIndexLevels(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	base, ref := NewRGA(), NewRGA()
	var seq uint64
	for i := 0; i < 3*rgaOverlayMax; i++ {
		applyBoth(t, &seq, base.PrepareInsertAt(rng.Intn(base.Len()+1), "b"), base, ref)
	}
	base.Seal()
	sealed := base.String()
	forks := []*RGA{base.Fork().(*RGA), base.Fork().(*RGA)}
	refs := []*RGA{ref.Clone().(*RGA), ref.Clone().(*RGA)}
	for i := 0; i < 3*rgaOverlayMax; i++ {
		for f := range forks {
			seq++
			m := Meta{Dot: vclock.Dot{Node: fmt.Sprintf("f%d", f), Seq: seq}}
			op := forks[f].PrepareInsertAt(rng.Intn(forks[f].Len()+1), fmt.Sprint(f))
			mustApply(t, forks[f], m, op)
			mustApply(t, refs[f], m, op)
		}
	}
	for f := range forks {
		checkRGAChunks(t, 0, fmt.Sprintf("fork %d", f), forks[f])
		sameRGA(t, 0, fmt.Sprintf("fork %d", f), forks[f], refs[f])
	}
	if base.String() != sealed {
		t.Fatal("sealed snapshot changed under its forks")
	}
}

// TestRGAForkSplitsSharedChunk inserts into the middle of a full chunk a
// fork shares with its sealed snapshot and with a sibling fork: the split
// must copy, leaving both others as they were.
func TestRGAForkSplitsSharedChunk(t *testing.T) {
	base, ref := NewRGA(), NewRGA()
	var seq uint64
	for i := 0; i < rgaChunkMax; i++ { // head inserts fill one chunk
		applyBoth(t, &seq, base.PrepareInsertAt(0, "b"), base, ref)
	}
	if len(base.chunks) != 1 || len(base.chunks[0].elems) != rgaChunkMax {
		t.Fatalf("setup: %d chunks, want one full one", len(base.chunks))
	}
	base.Seal()
	sealed := base.String()
	fork, sibling := base.Fork().(*RGA), base.Fork().(*RGA)
	for _, at := range []int{10, rgaChunkMax - 10} {
		applyBoth(t, &seq, fork.PrepareInsertAt(at, "f"), fork, ref)
	}
	checkRGAChunks(t, 0, "fork", fork)
	sameRGA(t, 0, "fork", fork, ref)
	if base.String() != sealed || sibling.String() != sealed {
		t.Fatal("a split in one fork changed the snapshot or its sibling")
	}
	checkRGAChunks(t, 0, "sibling", sibling)
}

// TestRGACompactRetiresChunks reclaims every element of the chunks in the
// middle of a document: the emptied chunks are retired and the chunks after
// them must still resolve. Then it leaves one element in every few, which
// lays the document out afresh.
func TestRGACompactRetiresChunks(t *testing.T) {
	r := NewRGA()
	var seq uint64
	var tags []Tag
	for i := 0; i < 4*rgaChunkMax; i++ { // siblings of the head: no element anchors on another
		tags = append(tags, applyBoth(t, &seq, r.PrepareInsertAfter(Tag{}, "x"), r))
	}
	before := len(r.chunks)
	for _, tag := range tags[len(tags)/4 : 3*len(tags)/4] {
		applyBoth(t, &seq, r.PrepareDelete(tag), r)
	}
	if got, want := r.CompactTombstones(), len(tags)/2; got != want {
		t.Fatalf("compacted %d tombstones, want %d", got, want)
	}
	if len(r.chunks) >= before {
		t.Fatalf("%d chunks before compaction, %d after: none retired", before, len(r.chunks))
	}
	checkRGAChunks(t, 0, "compacted", r)
	if len(r.chunks) < 3 {
		t.Fatalf("%d chunks left, the repack below needs 3", len(r.chunks))
	}
	var doomed []Tag // all but the first element of every chunk
	for _, c := range r.chunks {
		for _, e := range c.elems[1:] {
			doomed = append(doomed, e.id)
		}
	}
	for _, tag := range doomed {
		applyBoth(t, &seq, r.PrepareDelete(tag), r)
	}
	r.CompactTombstones()
	checkRGAChunks(t, 0, "repacked", r)
	if len(r.chunks) != 1 {
		t.Fatalf("%d elements left in %d chunks, want them packed into one", r.Len(), len(r.chunks))
	}
}
