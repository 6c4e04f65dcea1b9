package crdt

import (
	"fmt"
	"math/rand"
	"testing"

	"colony/internal/vclock"
)

// checkRGAIndex asserts that every element's lookup is its position in order
// and, where the index is built, that tag -> slot -> position is consistent.
func checkRGAIndex(t *testing.T, step int, what string, r *RGA) {
	t.Helper()
	if r.index != nil {
		if len(r.index) != len(r.order) || len(r.pos) != len(r.order) {
			t.Fatalf("step %d %s: index %d, pos %d, order %d entries", step, what, len(r.index), len(r.pos), len(r.order))
		}
		for i := range r.order {
			if slot := r.index[r.order[i].id]; slot != r.order[i].slot || r.pos[slot] != int32(i) {
				t.Fatalf("step %d %s: element %d has slot %d (index says %d) at pos %d",
					step, what, i, r.order[i].slot, slot, r.pos[slot])
			}
		}
	}
	for i := range r.order {
		if p, ok := r.lookup(r.order[i].id); !ok || p != i {
			t.Fatalf("step %d %s: lookup(element %d) = %d, %v", step, what, i, p, ok)
		}
	}
	live := 0
	for i := range r.order {
		if !r.order[i].tombstone {
			live++
		}
	}
	if live != r.live {
		t.Fatalf("step %d %s: live count %d, %d live elements", step, what, r.live, live)
	}
}

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

		checkRGAIndex(t, step, "replica", cur)
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
				checkRGAIndex(t, step, fmt.Sprintf("snapshot %d", i), s.r)
			}
		}
	}
}
