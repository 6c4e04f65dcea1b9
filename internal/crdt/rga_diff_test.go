package crdt

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"colony/internal/vclock"
)

// refRGA is the naive reference for the chunked kernel: the conceptual RGA
// tree itself, children kept in descending tag order, read by a pre-order
// walk. It never compacts and shares nothing.
type refRGA struct {
	root  refNode
	nodes map[Tag]*refNode
}

type refNode struct {
	id      Tag
	value   string
	deleted bool
	kids    []*refNode
}

func newRefRGA() *refRGA { return &refRGA{nodes: make(map[Tag]*refNode)} }

func (x *refRGA) apply(m Meta, op Op) {
	o := op.RGA
	if o.Delete {
		x.nodes[o.Target].deleted = true
		return
	}
	id := m.tag()
	if x.nodes[id] != nil {
		return
	}
	parent := &x.root
	if o.After != (Tag{}) {
		parent = x.nodes[o.After]
	}
	n := &refNode{id: id, value: o.Value}
	at, _ := slices.BinarySearchFunc(parent.kids, id, func(k *refNode, id Tag) int { return id.Compare(k.id) })
	parent.kids = slices.Insert(parent.kids, at, n)
	x.nodes[id] = n
}

// elements walks the tree in pre-order without recursion.
func (x *refRGA) elements() []struct {
	Tag   Tag
	Value string
} {
	var out []struct {
		Tag   Tag
		Value string
	}
	stack := slices.Clone(x.root.kids)
	slices.Reverse(stack)
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if !n.deleted {
			out = append(out, struct {
				Tag   Tag
				Value string
			}{n.id, n.value})
		}
		for i := len(n.kids) - 1; i >= 0; i-- {
			stack = append(stack, n.kids[i])
		}
	}
	return out
}

// reclaimable counts the tombstones a compaction of r may reclaim: those
// whose every child is reclaimable too.
func reclaimable(r *RGA) int {
	all := r.all()
	refs := make(map[Tag]int)
	for _, e := range all {
		refs[e.after]++
	}
	n := 0
	for i := len(all) - 1; i >= 0; i-- {
		if e := all[i]; e.tombstone && refs[e.id] == 0 {
			n++
			refs[e.after]--
		}
	}
	return n
}

// compact compacts r and checks it reclaimed exactly what it may.
func compact(t *testing.T, step int, r *RGA) {
	t.Helper()
	if want, got := reclaimable(r), r.CompactTombstones(); got != want {
		t.Fatalf("step %d: compaction reclaimed %d tombstones, %d were reclaimable", step, got, want)
	}
}

// agreeWithRef asserts r reads exactly as the reference does, through
// String, Elements and Len, and holds the chunk invariants.
func agreeWithRef(t *testing.T, step int, what string, r *RGA, ref *refRGA) {
	t.Helper()
	want := ref.elements()
	got := r.Elements()
	if r.Len() != len(want) || len(got) != len(want) {
		t.Fatalf("step %d %s: Len %d, %d elements, reference has %d", step, what, r.Len(), len(got), len(want))
	}
	var text strings.Builder
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("step %d %s: element %d is %v, reference has %v", step, what, i, got[i], want[i])
		}
		text.WriteString(want[i].Value)
	}
	if r.String() != text.String() {
		t.Fatalf("step %d %s: String %q, reference reads %q", step, what, r.String(), text.String())
	}
	checkRGAChunks(t, step, what, r)
}

// TestRGAMatchesReference drives three replicas of the chunked RGA with
// seeded random edits — inserts at random positions, typing runs that build
// deep chains, every replica inserting on one anchor at once, deletes —
// delivered causally but late, so replicas edit concurrently. Replicas
// compact at random, and late ops resurrect what they reclaimed; replicas are
// replaced by a Clone or by a Marshal/Unmarshal round trip, and are sealed
// and forked, with a second fork of the same snapshot edited alongside.
// After every step each replica must read as a reference tree that applied
// the same ops. Sizes run from one chunk to many.
func TestRGAMatchesReference(t *testing.T) {
	for _, tc := range []struct {
		name       string
		steps, run int // schedule length, longest typing run
		minC, maxC int // chunks the largest replica must reach
	}{
		{"one-chunk", 10, 4, 1, 1},
		{"few-chunks", 40, 32, 2, 4},
		{"many-chunks", 250, 64, 12, 1 << 20},
	} {
		for seed := int64(1); seed <= 3; seed++ {
			t.Run(fmt.Sprintf("%s/seed=%d", tc.name, seed), func(t *testing.T) {
				if c := rgaReferenceSchedule(t, seed, tc.steps, tc.run); c < tc.minC || c > tc.maxC {
					t.Fatalf("largest replica held %d chunks, want %d..%d", c, tc.minC, tc.maxC)
				}
			})
		}
	}
}

// rgaReferenceSchedule runs one seeded schedule and returns the most chunks
// any replica held.
func rgaReferenceSchedule(t *testing.T, seed int64, steps, run int) (maxChunks int) {
	const replicas = 3
	rng := rand.New(rand.NewSource(seed))
	type logged struct {
		m  Meta
		op Op
	}
	var log []logged // every op, in an order consistent with causality
	rs := make([]*RGA, replicas)
	refs := make([]*refRGA, replicas)
	seen := make([]int, replicas)         // how much of log replica i has caught up on
	history := make([][]logged, replicas) // what replica i has applied, in order
	clocks := make([]uint64, replicas)
	for i := range rs {
		rs[i], refs[i] = NewRGA(), newRefRGA()
	}
	apply := func(step, i int, l logged) {
		t.Helper()
		if err := rs[i].Apply(l.m, l.op); err != nil {
			t.Fatalf("step %d: replica %d apply %+v: %v", step, i, *l.op.RGA, err)
		}
		refs[i].apply(l.m, l.op)
		history[i] = append(history[i], l)
	}
	catchUp := func(step, i, upTo int) {
		for ; seen[i] < upTo; seen[i]++ {
			apply(step, i, log[seen[i]])
		}
	}
	// local applies an op replica i prepared and publishes it. The log
	// later re-delivers it to i as well, which must be a no-op.
	local := func(step, i int, op Op) {
		// A replica's clock runs ahead of everything it has seen, as a
		// Lamport clock does.
		clocks[i] = max(clocks[i], uint64(len(log))) + 1
		l := logged{Meta{Dot: vclock.Dot{Node: fmt.Sprintf("r%d", i), Seq: clocks[i]}}, op}
		apply(step, i, l)
		log = append(log, l)
	}

	for step := 0; step < steps; step++ {
		i := rng.Intn(replicas)
		r := rs[i]
		switch k := rng.Intn(20); {
		case k < 6: // an insert at a random position
			local(step, i, r.PrepareInsertAt(rng.Intn(r.Len()+1), fmt.Sprintf("%d.", step)))
		case k < 8: // a typing run: each keystroke anchors on the last
			at := rng.Intn(r.Len() + 1)
			for n := 1 + rng.Intn(run); n > 0; n-- {
				local(step, i, rs[i].PrepareInsertAt(at, "t"))
				at++
			}
		case k == 8: // every replica inserts on one anchor it has seen
			var after Tag
			if els := r.Elements(); len(els) > 0 {
				after = els[rng.Intn(len(els))].Tag
			}
			for j := range rs {
				catchUp(step, j, len(log))
			}
			for j := range rs {
				local(step, j, rs[j].PrepareInsertAfter(after, fmt.Sprintf("c%d", j)))
			}
		case k == 9: // a replica deletes and reclaims what another then anchors on
			if r.Len() == 0 {
				break
			}
			j := (i + 1) % replicas
			catchUp(step, j, len(log))
			target := r.Elements()[rng.Intn(r.Len())].Tag
			local(step, i, r.PrepareDelete(target))
			compact(t, step, r)
			local(step, j, rs[j].PrepareInsertAfter(target, "late"))
		case k < 12: // a delete
			if r.Len() > 0 {
				op, _ := r.PrepareDeleteAt(rng.Intn(r.Len()))
				local(step, i, op)
			}
		case k < 15: // late delivery of part of what others wrote
			catchUp(step, i, seen[i]+rng.Intn(len(log)-seen[i]+1))
		case k == 15:
			compact(t, step, r)
		case k == 16:
			rs[i] = r.Clone().(*RGA)
		case k == 17: // a round trip through the wire encoding
			b, err := MarshalState(nil, r)
			if err != nil {
				t.Fatal(err)
			}
			back, err := UnmarshalState(b)
			if err != nil {
				t.Fatal(err)
			}
			rs[i] = back.(*RGA)
		default: // seal; edit two forks of the snapshot at once
			r.Seal()
			sealed := r.String()
			rs[i] = r.Fork().(*RGA)
			sib, sibRef := r.Fork().(*RGA), newRefRGA()
			for _, l := range history[i] {
				sibRef.apply(l.m, l.op)
			}
			for n := rng.Intn(8); n > 0; n-- {
				m := Meta{Dot: vclock.Dot{Node: "sib", Seq: uint64(len(log) + n)}}
				op := sib.PrepareInsertAt(rng.Intn(sib.Len()+1), "s")
				mustApply(t, sib, m, op)
				sibRef.apply(m, op)
				local(step, i, rs[i].PrepareInsertAt(rng.Intn(rs[i].Len()+1), "f"))
			}
			agreeWithRef(t, step, "sibling fork", sib, sibRef)
			if r.String() != sealed {
				t.Fatalf("step %d: sealed snapshot changed under its forks: %q -> %q", step, sealed, r.String())
			}
		}
		for j := range rs {
			agreeWithRef(t, step, fmt.Sprintf("replica %d", j), rs[j], refs[j])
			maxChunks = max(maxChunks, len(rs[j].chunks))
		}
	}
	for j := range rs {
		catchUp(steps, j, len(log))
		agreeWithRef(t, steps, fmt.Sprintf("replica %d, all delivered", j), rs[j], refs[j])
		if rs[j].String() != rs[0].String() {
			t.Fatalf("replica %d diverged: %q vs %q", j, rs[j].String(), rs[0].String())
		}
	}
	return maxChunks
}
