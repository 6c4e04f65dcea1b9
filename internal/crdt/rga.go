package crdt

import (
	"fmt"
	"maps"
	"slices"
	"strings"
)

// RGAOp inserts an element after an existing one, or deletes an element, in
// a Replicated Growable Array (the sequence CRDT used for collaborative
// editing).
type RGAOp struct {
	// After is the tag of the element the new element goes after; the zero
	// Tag means the head of the sequence. Only meaningful for inserts.
	After Tag `json:"after"`
	// Value is the inserted element (typically a character or a chunk).
	Value string `json:"value,omitempty"`
	// Delete marks a deletion of Target instead of an insert.
	Delete bool `json:"delete,omitempty"`
	Target Tag  `json:"target,omitempty"`
}

// rgaElem is one element of the flat RGA order: the element's identity, the
// anchor it was inserted after (zero Tag = head), and its payload. Elements
// — including tombstones — are stored in document order, which is the
// pre-order traversal of the conceptual RGA tree with siblings in
// descending tag order. slot is the element's entry in RGA.pos, valid while
// the index is.
type rgaElem struct {
	id        Tag
	after     Tag
	value     string
	tombstone bool
	slot      int32
}

// rgaCursor memoises one (order position, live index) correspondence point.
// Apply keeps it pointing at the most recently inserted live element with
// O(1) adjustments, so a typing burst resolves its anchor without scanning;
// Prepare* on a sealed snapshot reads it but never writes it.
type rgaCursor struct {
	valid   bool
	pos     int // position in order; order[pos] is live
	liveIdx int // index of order[pos] within the live sequence
}

// RGA is a Replicated Growable Array: a sequence CRDT supporting concurrent
// insert-after and delete. Concurrent inserts at the same position are
// ordered by descending update tag, so all replicas linearise identically.
// Deletions leave tombstones (the identifier space must stay stable for
// later concurrent inserts to anchor on) until the store's K-stable
// advancement cut lets CompactTombstones reclaim them.
//
// The kernel is a flat order-indexed array rather than a pointer tree:
// traversal is iterative (no recursion, however deep the edit chain), the
// index resolves anchors in O(1), and appends — the typing pattern — are O(1)
// amortised. A mid-document insert shifts the tail of order and of pos, two
// flat arrays; no map entry changes but the new element's.
type RGA struct {
	order []rgaElem
	// index maps element id -> a stable slot, and pos maps slot -> position
	// in order, so a shift rewrites pos entries instead of hashing tags. nil
	// index means stale (pos with it): an owned mutator rebuilds both on
	// demand, and Seal rebuilds them eagerly so sealed snapshots always carry
	// a valid, read-only index.
	index map[Tag]int32
	pos   []int32
	// gone records compacted tombstones: id -> the anchor the element was
	// inserted after. A late operation referencing a compacted element
	// resurrects it (as a tombstone, at its original deterministic position)
	// so replicas that compacted at different times still converge.
	gone   map[Tag]Tag
	live   int
	sealed bool
	// shared marks order/index/pos/gone as shared with a sealed snapshot.
	shared bool
	cursor rgaCursor
}

var _ Object = (*RGA)(nil)
var _ Compactor = (*RGA)(nil)

// NewRGA returns an empty sequence.
func NewRGA() *RGA {
	return &RGA{index: make(map[Tag]int32)}
}

// Kind implements Object.
func (r *RGA) Kind() Kind { return KindRGA }

// unshare gives the RGA private containers. The order slice and gone map are
// copied; the index is dropped and rebuilt lazily (a rebuild costs the same
// as a copy and is skipped entirely if no lookup follows).
func (r *RGA) unshare() {
	if !r.shared {
		return
	}
	order := make([]rgaElem, len(r.order), len(r.order)+1)
	copy(order, r.order)
	r.order = order
	if len(r.gone) > 0 {
		gone := make(map[Tag]Tag, len(r.gone))
		for t, a := range r.gone {
			gone[t] = a
		}
		r.gone = gone
	} else {
		r.gone = nil
	}
	r.index, r.pos = nil, nil
	r.shared = false
	cowCopies.Add(1)
}

// ensureIndex rebuilds the position index after an unshare or a compaction
// dropped it, renumbering slots to match positions. Must only be called on an
// owned (unshared, unsealed) RGA.
func (r *RGA) ensureIndex() {
	if r.index != nil {
		return
	}
	idx := make(map[Tag]int32, len(r.order))
	pos := make([]int32, len(r.order))
	for i := range r.order {
		idx[r.order[i].id] = int32(i)
		pos[i] = int32(i)
		r.order[i].slot = int32(i)
	}
	r.index, r.pos = idx, pos
}

// lookup returns the order position of id. While the containers are shared
// the index is guaranteed valid (Seal rebuilds it before sharing); once
// owned it may be stale and is rebuilt on demand.
func (r *RGA) lookup(id Tag) (int, bool) {
	if r.index == nil {
		r.ensureIndex()
	}
	slot, ok := r.index[id]
	if !ok {
		return 0, false
	}
	return int(r.pos[slot]), true
}

// Apply implements Object.
func (r *RGA) Apply(meta Meta, op Op) error {
	if r.sealed {
		return ErrSealed
	}
	if op.RGA == nil {
		if op.Kind() == 0 {
			return ErrMalformedOp
		}
		return ErrKindMismatch
	}
	o := op.RGA
	if o.Delete {
		return r.applyDelete(o.Target)
	}
	return r.applyInsert(meta.tag(), o.After, o.Value)
}

func (r *RGA) applyDelete(target Tag) error {
	pos, ok := r.lookup(target)
	if !ok {
		if _, compacted := r.gone[target]; compacted {
			return nil // already deleted and reclaimed
		}
		return fmt.Errorf("crdt: rga delete of unknown element %v (causal delivery violated): %w",
			target, ErrMalformedOp)
	}
	if r.order[pos].tombstone {
		return nil
	}
	r.unshare() // positions are unchanged by the copy, pos stays valid
	r.order[pos].tombstone = true
	r.live--
	switch {
	case pos == r.cursor.pos:
		r.cursor.valid = false
	case r.cursor.valid && pos < r.cursor.pos:
		r.cursor.liveIdx--
	}
	return nil
}

func (r *RGA) applyInsert(id, after Tag, value string) error {
	if _, dup := r.lookup(id); dup {
		return nil // idempotent re-apply
	}
	if _, dup := r.gone[id]; dup {
		return nil // re-apply of an element already compacted away
	}
	if after != (Tag{}) {
		if _, ok := r.lookup(after); !ok {
			if _, compacted := r.gone[after]; !compacted {
				return fmt.Errorf("crdt: rga insert after unknown element %v (causal delivery violated): %w",
					after, ErrMalformedOp)
			}
			r.unshare()
			r.ensureIndex()
			r.resurrect(after)
		}
	}
	r.unshare()
	r.ensureIndex()
	pos, liveSkipped, anchorPos := r.insertPos(after, id)
	r.insertAt(pos, rgaElem{id: id, after: after, value: value})
	r.live++
	// Keep the cursor on the element just inserted when its live index is
	// derivable in O(1); otherwise fall back to the shift adjustment.
	switch {
	case r.cursor.valid && anchorPos == r.cursor.pos:
		// Typing: anchored on the cursor element.
		r.cursor = rgaCursor{valid: true, pos: pos, liveIdx: r.cursor.liveIdx + liveSkipped + 1}
	case pos == len(r.order)-1:
		// Append at the very end: last live element.
		r.cursor = rgaCursor{valid: true, pos: pos, liveIdx: r.live - 1}
	case anchorPos < 0 && pos == 0:
		// Insert at the head of the document.
		r.cursor = rgaCursor{valid: true, pos: 0, liveIdx: 0}
	case r.cursor.valid && pos <= r.cursor.pos:
		r.cursor.pos++
		r.cursor.liveIdx++
	}
	return nil
}

// insertPos computes where an element with the given anchor and id lands:
// scan forward from the anchor, skipping (greater-tagged) siblings and their
// subtrees, and stop at the first smaller-tagged sibling or the end of the
// anchor's region. Also returns how many live elements were skipped and the
// anchor's position (-1 for the head), which the cursor update needs.
func (r *RGA) insertPos(after, id Tag) (pos, liveSkipped, anchorPos int) {
	anchorPos = -1
	start := 0
	if after != (Tag{}) {
		anchorPos, _ = r.lookup(after)
		start = anchorPos + 1
	}
	var skipping map[Tag]bool
	i := start
	for ; i < len(r.order); i++ {
		x := &r.order[i]
		switch {
		case x.after == after:
			if id.Compare(x.id) > 0 {
				return i, liveSkipped, anchorPos
			}
			if skipping == nil {
				skipping = make(map[Tag]bool, 4)
			}
			skipping[x.id] = true
		case skipping != nil && skipping[x.after]:
			skipping[x.id] = true
		default:
			return i, liveSkipped, anchorPos
		}
		if !x.tombstone {
			liveSkipped++
		}
	}
	return i, liveSkipped, anchorPos
}

// insertAt splices e into order at pos under a fresh slot (callers hold an
// owned RGA with ensureIndex done). An append is O(1); a mid-order insert
// additionally moves the tail one place, in order and in pos.
func (r *RGA) insertAt(pos int, e rgaElem) {
	e.slot = int32(len(r.pos))
	r.index[e.id] = e.slot
	r.pos = append(r.pos, int32(pos))
	r.order = append(r.order, rgaElem{})
	copy(r.order[pos+1:], r.order[pos:])
	r.order[pos] = e
	for i := pos + 1; i < len(r.order); i++ {
		r.pos[r.order[i].slot]++
	}
}

// resurrect re-inserts the compacted tombstone t (and, transitively, any
// compacted anchors it depends on) at its original position. The position
// is deterministic — RGA order is a function of the set of (id, after)
// pairs — so replicas that compacted at different times converge. Owned
// RGA with a valid index required.
func (r *RGA) resurrect(t Tag) {
	chain := []Tag{t}
	for {
		a := r.gone[chain[len(chain)-1]]
		if a == (Tag{}) {
			break
		}
		if _, present := r.lookup(a); present {
			break
		}
		if _, compacted := r.gone[a]; !compacted {
			break // anchor truly unknown; insertPos anchors at head
		}
		chain = append(chain, a)
	}
	for i := len(chain) - 1; i >= 0; i-- {
		id := chain[i]
		after := r.gone[id]
		if after != (Tag{}) {
			if _, present := r.lookup(after); !present {
				after = Tag{}
			}
		}
		pos, _, _ := r.insertPos(after, id)
		r.insertAt(pos, rgaElem{id: id, after: after, tombstone: true})
		if r.cursor.valid && pos <= r.cursor.pos {
			r.cursor.pos++
		}
		delete(r.gone, id)
	}
}

// CompactTombstones implements Compactor: it removes every tombstone that no
// retained element uses as its anchor, remembering the reclaimed ids in the
// gone map so late operations referencing them still converge. Called by the
// store on the freshly folded base during K-stable advancement.
func (r *RGA) CompactTombstones() int {
	if r.sealed {
		return 0
	}
	removable := 0
	refs := make(map[Tag]int, len(r.order))
	for i := range r.order {
		if a := r.order[i].after; a != (Tag{}) {
			refs[a]++
		}
	}
	// Scan backward: an element's anchor precedes it in document order, so
	// one pass cascades (a tombstone chain unreferenced at its tail is
	// reclaimed whole).
	drop := make([]bool, len(r.order))
	for i := len(r.order) - 1; i >= 0; i-- {
		e := &r.order[i]
		if e.tombstone && refs[e.id] == 0 {
			drop[i] = true
			removable++
			if e.after != (Tag{}) {
				refs[e.after]--
			}
		}
	}
	if removable == 0 {
		return 0
	}
	r.unshare()
	if r.gone == nil {
		r.gone = make(map[Tag]Tag, removable)
	}
	kept := r.order[:0]
	for i := range r.order {
		if drop[i] {
			r.gone[r.order[i].id] = r.order[i].after
			continue
		}
		kept = append(kept, r.order[i])
	}
	r.order = kept
	r.index, r.pos = nil, nil
	r.cursor = rgaCursor{}
	return removable
}

// Value implements Object, returning the concatenated live elements as a
// string.
func (r *RGA) Value() any { return r.String() }

// String returns the sequence contents.
func (r *RGA) String() string {
	var sb strings.Builder
	for i := range r.order {
		if !r.order[i].tombstone {
			sb.WriteString(r.order[i].value)
		}
	}
	return sb.String()
}

// Elements returns the live elements in document order along with their tags
// (needed to anchor inserts and deletes).
func (r *RGA) Elements() []struct {
	Tag   Tag
	Value string
} {
	out := make([]struct {
		Tag   Tag
		Value string
	}, 0, r.live)
	for i := range r.order {
		if r.order[i].tombstone {
			continue
		}
		out = append(out, struct {
			Tag   Tag
			Value string
		}{Tag: r.order[i].id, Value: r.order[i].value})
	}
	return out
}

// Len returns the number of live elements.
func (r *RGA) Len() int { return r.live }

// Clone implements Object.
func (r *RGA) Clone() Object {
	cp := &RGA{
		order: make([]rgaElem, len(r.order)),
		live:  r.live,
	}
	copy(cp.order, r.order)
	if r.index != nil {
		cp.index = maps.Clone(r.index)
		cp.pos = slices.Clone(r.pos)
	}
	if len(r.gone) > 0 {
		cp.gone = make(map[Tag]Tag, len(r.gone))
		for t, a := range r.gone {
			cp.gone[t] = a
		}
	}
	cp.cursor = r.cursor
	return cp
}

// Seal implements Object. The index is rebuilt if stale so that sealed
// snapshots can answer lookups without ever writing to themselves.
func (r *RGA) Seal() {
	if r.sealed {
		return
	}
	r.ensureIndex()
	r.sealed = true
}

// Sealed implements Object.
func (r *RGA) Sealed() bool { return r.sealed }

// Fork implements Object.
func (r *RGA) Fork() Object {
	if !r.sealed {
		return r.Clone()
	}
	return &RGA{
		order:  r.order,
		index:  r.index,
		pos:    r.pos,
		gone:   r.gone,
		live:   r.live,
		shared: true,
		cursor: r.cursor,
	}
}

// livePos returns the order position of the k-th live element, walking from
// the cheapest of three origins — head, tail, or the cursor — and skipping
// tombstones. Read-pure, so it is safe on shared sealed snapshots.
// Requires 0 <= k < r.live.
func (r *RGA) livePos(k int) int {
	pos, idx := -1, -1 // head origin
	if tail := r.live - k; tail < k+1 {
		pos, idx = len(r.order), r.live
	}
	if r.cursor.valid {
		d := r.cursor.liveIdx - k
		if d < 0 {
			d = -d
		}
		best := k + 1
		if t := r.live - k; t < best {
			best = t
		}
		if d < best {
			pos, idx = r.cursor.pos, r.cursor.liveIdx
		}
	}
	for idx < k {
		pos++
		if !r.order[pos].tombstone {
			idx++
		}
	}
	for idx > k {
		pos--
		if !r.order[pos].tombstone {
			idx--
		}
	}
	return pos
}

// PrepareInsertAfter returns the downstream op inserting value after the
// element tagged after (zero Tag = head).
func (r *RGA) PrepareInsertAfter(after Tag, value string) Op {
	return Op{RGA: &RGAOp{After: after, Value: value}}
}

// PrepareDelete returns the downstream op deleting the element tagged target.
func (r *RGA) PrepareDelete(target Tag) Op {
	return Op{RGA: &RGAOp{Delete: true, Target: target}}
}

// PrepareInsertAt returns the downstream op inserting value so that it lands
// at index i of the current live sequence (0 inserts at the head). The
// anchor is resolved via the cursor when it is closer than the sequence
// ends, so a typing burst pays O(1) per keystroke instead of a full
// materialisation.
func (r *RGA) PrepareInsertAt(i int, value string) Op {
	if i <= 0 || r.live == 0 {
		return r.PrepareInsertAfter(Tag{}, value)
	}
	if i > r.live {
		i = r.live
	}
	return r.PrepareInsertAfter(r.order[r.livePos(i-1)].id, value)
}

// PrepareDeleteAt returns the downstream op deleting the live element at
// index i, or a zero Op and false if i is out of range.
func (r *RGA) PrepareDeleteAt(i int) (Op, bool) {
	if i < 0 || i >= r.live {
		return Op{}, false
	}
	return r.PrepareDelete(r.order[r.livePos(i)].id), true
}
