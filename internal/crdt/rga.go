package crdt

import (
	"fmt"
	"maps"
	"slices"
	"strings"
	"sync/atomic"
)

// RGAOp inserts an element after an existing one, or deletes an element, in
// a Replicated Growable Array (the sequence CRDT used for collaborative
// editing).
type RGAOp struct {
	// After is the tag of the element the new element goes after; the zero
	// Tag means the head of the sequence. Only meaningful for inserts.
	After Tag
	// Value is the inserted element (typically a character or a chunk).
	Value string
	// Delete marks a deletion of Target instead of an insert.
	Delete bool
	Target Tag
}

const (
	// rgaChunkMax bounds the elements of one chunk: an insert shifts at most
	// this many, and a fork's first write to a chunk copies at most this many.
	rgaChunkMax = 64
	// rgaChunkFill is how full a packed chunk is (after a decode or a
	// compaction repack) and where an append at the document's end opens a
	// new chunk: the slack lets later mid-document inserts land without a
	// split.
	rgaChunkFill = rgaChunkMax * 3 / 4
	// rgaOverlayMax bounds the index overlay a fork copies on its first
	// write; a full overlay becomes an index level.
	rgaOverlayMax = 128
	// rgaLevelRatio is the least size ratio between adjacent shared index
	// levels.
	rgaLevelRatio = 4
)

// rgaTokens mints owner tokens. Token 0 belongs to every RGA made by NewRGA
// or a decode: such an RGA shares nothing, and sharing only ever starts when
// Clone or Fork copies a sealed RGA under a fresh token.
var rgaTokens atomic.Uint64

// rgaElem is one element of the RGA: its identity, the anchor it was
// inserted after (zero Tag = head), and its payload. Elements — including
// tombstones — are kept in document order, which is the pre-order traversal
// of the conceptual RGA tree with siblings in descending tag order.
type rgaElem struct {
	id        Tag
	after     Tag
	value     string
	tombstone bool
}

// rgaChunk is a run of at most rgaChunkMax consecutive elements. Only the
// RGA holding the owner token writes it; any other copies it first. id names
// the chunk in the index and survives those copies.
type rgaChunk struct {
	owner uint64
	id    chunkID
	live  int32
	elems []rgaElem
}

// chunkID names a chunk in the index; -1 marks a removal.
type chunkID int32

func (c chunkID) removal() bool { return c < 0 }

// goneAnchor is the gone entry of a compacted tombstone: the anchor it was
// inserted after. A resurrected entry marks a removal.
type goneAnchor struct {
	after       Tag
	resurrected bool
}

func (g goneAnchor) removal() bool { return g.resurrected }

// tagValue is what a tagMap holds; a value whose removal is true marks the
// tag as removed.
type tagValue interface{ removal() bool }

// tagMap maps tags to values — the index maps each element to its chunk,
// gone each compacted tombstone to its anchor — as a stack of levels, newest
// last, and a small overlay above them. A level is written only by the RGA
// holding its owner token and is shared read-only by forks; a writer that
// owns no level on top records its writes in the overlay, which a fork
// copies on its first write. A full overlay becomes the newest level, merged
// into the levels below while the next one down is owned or at most
// rgaLevelRatio times its size, so levels grow geometrically downwards, a
// lookup probes O(log n) maps, and a fork that writes k entries copies
// O(k + rgaOverlayMax) of them, however many the map holds. A removal is
// dropped when it reaches the bottom level.
type tagMap[V tagValue] struct {
	levels  []tagLevel[V]
	overlay map[Tag]V
	owner   uint64 // the RGA that may write overlay
}

type tagLevel[V tagValue] struct {
	m     map[Tag]V
	owner uint64
}

func (x *tagMap[V]) get(id Tag) (V, bool) {
	if v, ok := x.overlay[id]; ok {
		return v, !v.removal()
	}
	for i := len(x.levels) - 1; i >= 0; i-- {
		if v, ok := x.levels[i].m[id]; ok {
			return v, !v.removal()
		}
	}
	var none V
	return none, false
}

// has reports whether id maps to a value.
func (x *tagMap[V]) has(id Tag) bool {
	_, ok := x.get(id)
	return ok
}

// set maps id to v (a removal when v.removal()) on behalf of owner.
func (x *tagMap[V]) set(owner uint64, id Tag, v V) {
	if n := len(x.levels); x.overlay == nil && n > 0 && x.levels[n-1].owner == owner {
		putLevel(x.levels[n-1].m, id, v, n == 1)
		return
	}
	if x.owner != owner || x.overlay == nil {
		if len(x.overlay) > 0 {
			cowCopies.Add(1)
		}
		overlay := make(map[Tag]V, max(8, len(x.overlay)+1))
		maps.Copy(overlay, x.overlay)
		x.overlay, x.owner = overlay, owner
	}
	x.overlay[id] = v
	if len(x.overlay) < rgaOverlayMax {
		return
	}
	top, n := x.overlay, len(x.levels)
	for ; n > 0; n-- {
		below := x.levels[n-1]
		if below.owner != owner {
			if len(below.m) > rgaLevelRatio*len(top) {
				break
			}
			m := make(map[Tag]V, len(below.m)+len(top))
			maps.Copy(m, below.m)
			below.m = m
			cowCopies.Add(1)
		}
		for id, v := range top {
			putLevel(below.m, id, v, n == 1)
		}
		top = below.m
	}
	x.levels = append(x.levels[:n:n], tagLevel[V]{top, owner}) // a new slice: forks share the old one
	x.overlay = nil
}

// putLevel writes one entry into a level; the bottom level drops removals.
func putLevel[V tagValue](m map[Tag]V, id Tag, v V, bottom bool) {
	if bottom && v.removal() {
		delete(m, id)
	} else {
		m[id] = v
	}
}

// each calls fn for every tag the map holds and its value, in no order.
func (x *tagMap[V]) each(fn func(Tag, V)) {
	if x.overlay == nil && len(x.levels) <= 1 {
		for _, l := range x.levels {
			for id, v := range l.m {
				if !v.removal() {
					fn(id, v)
				}
			}
		}
		return
	}
	seen := make(map[Tag]bool)
	visit := func(m map[Tag]V) {
		for id, v := range m {
			if !seen[id] {
				seen[id] = true
				if !v.removal() {
					fn(id, v)
				}
			}
		}
	}
	visit(x.overlay)
	for i := len(x.levels) - 1; i >= 0; i-- {
		visit(x.levels[i].m)
	}
}

// flat returns a one-level copy of x that owner may write and x's writers
// never touch.
func (x *tagMap[V]) flat(owner uint64) tagMap[V] {
	m := make(map[Tag]V)
	x.each(func(id Tag, v V) { m[id] = v })
	if len(m) == 0 {
		return tagMap[V]{}
	}
	return tagMap[V]{levels: []tagLevel[V]{{m, owner}}}
}

// RGA is a Replicated Growable Array: a sequence CRDT supporting concurrent
// insert-after and delete. Concurrent inserts at the same position are
// ordered by descending update tag, so all replicas linearise identically.
// Deletions leave tombstones (the identifier space must stay stable for
// later concurrent inserts to anchor on) until the store's K-stable
// advancement cut lets CompactTombstones reclaim them.
//
// The sequence is a list of copy-on-write chunks, each at most rgaChunkMax
// elements with its own live count. Forking a sealed RGA shares every
// container and mints the fork a fresh owner token; the fork's first write
// then copies the chunk list (a pointer per chunk) and the chunk it touches,
// never the document. An insert shifts elements inside one chunk and splits
// it when full, and the index resolves a tag to its chunk, which a scan of
// at most rgaChunkMax elements finishes. Traversal is iterative, however
// deep the edit chain.
type RGA struct {
	owner  uint64
	chunks []*rgaChunk
	// where maps a chunk id to the chunk's position in chunks, -1 once the
	// chunk is retired. chunks and where belong to listOwner.
	where     []int32
	listOwner uint64
	index     tagMap[chunkID]
	// gone records compacted tombstones: id -> the anchor the element was
	// inserted after. A late operation referencing a compacted element
	// resurrects it (as a tombstone, at its original deterministic position)
	// so replicas that compacted at different times still converge.
	gone tagMap[goneAnchor]
	live int
	// unswept counts the tombstones made since the last compaction. Only a
	// new tombstone can make an old one reclaimable, so at zero
	// CompactTombstones has nothing to find.
	unswept int
	sealed  bool
}

var _ Object = (*RGA)(nil)
var _ Compactor = (*RGA)(nil)

// NewRGA returns an empty sequence.
func NewRGA() *RGA { return &RGA{} }

// Kind implements Object.
func (r *RGA) Kind() Kind { return KindRGA }

// ownList gives r private chunks and where slices: n/rgaChunkMax entries.
func (r *RGA) ownList() {
	if r.listOwner == r.owner {
		return
	}
	r.chunks = slices.Clone(r.chunks)
	r.where = slices.Clone(r.where)
	r.listOwner = r.owner
	cowCopies.Add(1)
}

// ownChunk returns chunk ci ready for writing, copying it first if another
// RGA owns it; extra is the room the caller is about to use.
func (r *RGA) ownChunk(ci, extra int) *rgaChunk {
	c := r.chunks[ci]
	if c.owner == r.owner {
		return c
	}
	r.ownList()
	cp := &rgaChunk{owner: r.owner, id: c.id, live: c.live}
	cp.elems = make([]rgaElem, len(c.elems), min(rgaChunkMax, len(c.elems)+extra))
	copy(cp.elems, c.elems)
	r.chunks[ci] = cp
	cowCopies.Add(1)
	return cp
}

// lookup returns the chunk position and in-chunk offset of element id.
func (r *RGA) lookup(id Tag) (ci, ei int, ok bool) {
	r.ensureIndex()
	cid, ok := r.index.get(id)
	if !ok {
		return 0, 0, false
	}
	ci = int(r.where[cid])
	elems := r.chunks[ci].elems
	for ei = range elems {
		if sameTag(elems[ei].id, id) {
			return ci, ei, true
		}
	}
	panic(fmt.Sprintf("crdt: rga index names chunk %d for %v, which does not hold it", cid, id))
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
	ci, ei, ok := r.lookup(target)
	if !ok {
		if r.gone.has(target) {
			return nil // already deleted and reclaimed
		}
		return fmt.Errorf("crdt: rga delete of unknown element %v (causal delivery violated): %w",
			target, ErrMalformedOp)
	}
	if r.chunks[ci].elems[ei].tombstone {
		return nil
	}
	c := r.ownChunk(ci, 0)
	c.elems[ei].tombstone = true
	c.live--
	r.live--
	r.unswept++
	return nil
}

func (r *RGA) applyInsert(id, after Tag, value string) error {
	if _, _, dup := r.lookup(id); dup {
		return nil // idempotent re-apply
	}
	if r.gone.has(id) {
		return nil // re-apply of an element already compacted away
	}
	if after != (Tag{}) {
		if _, _, ok := r.lookup(after); !ok {
			if !r.gone.has(after) {
				return fmt.Errorf("crdt: rga insert after unknown element %v (causal delivery violated): %w",
					after, ErrMalformedOp)
			}
			r.resurrect(after)
		}
	}
	ci, ei := r.insertPos(after, id)
	r.insertAt(ci, ei, rgaElem{id: id, after: after, value: value})
	r.live++
	return nil
}

// insertPos computes where an element with the given anchor and id lands:
// scan forward from the anchor, skipping (greater-tagged) siblings and their
// subtrees, and stop at the first smaller-tagged sibling or the end of the
// anchor's region. The anchor, if not the head, must be present.
func (r *RGA) insertPos(after, id Tag) (ci, ei int) {
	if after != (Tag{}) {
		ci, ei, _ = r.lookup(after)
		ei++
	}
	var skipping map[Tag]bool
	for ; ci < len(r.chunks); ci, ei = ci+1, 0 {
		elems := r.chunks[ci].elems
		for ; ei < len(elems); ei++ {
			x := &elems[ei]
			switch {
			case x.after == after:
				if id.Compare(x.id) > 0 {
					return ci, ei
				}
				if skipping == nil {
					skipping = make(map[Tag]bool, 4)
				}
				skipping[x.id] = true
			case skipping != nil && skipping[x.after]:
				skipping[x.id] = true
			default:
				return ci, ei
			}
		}
	}
	if len(r.chunks) == 0 {
		return 0, 0
	}
	return len(r.chunks) - 1, len(r.chunks[len(r.chunks)-1].elems)
}

// insertAt places e at offset ei of chunk ci. A full chunk splits in half
// first; an append at the document's end opens a new chunk once the last
// one holds rgaChunkFill elements.
func (r *RGA) insertAt(ci, ei int, e rgaElem) {
	switch n := len(r.chunks); {
	case n == 0:
		r.newChunk(0, nil)
	case ci == n-1 && ei == len(r.chunks[ci].elems) && ei >= rgaChunkFill:
		r.newChunk(n, nil)
		ci, ei = n, 0
	case len(r.chunks[ci].elems) == rgaChunkMax:
		r.split(ci)
		if half := rgaChunkMax / 2; ei > half {
			ci, ei = ci+1, ei-half
		}
	}
	c := r.ownChunk(ci, 1)
	if len(c.elems) == cap(c.elems) {
		grown := make([]rgaElem, len(c.elems), min(rgaChunkMax, max(1, 2*cap(c.elems))))
		copy(grown, c.elems)
		c.elems = grown
	}
	c.elems = c.elems[:len(c.elems)+1]
	copy(c.elems[ei+1:], c.elems[ei:])
	c.elems[ei] = e
	if !e.tombstone {
		c.live++
	}
	r.index.set(r.owner, e.id, c.id)
}

// newChunk inserts an owned chunk holding a copy of elems at position at,
// indexing the elements under its fresh id.
func (r *RGA) newChunk(at int, elems []rgaElem) *rgaChunk {
	r.ownList()
	c := &rgaChunk{owner: r.owner, id: chunkID(len(r.where))}
	c.elems = make([]rgaElem, len(elems), len(elems)+1)
	copy(c.elems, elems)
	for i := range c.elems {
		if !c.elems[i].tombstone {
			c.live++
		}
		r.index.set(r.owner, c.elems[i].id, c.id)
	}
	r.where = append(r.where, 0)
	r.chunks = slices.Insert(r.chunks, at, c)
	r.renumber(at)
	return c
}

// renumber refreshes where for the chunks from position at on.
func (r *RGA) renumber(at int) {
	for j := at; j < len(r.chunks); j++ {
		r.where[r.chunks[j].id] = int32(j)
	}
}

// split moves the upper half of the full chunk ci into a new chunk after it.
func (r *RGA) split(ci int) {
	c := r.chunks[ci]
	half := len(c.elems) / 2
	right := r.newChunk(ci+1, c.elems[half:])
	if c.owner == r.owner {
		clear(c.elems[half:])
		c.elems = c.elems[:half]
		c.live -= right.live
		return
	}
	left := &rgaChunk{owner: r.owner, id: c.id, live: c.live - right.live}
	left.elems = make([]rgaElem, half, half+1)
	copy(left.elems, c.elems)
	r.chunks[ci] = left
	cowCopies.Add(1)
}

// resurrect re-inserts the compacted tombstone t (and, transitively, any
// compacted anchors it depends on) at its original position. The position
// is deterministic — RGA order is a function of the set of (id, after)
// pairs — so replicas that compacted at different times converge.
func (r *RGA) resurrect(t Tag) {
	chain := []Tag{t}
	for {
		g, _ := r.gone.get(chain[len(chain)-1])
		a := g.after
		if a == (Tag{}) {
			break
		}
		if _, _, present := r.lookup(a); present {
			break
		}
		if !r.gone.has(a) {
			break // anchor truly unknown; insertPos anchors at head
		}
		chain = append(chain, a)
	}
	for i := len(chain) - 1; i >= 0; i-- {
		id := chain[i]
		g, _ := r.gone.get(id)
		after := g.after
		if after != (Tag{}) {
			if _, _, present := r.lookup(after); !present {
				after = Tag{}
			}
		}
		ci, ei := r.insertPos(after, id)
		r.insertAt(ci, ei, rgaElem{id: id, after: after, tombstone: true})
		r.unswept++
		r.gone.set(r.owner, id, goneAnchor{resurrected: true})
	}
}

// CompactTombstones implements Compactor: it removes every tombstone that no
// retained element uses as its anchor, remembering the reclaimed ids in the
// gone map so late operations referencing them still converge. Called by the
// store on the freshly folded base during K-stable advancement. With no
// tombstone made since the last compaction it returns at once.
func (r *RGA) CompactTombstones() int {
	if r.sealed || r.unswept == 0 {
		return 0
	}
	r.unswept = 0
	// In document order an element's first child directly follows it, so a
	// tombstone is reclaimable exactly when the next element kept is not its
	// child. Scanning backward decides an element after all its descendants,
	// so one pass reclaims whole chains. drops lists the reclaimed positions
	// last first.
	type position struct{ ci, ei int }
	var drops []position
	var next *rgaElem
	for ci := len(r.chunks) - 1; ci >= 0; ci-- {
		elems := r.chunks[ci].elems
		for ei := len(elems) - 1; ei >= 0; ei-- {
			e := &elems[ei]
			if e.tombstone && (next == nil || !sameTag(next.after, e.id)) {
				drops = append(drops, position{ci, ei})
				continue
			}
			next = e
		}
	}
	if len(drops) == 0 {
		return 0
	}
	r.ownList()
	r.ensureIndex()
	kept, total, d := r.chunks[:0], 0, len(drops)-1
	for ci, c := range r.chunks {
		if d < 0 || drops[d].ci != ci {
			kept = append(kept, c)
			total += len(c.elems)
			continue
		}
		keep := make([]rgaElem, 0, len(c.elems))
		for ei := range c.elems {
			if e := &c.elems[ei]; d >= 0 && drops[d] == (position{ci, ei}) {
				r.gone.set(r.owner, e.id, goneAnchor{after: e.after})
				r.index.set(r.owner, e.id, -1)
				d--
			} else {
				keep = append(keep, *e)
			}
		}
		if len(keep) == 0 {
			r.where[c.id] = -1
			continue
		}
		kept = append(kept, &rgaChunk{owner: r.owner, id: c.id, live: c.live, elems: keep})
		total += len(keep)
		cowCopies.Add(1)
	}
	clear(r.chunks[len(kept):])
	r.chunks = kept
	if len(r.chunks) > 2*(total/rgaChunkFill+1) {
		r.pack(r.all()) // many near-empty chunks left: lay the document out afresh
	} else {
		r.renumber(0)
	}
	return len(drops)
}

// sameTag is Tag equality, comparing the cheap field first.
func sameTag(a, b Tag) bool { return a.Dot.Seq == b.Dot.Seq && a == b }

// all returns every element, tombstones included, in document order.
func (r *RGA) all() []rgaElem {
	n := 0
	for _, c := range r.chunks {
		n += len(c.elems)
	}
	out := make([]rgaElem, 0, n)
	for _, c := range r.chunks {
		out = append(out, c.elems...)
	}
	return out
}

// pack lays elems out afresh in owned chunks of rgaChunkFill elements. The
// index is left unbuilt: a decoded or cloned copy that is only read never
// pays for it.
func (r *RGA) pack(elems []rgaElem) {
	r.chunks, r.where, r.listOwner = nil, nil, r.owner
	r.index = tagMap[chunkID]{}
	r.live = 0
	for len(elems) > 0 {
		n := min(len(elems), rgaChunkFill)
		c := &rgaChunk{owner: r.owner, id: chunkID(len(r.chunks)), elems: elems[:n:n]}
		for i := range c.elems {
			if !c.elems[i].tombstone {
				c.live++
			}
		}
		r.live += int(c.live)
		r.where = append(r.where, int32(c.id))
		r.chunks = append(r.chunks, c)
		elems = elems[n:]
	}
}

// indexed reports whether r's index is built: pack leaves it unbuilt, and
// every other writer keeps it.
func (r *RGA) indexed() bool {
	return r.index.levels != nil || r.index.overlay != nil || len(r.chunks) == 0
}

// ensureIndex builds an unbuilt index as one owned level. Only an RGA that
// may write calls it, before its first index read or write.
func (r *RGA) ensureIndex() {
	if r.indexed() {
		return
	}
	n := 0
	for _, c := range r.chunks {
		n += len(c.elems)
	}
	bottom := make(map[Tag]chunkID, n)
	for _, c := range r.chunks {
		for i := range c.elems {
			bottom[c.elems[i].id] = c.id
		}
	}
	r.index.levels = []tagLevel[chunkID]{{bottom, r.owner}}
}

// Value implements Object, returning the concatenated live elements as a
// string.
func (r *RGA) Value() any { return r.String() }

// String returns the sequence contents.
func (r *RGA) String() string {
	var sb strings.Builder
	for _, c := range r.chunks {
		for i := range c.elems {
			if !c.elems[i].tombstone {
				sb.WriteString(c.elems[i].value)
			}
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
	for _, c := range r.chunks {
		for i := range c.elems {
			if c.elems[i].tombstone {
				continue
			}
			out = append(out, struct {
				Tag   Tag
				Value string
			}{Tag: c.elems[i].id, Value: c.elems[i].value})
		}
	}
	return out
}

// Len returns the number of live elements.
func (r *RGA) Len() int { return r.live }

// Clone implements Object. A sealed RGA never writes again, so its copy
// shares every container under a fresh owner token and copies what it
// writes. An unsealed RGA may still write what it owns, so its copy is laid
// out afresh; Clone never writes to its receiver.
func (r *RGA) Clone() Object {
	cp := *r
	cp.owner = rgaTokens.Add(1)
	cp.sealed = false
	if !r.sealed {
		cp.pack(r.all())
		cp.gone = r.gone.flat(cp.owner)
	}
	return &cp
}

// Seal implements Object. A sealed RGA never writes, so the containers it
// owns become read-only and shareable.
func (r *RGA) Seal() { r.sealed = true }

// Sealed implements Object.
func (r *RGA) Sealed() bool { return r.sealed }

// Fork implements Object; it is Clone, which shares a sealed RGA's
// containers.
func (r *RGA) Fork() Object { return r.Clone() }

// liveAt returns the k-th live element, walking whole chunks by their live
// counts from the nearer end of the sequence. Read-pure, so it is safe on
// shared sealed snapshots. Requires 0 <= k < r.live.
func (r *RGA) liveAt(k int) *rgaElem {
	if k < r.live-k {
		for _, c := range r.chunks {
			if k >= int(c.live) {
				k -= int(c.live)
				continue
			}
			for i := range c.elems {
				if !c.elems[i].tombstone {
					if k == 0 {
						return &c.elems[i]
					}
					k--
				}
			}
		}
	} else {
		k = r.live - 1 - k // counted from the tail
		for ci := len(r.chunks) - 1; ci >= 0; ci-- {
			c := r.chunks[ci]
			if k >= int(c.live) {
				k -= int(c.live)
				continue
			}
			for i := len(c.elems) - 1; i >= 0; i-- {
				if !c.elems[i].tombstone {
					if k == 0 {
						return &c.elems[i]
					}
					k--
				}
			}
		}
	}
	panic("crdt: rga live counts disagree with its elements")
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
// anchor is found by skipping whole chunks, so it costs O(n/rgaChunkMax +
// rgaChunkMax), and O(rgaChunkMax) near either end.
func (r *RGA) PrepareInsertAt(i int, value string) Op {
	if i <= 0 || r.live == 0 {
		return r.PrepareInsertAfter(Tag{}, value)
	}
	if i > r.live {
		i = r.live
	}
	return r.PrepareInsertAfter(r.liveAt(i-1).id, value)
}

// PrepareDeleteAt returns the downstream op deleting the live element at
// index i, or a zero Op and false if i is out of range.
func (r *RGA) PrepareDeleteAt(i int) (Op, bool) {
	if i < 0 || i >= r.live {
		return Op{}, false
	}
	return r.PrepareDelete(r.liveAt(i).id), true
}
