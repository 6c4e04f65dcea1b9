package crdt

import (
	"fmt"
	"sort"

	"colony/internal/bin"
)

// This file gives every CRDT kind a canonical binary state encoding, used by
// the wire codec to ship materialised objects (wire.ObjectState) across
// process boundaries — subscribe acks and fetch replies over the TCP
// transport. In-process transports keep passing the sealed snapshot pointer
// and never pay for this.
//
// The encoding is deterministic: map-backed containers are sorted (elements
// by string, tags by arbitration order) before writing, so equal states
// produce equal bytes — which golden tests and content fingerprints rely on.
// It is also versionless by construction: the kind byte in front selects the
// layout, and layouts only grow behind new kinds. Reading is bounds-checked
// by bin.Reader, so corrupt input fails with ErrMalformedState rather than
// panicking or over-allocating.

// ErrMalformedState is returned by UnmarshalState for input that is not a
// canonical state encoding (truncated, trailing bytes, unknown kind, or
// invalid field values).
var ErrMalformedState = fmt.Errorf("crdt: malformed state encoding")

// MarshalState appends the canonical binary encoding of o's state to buf and
// returns the extended slice. It is read-pure, so it is safe on sealed
// snapshots shared with concurrent readers. A nil object encodes as kind 0,
// letting callers embed "no state" without a side channel.
func MarshalState(buf []byte, o Object) ([]byte, error) {
	if o == nil {
		return append(buf, 0), nil
	}
	buf = append(buf, byte(o.Kind()))
	switch v := o.(type) {
	case *Counter:
		return bin.AppendVarint(buf, v.total), nil
	case *LWWRegister:
		buf = bin.AppendBool(buf, v.set)
		if v.set {
			buf = bin.AppendString(buf, v.value)
			buf = appendTag(buf, v.tag)
		}
		return buf, nil
	case *MVRegister:
		entries := make([]mvEntry, len(v.entries))
		copy(entries, v.entries)
		sort.Slice(entries, func(i, j int) bool { return entries[i].tag.Compare(entries[j].tag) < 0 })
		buf = bin.AppendUvarint(buf, uint64(len(entries)))
		for _, e := range entries {
			buf = bin.AppendString(buf, e.value)
			buf = appendTag(buf, e.tag)
		}
		return buf, nil
	case *ORSet:
		elems := make([]string, 0, len(v.elems))
		for e := range v.elems {
			elems = append(elems, e)
		}
		sort.Strings(elems)
		buf = bin.AppendUvarint(buf, uint64(len(elems)))
		for _, e := range elems {
			buf = bin.AppendString(buf, e)
			buf = appendTagSet(buf, v.elems[e].tags)
		}
		return buf, nil
	case *ORMap:
		keys := make([]string, 0, len(v.entries))
		for k := range v.entries {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		buf = bin.AppendUvarint(buf, uint64(len(keys)))
		for _, k := range keys {
			entry := v.entries[k]
			buf = bin.AppendString(buf, k)
			var err error
			buf, err = MarshalState(buf, entry.object)
			if err != nil {
				return nil, err
			}
			buf = appendTagSet(buf, entry.presence)
		}
		return buf, nil
	case *Flag:
		return appendTagSet(buf, v.tokens), nil
	case *RGA:
		n := 0
		for _, c := range v.chunks {
			n += len(c.elems)
		}
		buf = bin.AppendUvarint(buf, uint64(n))
		for _, c := range v.chunks {
			for i := range c.elems {
				e := &c.elems[i]
				buf = appendTag(buf, e.id)
				buf = appendTag(buf, e.after)
				buf = bin.AppendString(buf, e.value)
				buf = bin.AppendBool(buf, e.tombstone)
			}
		}
		gone := make([]Tag, 0, len(v.gone))
		for t := range v.gone {
			gone = append(gone, t)
		}
		sort.Slice(gone, func(i, j int) bool { return gone[i].Compare(gone[j]) < 0 })
		buf = bin.AppendUvarint(buf, uint64(len(gone)))
		for _, t := range gone {
			buf = appendTag(buf, t)
			buf = appendTag(buf, v.gone[t])
		}
		return buf, nil
	default:
		return nil, fmt.Errorf("crdt: cannot marshal state of %T", o)
	}
}

// UnmarshalState decodes one canonical state encoding produced by
// MarshalState, returning a fresh, unsealed object (or nil for the nil
// encoding). The input must be exactly one encoding: trailing bytes are
// malformed.
func UnmarshalState(data []byte) (Object, error) {
	r := bin.NewReader(data)
	o, err := readState(r)
	if err != nil {
		return nil, err
	}
	if !r.Complete() {
		return nil, ErrMalformedState
	}
	return o, nil
}

// readState decodes one state encoding from r's current position; nested
// kinds (ORMap values) recurse.
func readState(r *bin.Reader) (Object, error) {
	kind := Kind(r.Byte())
	if kind == 0 {
		if r.Err() {
			return nil, ErrMalformedState
		}
		return nil, nil
	}
	switch kind {
	case KindCounter:
		c := NewCounter()
		c.total = r.Varint()
		return finish(r, c)
	case KindLWWRegister:
		reg := NewLWWRegister()
		if r.Bool() {
			reg.set = true
			reg.value = r.String()
			reg.tag = readTag(r)
		}
		return finish(r, reg)
	case KindMVRegister:
		reg := NewMVRegister()
		n := r.Count(1)
		reg.entries = make([]mvEntry, 0, n)
		for i := 0; i < n; i++ {
			value := r.String()
			reg.entries = append(reg.entries, mvEntry{value: value, tag: readTag(r)})
		}
		return finish(r, reg)
	case KindORSet:
		s := NewORSet()
		n := r.Count(2)
		for i := 0; i < n; i++ {
			elem := r.String()
			tags := readTagSet(r)
			if len(tags) == 0 {
				return nil, ErrMalformedState // members always carry ≥1 add tag
			}
			s.elems[elem] = &orsetEntry{tags: tags}
		}
		return finish(r, s)
	case KindORMap:
		m := NewORMap()
		n := r.Count(3)
		for i := 0; i < n; i++ {
			key := r.String()
			nested, err := readState(r)
			if err != nil {
				return nil, err
			}
			if nested == nil {
				return nil, ErrMalformedState // map entries always hold an object
			}
			m.entries[key] = &mapEntry{
				kind:     nested.Kind(),
				object:   nested,
				presence: readTagSet(r),
			}
		}
		return finish(r, m)
	case KindFlag:
		f := NewFlag()
		f.tokens = readTagSet(r)
		return finish(r, f)
	case KindRGA:
		rga := NewRGA()
		n := r.Count(4)
		elems := make([]rgaElem, 0, n)
		for i := 0; i < n; i++ {
			e := rgaElem{id: readTag(r), after: readTag(r)}
			e.value = r.String()
			e.tombstone = r.Bool()
			if e.tombstone {
				rga.unswept++
			}
			elems = append(elems, e)
		}
		ng := r.Count(2)
		if ng > 0 {
			rga.gone = make(map[Tag]Tag, ng)
			for i := 0; i < ng; i++ {
				id := readTag(r)
				rga.gone[id] = readTag(r)
			}
		}
		rga.pack(elems)
		return finish(r, rga)
	default:
		return nil, fmt.Errorf("%w: unknown kind %d", ErrMalformedState, kind)
	}
}

// finish converts the reader's sticky error into ErrMalformedState.
func finish(r *bin.Reader, o Object) (Object, error) {
	if r.Err() {
		return nil, ErrMalformedState
	}
	return o, nil
}

// appendTag encodes an update tag: origin node, dot sequence, in-transaction
// sequence.
func appendTag(buf []byte, t Tag) []byte {
	buf = bin.AppendString(buf, t.Dot.Node)
	buf = bin.AppendUvarint(buf, t.Dot.Seq)
	return bin.AppendVarint(buf, int64(t.Seq))
}

// readTag decodes one update tag.
func readTag(r *bin.Reader) Tag {
	var t Tag
	t.Dot.Node = r.String()
	t.Dot.Seq = r.Uvarint()
	t.Seq = int(r.Varint())
	return t
}

// appendTagSet encodes a tag set in arbitration order (deterministic bytes).
func appendTagSet(buf []byte, set map[Tag]bool) []byte {
	tags := make([]Tag, 0, len(set))
	for t := range set {
		tags = append(tags, t)
	}
	sort.Slice(tags, func(i, j int) bool { return tags[i].Compare(tags[j]) < 0 })
	buf = bin.AppendUvarint(buf, uint64(len(tags)))
	for _, t := range tags {
		buf = appendTag(buf, t)
	}
	return buf
}

// readTagSet decodes a tag set (nil when empty).
func readTagSet(r *bin.Reader) map[Tag]bool {
	n := r.Count(2)
	set := make(map[Tag]bool, n)
	for i := 0; i < n; i++ {
		set[readTag(r)] = true
	}
	return set
}
