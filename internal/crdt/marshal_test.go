package crdt

import (
	"bytes"
	"encoding/hex"
	"reflect"
	"testing"
)

// buildSamples returns one non-trivially populated object per kind.
func buildSamples(t *testing.T) []Object {
	t.Helper()
	apply := func(o Object, m Meta, op Op) {
		t.Helper()
		if err := o.Apply(m, op); err != nil {
			t.Fatalf("apply: %v", err)
		}
	}

	c := NewCounter()
	apply(c, meta("a", 1, 0), c.PrepareIncrement(41))
	apply(c, meta("b", 1, 0), c.PrepareIncrement(-40))

	lww := NewLWWRegister()
	apply(lww, meta("a", 2, 0), lww.PrepareAssign("first"))
	apply(lww, meta("b", 3, 1), lww.PrepareAssign("winner"))

	mv := NewMVRegister()
	apply(mv, meta("a", 4, 0), mv.PrepareAssign("left"))
	apply(mv, meta("b", 4, 0), Op{MV: &MVRegisterOp{Value: "right"}}) // concurrent sibling

	set := NewORSet()
	apply(set, meta("a", 5, 0), set.PrepareAdd("x"))
	apply(set, meta("b", 5, 0), set.PrepareAdd("x")) // second observed add tag
	apply(set, meta("a", 6, 0), set.PrepareAdd("y"))
	apply(set, meta("a", 7, 0), set.PrepareRemove("y"))
	apply(set, meta("a", 8, 0), set.PrepareAdd("z"))

	m := NewORMap()
	apply(m, meta("a", 9, 0), m.PrepareUpdate("hits", KindCounter, Op{Counter: &CounterOp{Delta: 7}}))
	apply(m, meta("a", 10, 0), m.PrepareUpdate("title", KindLWWRegister, Op{LWW: &LWWRegisterOp{Value: "t"}}))
	apply(m, meta("a", 11, 0), m.PrepareUpdate("tags", KindORSet, Op{Set: &ORSetOp{Elem: "go"}}))

	f := NewFlag()
	apply(f, meta("a", 12, 0), f.PrepareEnable())
	apply(f, meta("b", 12, 0), f.PrepareEnable())

	r := NewRGA()
	apply(r, meta("a", 13, 0), r.PrepareInsertAt(0, "h"))
	apply(r, meta("a", 14, 0), r.PrepareInsertAt(1, "i"))
	apply(r, meta("a", 15, 0), r.PrepareInsertAt(2, "!"))
	op, ok := r.PrepareDeleteAt(2)
	if !ok {
		t.Fatal("delete prep failed")
	}
	apply(r, meta("a", 16, 0), op)

	return []Object{c, lww, mv, set, m, f, r}
}

// TestMarshalStateRoundTrip round-trips every kind and checks semantic
// equality via Value() plus byte-identical re-marshal (canonical encoding).
func TestMarshalStateRoundTrip(t *testing.T) {
	for _, o := range buildSamples(t) {
		t.Run(o.Kind().String(), func(t *testing.T) {
			b1, err := MarshalState(nil, o)
			if err != nil {
				t.Fatalf("marshal: %v", err)
			}
			back, err := UnmarshalState(b1)
			if err != nil {
				t.Fatalf("unmarshal: %v", err)
			}
			if back.Kind() != o.Kind() {
				t.Fatalf("kind %v -> %v", o.Kind(), back.Kind())
			}
			if back.Sealed() {
				t.Error("unmarshal must yield an unsealed object")
			}
			if !reflect.DeepEqual(o.Value(), back.Value()) {
				t.Errorf("value mismatch:\n got %#v\nwant %#v", back.Value(), o.Value())
			}
			b2, err := MarshalState(nil, back)
			if err != nil {
				t.Fatalf("re-marshal: %v", err)
			}
			if !bytes.Equal(b1, b2) {
				t.Errorf("non-canonical encoding:\n b1 %x\n b2 %x", b1, b2)
			}
		})
	}
}

// TestMarshalStateSealedIsReadPure verifies encoding a sealed snapshot works
// and leaves it byte-identical (the wire codec encodes cache snapshots in
// place, with readers active).
func TestMarshalStateSealedIsReadPure(t *testing.T) {
	for _, o := range buildSamples(t) {
		sealed := o.Clone()
		sealed.Seal()
		before, err := MarshalState(nil, o)
		if err != nil {
			t.Fatal(err)
		}
		got, err := MarshalState(nil, sealed)
		if err != nil {
			t.Fatalf("%v: marshal sealed: %v", o.Kind(), err)
		}
		if !bytes.Equal(before, got) {
			t.Errorf("%v: sealed encoding differs from mutable encoding", o.Kind())
		}
		if !sealed.Sealed() {
			t.Errorf("%v: marshal unsealed the snapshot", o.Kind())
		}
	}
}

// TestUnmarshalStateIsMutable verifies decoded objects accept further ops
// (receivers Seed caches from shipped state and keep applying).
func TestUnmarshalStateIsMutable(t *testing.T) {
	for _, o := range buildSamples(t) {
		b, err := MarshalState(nil, o)
		if err != nil {
			t.Fatal(err)
		}
		back, err := UnmarshalState(b)
		if err != nil {
			t.Fatal(err)
		}
		var op Op
		switch v := back.(type) {
		case *Counter:
			op = v.PrepareIncrement(1)
		case *LWWRegister:
			op = v.PrepareAssign("next")
		case *MVRegister:
			op = v.PrepareAssign("next")
		case *ORSet:
			op = v.PrepareAdd("next")
		case *ORMap:
			op = v.PrepareUpdate("hits", KindCounter, Op{Counter: &CounterOp{Delta: 1}})
		case *Flag:
			op = v.PrepareDisable()
		case *RGA:
			op = v.PrepareInsertAt(v.Len(), "+")
		}
		if err := back.Apply(meta("z", 99, 0), op); err != nil {
			t.Errorf("%v: apply after unmarshal: %v", back.Kind(), err)
		}
	}
}

// TestRGACompactedRoundTrip exercises the gone map: tombstone compaction
// state must survive the wire so late operations still converge.
func TestRGACompactedRoundTrip(t *testing.T) {
	r := NewRGA()
	if err := r.Apply(meta("a", 1, 0), r.PrepareInsertAt(0, "x")); err != nil {
		t.Fatal(err)
	}
	if err := r.Apply(meta("a", 2, 0), r.PrepareInsertAt(1, "y")); err != nil {
		t.Fatal(err)
	}
	op, _ := r.PrepareDeleteAt(1)
	if err := r.Apply(meta("a", 3, 0), op); err != nil {
		t.Fatal(err)
	}
	if n := r.CompactTombstones(); n != 1 {
		t.Fatalf("compacted %d, want 1", n)
	}
	b, err := MarshalState(nil, r)
	if err != nil {
		t.Fatal(err)
	}
	back, err := UnmarshalState(b)
	if err != nil {
		t.Fatal(err)
	}
	rb := back.(*RGA)
	if rb.String() != "x" || rb.Len() != 1 {
		t.Fatalf("state: %q len %d", rb.String(), rb.Len())
	}
	n := 0
	rb.gone.each(func(Tag, goneAnchor) { n++ })
	if n != 1 {
		t.Fatalf("gone map lost: %d entries", n)
	}
}

// TestUnmarshalStateRejectsCorruption feeds truncations and garbage.
func TestUnmarshalStateRejectsCorruption(t *testing.T) {
	if _, err := UnmarshalState([]byte{}); err == nil {
		t.Error("empty input accepted")
	}
	if _, err := UnmarshalState([]byte{99}); err == nil {
		t.Error("unknown kind accepted")
	}
	if o, err := UnmarshalState([]byte{0}); err != nil || o != nil {
		t.Errorf("nil encoding: %v, %v", o, err)
	}
	for _, o := range buildSamples(t) {
		b, err := MarshalState(nil, o)
		if err != nil {
			t.Fatal(err)
		}
		for cut := 0; cut < len(b); cut++ {
			if _, err := UnmarshalState(b[:cut]); err == nil {
				t.Errorf("%v: truncation at %d/%d accepted", o.Kind(), cut, len(b))
			}
		}
		withTrailing := append(append([]byte{}, b...), 0xab)
		if _, err := UnmarshalState(withTrailing); err == nil {
			t.Errorf("%v: trailing bytes accepted", o.Kind())
		}
	}
}

// TestMarshalNilObject pins the nil encoding used by ObjectState.Object.
func TestMarshalNilObject(t *testing.T) {
	b, err := MarshalState(nil, nil)
	if err != nil || !bytes.Equal(b, []byte{0}) {
		t.Fatalf("nil marshal: %x, %v", b, err)
	}
}

// goldenRGAState is the canonical MarshalState encoding of goldenRGA's
// document. It pins the RGA's wire layout (every element, tombstones
// included, in document order, then the gone map in tag order), so a change
// to the kernel's in-memory layout cannot change the bytes a replica ships.
const goldenRGAState = "07040161010000000001680101610200016101000165000161050001610200016c000162010001610100015801010161030001610200"

// goldenRGA builds a document holding live elements, a referenced and an
// unreferenced tombstone, concurrent siblings on one anchor, and one
// compacted element in its gone map.
func goldenRGA(t *testing.T) *RGA {
	t.Helper()
	r := NewRGA()
	h := meta("a", 1, 0)
	mustApply(t, r, h, r.PrepareInsertAfter(Tag{}, "h"))
	e := meta("a", 2, 0)
	mustApply(t, r, e, r.PrepareInsertAfter(h.tag(), "e"))
	x := meta("b", 1, 0) // concurrent with e on the same anchor
	mustApply(t, r, x, r.PrepareInsertAfter(h.tag(), "X"))
	y := meta("a", 3, 0)
	mustApply(t, r, y, r.PrepareInsertAfter(e.tag(), "y"))
	mustApply(t, r, meta("a", 4, 0), r.PrepareDelete(y.tag()))
	if n := r.CompactTombstones(); n != 1 {
		t.Fatalf("compacted %d tombstones, want 1", n)
	}
	mustApply(t, r, meta("a", 5, 0), r.PrepareInsertAfter(e.tag(), "l"))
	mustApply(t, r, meta("b", 2, 0), r.PrepareDelete(x.tag()))
	mustApply(t, r, meta("a", 6, 0), r.PrepareDelete(h.tag()))
	return r
}

// TestRGAMarshalGolden checks the RGA state encoding byte for byte, and
// that decoding the golden bytes yields the same document.
func TestRGAMarshalGolden(t *testing.T) {
	r := goldenRGA(t)
	if got := r.String(); got != "el" {
		t.Fatalf("golden document reads %q, want %q", got, "el")
	}
	b, err := MarshalState(nil, r)
	if err != nil {
		t.Fatal(err)
	}
	if got := hex.EncodeToString(b); got != goldenRGAState {
		t.Fatalf("RGA state encoding changed:\n got %s\nwant %s", got, goldenRGAState)
	}
	want, _ := hex.DecodeString(goldenRGAState)
	back, err := UnmarshalState(want)
	if err != nil {
		t.Fatal(err)
	}
	rb := back.(*RGA)
	if rb.String() != "el" || rb.Len() != 2 {
		t.Fatalf("decoded golden reads %q (len %d)", rb.String(), rb.Len())
	}
	again, err := MarshalState(nil, rb)
	if err != nil {
		t.Fatal(err)
	}
	if hex.EncodeToString(again) != goldenRGAState {
		t.Fatalf("decoded golden re-encodes differently:\n got %x", again)
	}
}
