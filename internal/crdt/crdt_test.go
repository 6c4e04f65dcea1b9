package crdt

import (
	"bytes"
	"errors"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"colony/internal/bin"
	"colony/internal/vclock"
)

// meta builds update metadata for tests: node n, transaction sequence seq,
// in-transaction update index i.
func meta(n string, seq uint64, i int) Meta {
	return Meta{Dot: vclock.Dot{Node: n, Seq: seq}, Seq: i}
}

func TestKindString(t *testing.T) {
	tests := []struct {
		kind Kind
		want string
	}{
		{KindCounter, "counter"},
		{KindLWWRegister, "lwwregister"},
		{KindMVRegister, "mvregister"},
		{KindORSet, "orset"},
		{KindORMap, "ormap"},
		{KindFlag, "flag"},
		{KindRGA, "rga"},
		{Kind(99), "kind(99)"},
	}
	for _, tt := range tests {
		if got := tt.kind.String(); got != tt.want {
			t.Errorf("Kind(%d).String() = %q, want %q", tt.kind, got, tt.want)
		}
	}
	if Kind(0).Valid() || Kind(99).Valid() {
		t.Error("invalid kinds reported Valid")
	}
}

func TestNewAllKinds(t *testing.T) {
	for k := KindCounter; k <= KindRGA; k++ {
		obj, err := New(k)
		if err != nil {
			t.Fatalf("New(%v): %v", k, err)
		}
		if obj.Kind() != k {
			t.Fatalf("New(%v).Kind() = %v", k, obj.Kind())
		}
		clone := obj.Clone()
		if clone.Kind() != k {
			t.Fatalf("Clone changed kind to %v", clone.Kind())
		}
	}
	if _, err := New(Kind(42)); err == nil {
		t.Fatal("New of unknown kind must error")
	}
}

func TestOpKindDetection(t *testing.T) {
	if got := (Op{}).Kind(); got != 0 {
		t.Fatalf("empty op Kind = %v, want 0", got)
	}
	ambiguous := Op{Counter: &CounterOp{}, Flag: &FlagOp{}}
	if got := ambiguous.Kind(); got != 0 {
		t.Fatalf("ambiguous op Kind = %v, want 0", got)
	}
	if got := (Op{RGA: &RGAOp{}}).Kind(); got != KindRGA {
		t.Fatalf("rga op Kind = %v", got)
	}
}

func TestKindMismatchErrors(t *testing.T) {
	c := NewCounter()
	if err := c.Apply(meta("a", 1, 0), Op{Flag: &FlagOp{}}); err == nil {
		t.Fatal("counter must reject flag op")
	}
	if err := c.Apply(meta("a", 1, 0), Op{}); err == nil {
		t.Fatal("counter must reject empty op")
	}
}

func TestCounter(t *testing.T) {
	c := NewCounter()
	ops := []int64{3, -1, 10}
	for i, d := range ops {
		if err := c.Apply(meta("a", uint64(i+1), 0), c.PrepareIncrement(d)); err != nil {
			t.Fatal(err)
		}
	}
	if c.Total() != 12 {
		t.Fatalf("Total = %d, want 12", c.Total())
	}
	if v, ok := c.Value().(int64); !ok || v != 12 {
		t.Fatalf("Value = %v", c.Value())
	}
	clone := c.Clone().(*Counter)
	if err := clone.Apply(meta("b", 1, 0), clone.PrepareIncrement(5)); err != nil {
		t.Fatal(err)
	}
	if c.Total() != 12 || clone.Total() != 17 {
		t.Fatal("Clone is not independent")
	}
}

func TestLWWRegisterCausalAndConcurrent(t *testing.T) {
	r := NewLWWRegister()
	if _, set := r.Get(); set {
		t.Fatal("fresh register should be unset")
	}
	// Causal chain: later assignment wins.
	if err := r.Apply(meta("a", 1, 0), r.PrepareAssign("first")); err != nil {
		t.Fatal(err)
	}
	if err := r.Apply(meta("a", 2, 0), r.PrepareAssign("second")); err != nil {
		t.Fatal(err)
	}
	if v, _ := r.Get(); v != "second" {
		t.Fatalf("value = %q", v)
	}
	// Concurrent assignments arbitrate by tag regardless of apply order.
	r1, r2 := NewLWWRegister(), NewLWWRegister()
	opA := Op{LWW: &LWWRegisterOp{Value: "A"}}
	opB := Op{LWW: &LWWRegisterOp{Value: "B"}}
	mA, mB := meta("a", 5, 0), meta("b", 5, 0) // same seq; node "b" wins
	if err := r1.Apply(mA, opA); err != nil {
		t.Fatal(err)
	}
	if err := r1.Apply(mB, opB); err != nil {
		t.Fatal(err)
	}
	if err := r2.Apply(mB, opB); err != nil {
		t.Fatal(err)
	}
	if err := r2.Apply(mA, opA); err != nil {
		t.Fatal(err)
	}
	v1, _ := r1.Get()
	v2, _ := r2.Get()
	if v1 != v2 || v1 != "B" {
		t.Fatalf("diverged or wrong arbitration: %q vs %q", v1, v2)
	}
}

func TestMVRegisterKeepsConcurrentValues(t *testing.T) {
	// Both replicas assign concurrently from the same (empty) state.
	src1, src2 := NewMVRegister(), NewMVRegister()
	op1 := src1.PrepareAssign("x")
	op2 := src2.PrepareAssign("y")
	m1, m2 := meta("a", 1, 0), meta("b", 1, 0)

	apply := func(order []int) *MVRegister {
		r := NewMVRegister()
		for _, i := range order {
			var err error
			if i == 0 {
				err = r.Apply(m1, op1)
			} else {
				err = r.Apply(m2, op2)
			}
			if err != nil {
				t.Fatal(err)
			}
		}
		return r
	}
	a := apply([]int{0, 1})
	b := apply([]int{1, 0})
	if !reflect.DeepEqual(a.Values(), b.Values()) {
		t.Fatalf("diverged: %v vs %v", a.Values(), b.Values())
	}
	if got := a.Values(); len(got) != 2 {
		t.Fatalf("want both concurrent values, got %v", got)
	}

	// A causally later assignment overwrites both.
	r := a.Clone().(*MVRegister)
	if err := r.Apply(meta("c", 2, 0), r.PrepareAssign("z")); err != nil {
		t.Fatal(err)
	}
	if got := r.Values(); len(got) != 1 || got[0] != "z" {
		t.Fatalf("overwrite failed: %v", got)
	}
}

func TestORSetAddRemove(t *testing.T) {
	s := NewORSet()
	if err := s.Apply(meta("a", 1, 0), s.PrepareAdd("x")); err != nil {
		t.Fatal(err)
	}
	if err := s.Apply(meta("a", 2, 0), s.PrepareAdd("y")); err != nil {
		t.Fatal(err)
	}
	if !s.Contains("x") || !s.Contains("y") || s.Len() != 2 {
		t.Fatalf("unexpected contents: %v", s.Elems())
	}
	if err := s.Apply(meta("a", 3, 0), s.PrepareRemove("x")); err != nil {
		t.Fatal(err)
	}
	if s.Contains("x") {
		t.Fatal("x should be removed")
	}
	if got := s.Elems(); !reflect.DeepEqual(got, []string{"y"}) {
		t.Fatalf("Elems = %v", got)
	}
}

func TestORSetAddWins(t *testing.T) {
	// Replica A removes "x" while replica B concurrently re-adds it.
	base := NewORSet()
	addOp := base.PrepareAdd("x")
	mAdd := meta("seed", 1, 0)
	if err := base.Apply(mAdd, addOp); err != nil {
		t.Fatal(err)
	}

	ra := base.Clone().(*ORSet)
	rb := base.Clone().(*ORSet)
	removeOp := ra.PrepareRemove("x") // observes only the seed add
	mRemove := meta("a", 2, 0)
	concAdd := rb.PrepareAdd("x")
	mConcAdd := meta("b", 2, 0)

	// Apply both effects in each order.
	for _, order := range [][]int{{0, 1}, {1, 0}} {
		r := base.Clone().(*ORSet)
		for _, i := range order {
			var err error
			if i == 0 {
				err = r.Apply(mRemove, removeOp)
			} else {
				err = r.Apply(mConcAdd, concAdd)
			}
			if err != nil {
				t.Fatal(err)
			}
		}
		if !r.Contains("x") {
			t.Fatalf("add-wins violated for order %v", order)
		}
	}
}

func TestFlagEnableWins(t *testing.T) {
	f := NewFlag()
	if f.Enabled() {
		t.Fatal("fresh flag should be disabled")
	}
	if err := f.Apply(meta("a", 1, 0), f.PrepareEnable()); err != nil {
		t.Fatal(err)
	}
	if !f.Enabled() {
		t.Fatal("flag should be enabled")
	}
	// Concurrent disable (observing the enable) and a fresh enable: the flag
	// stays enabled in both application orders.
	disable := f.PrepareDisable()
	mDis := meta("a", 2, 0)
	enable := Op{Flag: &FlagOp{}}
	mEn := meta("b", 2, 0)
	for _, order := range [][]int{{0, 1}, {1, 0}} {
		g := f.Clone().(*Flag)
		for _, i := range order {
			var err error
			if i == 0 {
				err = g.Apply(mDis, disable)
			} else {
				err = g.Apply(mEn, enable)
			}
			if err != nil {
				t.Fatal(err)
			}
		}
		if !g.Enabled() {
			t.Fatalf("enable-wins violated for order %v", order)
		}
	}
	// Causally later disable turns it off.
	g := f.Clone().(*Flag)
	if err := g.Apply(meta("c", 3, 0), g.PrepareDisable()); err != nil {
		t.Fatal(err)
	}
	if g.Enabled() {
		t.Fatal("causally later disable must win")
	}
}

func TestORMapNested(t *testing.T) {
	m := NewORMap()
	// myMap.register("a").assign("42"); myMap.set("e").addAll(1,2,3,4) —
	// the example program from the paper (§6.1).
	reg := NewLWWRegister()
	op := m.PrepareUpdate("a", KindLWWRegister, reg.PrepareAssign("42"))
	if err := m.Apply(meta("n", 1, 0), op); err != nil {
		t.Fatal(err)
	}
	set := NewORSet()
	for i, e := range []string{"1", "2", "3", "4"} {
		op := m.PrepareUpdate("e", KindORSet, set.PrepareAdd(e))
		if err := m.Apply(meta("n", 2, i), op); err != nil {
			t.Fatal(err)
		}
	}
	if got := m.Len(); got != 2 {
		t.Fatalf("Len = %d", got)
	}
	val, ok := m.Value().(map[string]any)
	if !ok {
		t.Fatalf("Value type %T", m.Value())
	}
	if val["a"] != "42" {
		t.Fatalf("a = %v", val["a"])
	}
	if elems, ok := val["e"].([]string); !ok || len(elems) != 4 {
		t.Fatalf("e = %v", val["e"])
	}

	// Kind conflict on an existing key is an error.
	bad := m.PrepareUpdate("a", KindCounter, Op{Counter: &CounterOp{Delta: 1}})
	if err := m.Apply(meta("n", 3, 0), bad); err == nil {
		t.Fatal("kind conflict must error")
	}
}

func TestORMapRemoveAndUpdateWins(t *testing.T) {
	m := NewORMap()
	cnt := NewCounter()
	up := m.PrepareUpdate("k", KindCounter, cnt.PrepareIncrement(1))
	mUp := meta("a", 1, 0)
	if err := m.Apply(mUp, up); err != nil {
		t.Fatal(err)
	}

	// Plain removal hides the key.
	removed := m.Clone().(*ORMap)
	rm := removed.PrepareRemove("k")
	if err := removed.Apply(meta("a", 2, 0), rm); err != nil {
		t.Fatal(err)
	}
	if removed.Get("k") != nil {
		t.Fatal("key should be hidden after remove")
	}

	// Concurrent update and remove: update wins in both orders.
	concUp := m.PrepareUpdate("k", KindCounter, cnt.PrepareIncrement(2))
	mConc := meta("b", 2, 0)
	for _, order := range [][]int{{0, 1}, {1, 0}} {
		r := m.Clone().(*ORMap)
		for _, i := range order {
			var err error
			if i == 0 {
				err = r.Apply(meta("a", 2, 0), rm)
			} else {
				err = r.Apply(mConc, concUp)
			}
			if err != nil {
				t.Fatal(err)
			}
		}
		obj := r.Get("k")
		if obj == nil {
			t.Fatalf("update-wins violated for order %v", order)
		}
		if got := obj.(*Counter).Total(); got != 3 {
			t.Fatalf("nested state lost: total = %d, want 3", got)
		}
	}
}

func TestRGAInsertDelete(t *testing.T) {
	r := NewRGA()
	// Type "abc" sequentially.
	var last Tag
	for i, ch := range []string{"a", "b", "c"} {
		op := r.PrepareInsertAfter(last, ch)
		m := meta("n", uint64(i+1), 0)
		if err := r.Apply(m, op); err != nil {
			t.Fatal(err)
		}
		last = Tag{Dot: m.Dot, Seq: m.Seq}
	}
	if got := r.String(); got != "abc" {
		t.Fatalf("String = %q", got)
	}
	// Delete "b".
	op, ok := r.PrepareDeleteAt(1)
	if !ok {
		t.Fatal("PrepareDeleteAt failed")
	}
	if err := r.Apply(meta("n", 4, 0), op); err != nil {
		t.Fatal(err)
	}
	if got := r.String(); got != "ac" {
		t.Fatalf("after delete: %q", got)
	}
	if r.Len() != 2 {
		t.Fatalf("Len = %d", r.Len())
	}
	// Insert in the middle via index helper.
	op = r.PrepareInsertAt(1, "X")
	if err := r.Apply(meta("n", 5, 0), op); err != nil {
		t.Fatal(err)
	}
	if got := r.String(); got != "aXc" {
		t.Fatalf("after middle insert: %q", got)
	}
}

func TestRGAConcurrentInsertsConverge(t *testing.T) {
	// Two replicas insert concurrently at the head.
	op1 := Op{RGA: &RGAOp{After: Tag{}, Value: "1"}}
	op2 := Op{RGA: &RGAOp{After: Tag{}, Value: "2"}}
	m1, m2 := meta("a", 1, 0), meta("b", 1, 0)

	build := func(order []int) string {
		r := NewRGA()
		for _, i := range order {
			var err error
			if i == 0 {
				err = r.Apply(m1, op1)
			} else {
				err = r.Apply(m2, op2)
			}
			if err != nil {
				t.Fatal(err)
			}
		}
		return r.String()
	}
	a, b := build([]int{0, 1}), build([]int{1, 0})
	if a != b {
		t.Fatalf("diverged: %q vs %q", a, b)
	}
	// Node "b" has the greater tag at equal seq, so it sorts first.
	if a != "21" {
		t.Fatalf("sibling order = %q, want \"21\"", a)
	}
}

func TestRGACausalViolationErrors(t *testing.T) {
	r := NewRGA()
	bad := Op{RGA: &RGAOp{After: Tag{Dot: vclock.Dot{Node: "ghost", Seq: 9}}, Value: "x"}}
	if err := r.Apply(meta("n", 1, 0), bad); err == nil {
		t.Fatal("insert after unknown element must error")
	}
	del := Op{RGA: &RGAOp{Delete: true, Target: Tag{Dot: vclock.Dot{Node: "ghost", Seq: 9}}}}
	if err := r.Apply(meta("n", 2, 0), del); err == nil {
		t.Fatal("delete of unknown element must error")
	}
}

// TestOpBinaryRoundTrip pins AppendOp/ReadOp on every op kind: each op
// decodes back to itself and consumes exactly its encoding, and every strict
// prefix of an encoding is rejected.
func TestOpBinaryRoundTrip(t *testing.T) {
	a1 := Tag{Dot: vclock.Dot{Node: "a", Seq: 1}}
	a2 := Tag{Dot: vclock.Dot{Node: "a", Seq: 2}, Seq: 1}
	nested := Op{RGA: &RGAOp{After: a1, Value: "hi"}}
	inner := Op{Counter: &CounterOp{Delta: 3}}
	deep := Op{Map: &ORMapOp{Key: "in", Kind: KindCounter, Nested: &inner}}
	ops := map[string]Op{
		"counter":        {Counter: &CounterOp{Delta: -7}},
		"lww":            {LWW: &LWWRegisterOp{Value: "v"}},
		"mv overwrites":  {MV: &MVRegisterOp{Value: "v", Overwrites: []Tag{a1, a2}}},
		"set add":        {Set: &ORSetOp{Elem: "e"}},
		"set remove":     {Set: &ORSetOp{Elem: "e", Remove: true, Removes: []Tag{a2}}},
		"flag enable":    {Flag: &FlagOp{}},
		"flag disable":   {Flag: &FlagOp{Disable: true, Disables: []Tag{a1}}},
		"rga insert":     {RGA: &RGAOp{After: a2, Value: "x"}},
		"rga head":       {RGA: &RGAOp{Value: "x"}},
		"rga delete":     {RGA: &RGAOp{Delete: true, Target: a1}},
		"map update":     {Map: &ORMapOp{Key: "k", Kind: KindRGA, Nested: &nested}},
		"map in map":     {Map: &ORMapOp{Key: "out", Kind: KindORMap, Nested: &deep}},
		"map remove":     {Map: &ORMapOp{Key: "k", Remove: true, Removes: []Tag{a1, a2}}},
		"empty op":       {},
		"counter zero":   {Counter: &CounterOp{}},
		"lww empty text": {LWW: &LWWRegisterOp{}},
	}
	for name, op := range ops {
		enc, err := AppendOp(nil, op)
		if err != nil {
			t.Fatalf("%s: encode: %v", name, err)
		}
		r := bin.NewReader(enc)
		back, err := ReadOp(r)
		if err != nil || !r.Complete() {
			t.Fatalf("%s: decode %x: %v (complete %v)", name, enc, err, r.Complete())
		}
		if !reflect.DeepEqual(op, back) {
			t.Fatalf("%s: round trip mismatch: %+v vs %+v", name, op, back)
		}
		if back.Kind() != op.Kind() || Kind(enc[0]) != op.Kind() {
			t.Fatalf("%s: kind %v encoded as %d, decoded as %v", name, op.Kind(), enc[0], back.Kind())
		}
		for cut := 0; cut < len(enc); cut++ {
			if _, err := ReadOp(bin.NewReader(enc[:cut])); err == nil {
				t.Fatalf("%s: prefix %x of %x decoded", name, enc[:cut], enc)
			}
		}
	}
	if n := len(mustAppendOp(t, Op{Counter: &CounterOp{Delta: 1}})); n != 2 {
		t.Fatalf("a counter op takes %d bytes, want 2", n)
	}
}

func mustAppendOp(t *testing.T, op Op) []byte {
	t.Helper()
	enc, err := AppendOp(nil, op)
	if err != nil {
		t.Fatal(err)
	}
	return enc
}

// TestOpEncodingRefusesAmbiguity: an op with two fields set, or a map op
// nesting an empty op or nested past maxOpDepth, has no encoding.
func TestOpEncodingRefusesAmbiguity(t *testing.T) {
	empty := Op{}
	deep := Op{Counter: &CounterOp{Delta: 1}}
	for i := 0; i <= maxOpDepth; i++ {
		next := deep
		deep = Op{Map: &ORMapOp{Key: "k", Kind: KindORMap, Nested: &next}}
	}
	for name, op := range map[string]Op{
		"two fields":   {Counter: &CounterOp{Delta: 1}, LWW: &LWWRegisterOp{Value: "v"}},
		"nested empty": {Map: &ORMapOp{Key: "k", Kind: KindCounter, Nested: &empty}},
		"nested two": {Map: &ORMapOp{Key: "k", Kind: KindCounter,
			Nested: &Op{Counter: &CounterOp{}, Flag: &FlagOp{}}}},
		"too deep": deep,
	} {
		if enc, err := AppendOp(nil, op); !errors.Is(err, ErrMalformedOp) {
			t.Errorf("%s: encoded as %x, %v; want ErrMalformedOp", name, enc, err)
		}
	}
}

// TestReadOpIsStrict: bytes that are not AppendOp's output for some op — an
// unknown kind, a bool other than 0 or 1, a tag count the input cannot hold,
// map ops nested too deep — are rejected, so any op that decodes re-encodes
// to the bytes it came from.
func TestReadOpIsStrict(t *testing.T) {
	deep := []byte{}
	for i := 0; i <= maxOpDepth; i++ {
		deep = append(deep, byte(KindORMap), 1, 'k', byte(KindORMap), 0, 0)
	}
	deep = append(deep, byte(KindCounter), 2)
	for name, enc := range map[string][]byte{
		"unknown kind":      {8},
		"set remove bool 2": {byte(KindORSet), 1, 'e', 2, 0},
		"flag bool 2":       {byte(KindFlag), 2, 0},
		"rga delete bool 2": {byte(KindRGA), 0, 0, 0, 0, 2, 0, 0, 0},
		"map remove bool 2": {byte(KindORMap), 1, 'k', byte(KindCounter), 2, 0, 0},
		"hostile tag count": {byte(KindMVRegister), 0, 0xff, 0xff, 0x03},
		"nested unknown":    {byte(KindORMap), 1, 'k', byte(KindCounter), 0, 0, 9},
		"too deep":          deep,
	} {
		if op, err := ReadOp(bin.NewReader(enc)); err == nil {
			t.Errorf("%s: %x decoded as %+v", name, enc, op)
		}
	}
	// The same chain one level shallower decodes, and re-encodes to itself.
	ok := deep[6:]
	r := bin.NewReader(ok)
	op, err := ReadOp(r)
	if err != nil || !r.Complete() {
		t.Fatalf("%d nested map ops: %v", maxOpDepth, err)
	}
	if again := mustAppendOp(t, op); !bytes.Equal(again, ok) {
		t.Fatalf("re-encoded as %x, read from %x", again, ok)
	}
}

// TestCounterOrderIndependence uses testing/quick to check that any
// permutation of counter increments converges to the same total.
func TestCounterOrderIndependence(t *testing.T) {
	cfg := &quick.Config{
		MaxCount: 200,
		Values: func(args []reflect.Value, r *rand.Rand) {
			n := 1 + r.Intn(8)
			deltas := make([]int64, n)
			for i := range deltas {
				deltas[i] = int64(r.Intn(21) - 10)
			}
			args[0] = reflect.ValueOf(deltas)
			args[1] = reflect.ValueOf(r.Int63())
		},
	}
	prop := func(deltas []int64, seed int64) bool {
		apply := func(order []int) int64 {
			c := NewCounter()
			for _, i := range order {
				m := meta("n", uint64(i+1), 0)
				if err := c.Apply(m, Op{Counter: &CounterOp{Delta: deltas[i]}}); err != nil {
					return -1 << 62
				}
			}
			return c.Total()
		}
		fwd := make([]int, len(deltas))
		for i := range fwd {
			fwd[i] = i
		}
		perm := rand.New(rand.NewSource(seed)).Perm(len(deltas))
		return apply(fwd) == apply(perm)
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Fatal(err)
	}
}

// TestORSetConcurrentOpsCommute checks with testing/quick that effects of
// operations prepared concurrently from a common state commute.
func TestORSetConcurrentOpsCommute(t *testing.T) {
	elems := []string{"x", "y", "z"}
	cfg := &quick.Config{
		MaxCount: 200,
		Values: func(args []reflect.Value, r *rand.Rand) {
			args[0] = reflect.ValueOf(r.Int63())
		},
	}
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		// Seed state: a few adds everyone observed.
		base := NewORSet()
		for i := 0; i < 3; i++ {
			e := elems[r.Intn(len(elems))]
			if err := base.Apply(meta("seed", uint64(i+1), 0), base.PrepareAdd(e)); err != nil {
				return false
			}
		}
		// Two replicas prepare concurrent ops against the same base.
		type prepared struct {
			m  Meta
			op Op
		}
		var ops []prepared
		for _, node := range []string{"a", "b"} {
			replica := base.Clone().(*ORSet)
			e := elems[r.Intn(len(elems))]
			var op Op
			if r.Intn(2) == 0 {
				op = replica.PrepareAdd(e)
			} else {
				op = replica.PrepareRemove(e)
			}
			ops = append(ops, prepared{m: meta(node, 10, 0), op: op})
		}
		fwd := base.Clone().(*ORSet)
		rev := base.Clone().(*ORSet)
		if err := fwd.Apply(ops[0].m, ops[0].op); err != nil {
			return false
		}
		if err := fwd.Apply(ops[1].m, ops[1].op); err != nil {
			return false
		}
		if err := rev.Apply(ops[1].m, ops[1].op); err != nil {
			return false
		}
		if err := rev.Apply(ops[0].m, ops[0].op); err != nil {
			return false
		}
		return reflect.DeepEqual(fwd.Elems(), rev.Elems())
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Fatal(err)
	}
}
