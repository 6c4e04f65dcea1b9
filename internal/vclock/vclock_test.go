package vclock

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func TestVectorGetSet(t *testing.T) {
	var v Vector
	if got := v.Get(3); got != 0 {
		t.Fatalf("Get on nil vector = %d, want 0", got)
	}
	v = v.Set(2, 7)
	if got := v.Get(2); got != 7 {
		t.Fatalf("Get(2) = %d, want 7", got)
	}
	if got := v.Get(0); got != 0 {
		t.Fatalf("Get(0) = %d, want 0", got)
	}
	v = v.Set(0, 1)
	if len(v) != 3 {
		t.Fatalf("len = %d, want 3", len(v))
	}
}

func TestVectorCompare(t *testing.T) {
	tests := []struct {
		name       string
		a, b       Vector
		leq, conc  bool
		equalAandB bool
	}{
		{name: "both empty", a: nil, b: nil, leq: true, equalAandB: true},
		{name: "empty vs nonzero", a: nil, b: Vector{1}, leq: true},
		{name: "equal ignoring trailing zeroes", a: Vector{1, 0}, b: Vector{1}, leq: true, equalAandB: true},
		{name: "strictly less", a: Vector{1, 2}, b: Vector{2, 2}, leq: true},
		{name: "concurrent", a: Vector{1, 0}, b: Vector{0, 1}, conc: true},
		{name: "greater", a: Vector{3, 1}, b: Vector{2, 1}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := tt.a.LEQ(tt.b); got != tt.leq {
				t.Errorf("LEQ = %v, want %v", got, tt.leq)
			}
			if got := tt.a.Concurrent(tt.b); got != tt.conc {
				t.Errorf("Concurrent = %v, want %v", got, tt.conc)
			}
			if got := tt.a.Equal(tt.b); got != tt.equalAandB {
				t.Errorf("Equal = %v, want %v", got, tt.equalAandB)
			}
		})
	}
}

func TestVectorJoin(t *testing.T) {
	a := Vector{1, 5}
	b := Vector{3, 2, 4}
	j := LUB(a, b)
	want := Vector{3, 5, 4}
	if !j.Equal(want) {
		t.Fatalf("LUB = %v, want %v", j, want)
	}
	// LUB must not mutate its inputs.
	if !a.Equal(Vector{1, 5}) || !b.Equal(Vector{3, 2, 4}) {
		t.Fatalf("LUB mutated inputs: a=%v b=%v", a, b)
	}
}

func TestVectorString(t *testing.T) {
	if got := (Vector{1, 0, 3}).String(); got != "[1 0 3]" {
		t.Fatalf("String = %q", got)
	}
}

// genVector produces small random vectors for property tests.
func genVector(r *rand.Rand) Vector {
	n := r.Intn(5)
	v := make(Vector, n)
	for i := range v {
		v[i] = uint64(r.Intn(6))
	}
	return v
}

func TestVectorJoinProperties(t *testing.T) {
	cfg := &quick.Config{
		MaxCount: 500,
		Values: func(args []reflect.Value, r *rand.Rand) {
			args[0] = reflect.ValueOf(genVector(r))
			args[1] = reflect.ValueOf(genVector(r))
			args[2] = reflect.ValueOf(genVector(r))
		},
	}
	// The LUB is a join-semilattice operation: commutative, associative,
	// idempotent, and an upper bound of both operands.
	prop := func(a, b, c Vector) bool {
		if !LUB(a, b).Equal(LUB(b, a)) {
			return false
		}
		if !LUB(LUB(a, b), c).Equal(LUB(a, LUB(b, c))) {
			return false
		}
		if !LUB(a, a).Equal(a) {
			return false
		}
		j := LUB(a, b)
		return a.LEQ(j) && b.LEQ(j)
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestVectorPartialOrderProperties(t *testing.T) {
	cfg := &quick.Config{
		MaxCount: 500,
		Values: func(args []reflect.Value, r *rand.Rand) {
			args[0] = reflect.ValueOf(genVector(r))
			args[1] = reflect.ValueOf(genVector(r))
			args[2] = reflect.ValueOf(genVector(r))
		},
	}
	// LEQ is reflexive, antisymmetric (up to Equal) and transitive.
	prop := func(a, b, c Vector) bool {
		if !a.LEQ(a) {
			return false
		}
		if a.LEQ(b) && b.LEQ(a) && !a.Equal(b) {
			return false
		}
		if a.LEQ(b) && b.LEQ(c) && !a.LEQ(c) {
			return false
		}
		return true
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestDotCompare(t *testing.T) {
	tests := []struct {
		name string
		a, b Dot
		want int
	}{
		{name: "equal", a: Dot{"a", 1}, b: Dot{"a", 1}, want: 0},
		{name: "lower seq", a: Dot{"z", 1}, b: Dot{"a", 2}, want: -1},
		{name: "same seq node tiebreak", a: Dot{"a", 2}, b: Dot{"b", 2}, want: -1},
		{name: "higher seq", a: Dot{"a", 3}, b: Dot{"b", 2}, want: 1},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := tt.a.Compare(tt.b); got != tt.want {
				t.Errorf("Compare = %d, want %d", got, tt.want)
			}
			if got := tt.b.Compare(tt.a); got != -tt.want {
				t.Errorf("reverse Compare = %d, want %d", got, -tt.want)
			}
		})
	}
}

func TestDotString(t *testing.T) {
	if got := (Dot{Node: "edgeA", Seq: 42}).String(); got != "edgeA:42" {
		t.Fatalf("String = %q", got)
	}
	if !(Dot{}).IsZero() {
		t.Fatal("zero dot should report IsZero")
	}
}

func TestLamport(t *testing.T) {
	var l Lamport
	if got := l.Next(); got != 1 {
		t.Fatalf("first Next = %d, want 1", got)
	}
	l.Witness(10)
	if got := l.Next(); got != 11 {
		t.Fatalf("Next after Witness(10) = %d, want 11", got)
	}
	l.Witness(5) // lower values must not move the clock backwards
	if got := l.Next(); got != 12 {
		t.Fatalf("Next after stale Witness = %d, want 12", got)
	}
	if got := l.Current(); got != 12 {
		t.Fatalf("Current = %d, want 12", got)
	}
}

func TestCommitStampsSymbolic(t *testing.T) {
	var c CommitStamps
	if !c.Symbolic() {
		t.Fatal("nil stamps should be symbolic")
	}
	if c.VisibleAt(nil, Vector{100, 100}) {
		t.Fatal("symbolic transaction must not be visible at any vector")
	}
	if _, ok := c.Vector(nil); ok {
		t.Fatal("symbolic stamps have no concrete vector")
	}
	if got := c.String(); got != "symbolic" {
		t.Fatalf("String = %q", got)
	}
}

func TestCommitStampsAdd(t *testing.T) {
	var c CommitStamps
	c, err := c.Add(0, 3)
	if err != nil {
		t.Fatal(err)
	}
	if c.Symbolic() {
		t.Fatal("stamps should be concrete after Add")
	}
	if _, err := c.Add(0, 3); err != nil {
		t.Fatalf("idempotent re-add failed: %v", err)
	}
	if _, err := c.Add(0, 4); err == nil {
		t.Fatal("conflicting timestamp for same DC must error")
	}
	c, err = c.Add(2, 9)
	if err != nil {
		t.Fatal(err)
	}
	if got := c.String(); got != "{0:3, 2:9}" {
		t.Fatalf("String = %q", got)
	}
}

func TestCommitStampsCopyOnWrite(t *testing.T) {
	shared := CommitStamps{0: 3}
	grown, err := shared.Add(1, 7)
	if err != nil {
		t.Fatal(err)
	}
	if len(shared) != 1 || grown[1] != 7 || grown[0] != 3 {
		t.Fatalf("Add wrote its receiver: shared %v, grown %v", shared, grown)
	}
	if same, _ := grown.Add(1, 7); reflect.ValueOf(same).Pointer() != reflect.ValueOf(grown).Pointer() {
		t.Fatal("re-adding a held stamp copied the stamps")
	}
	merged := shared.Merge(CommitStamps{0: 4, 2: 9})
	if len(shared) != 1 || merged.String() != "{0:3, 2:9}" {
		t.Fatalf("Merge: shared %v, merged %v", shared, merged)
	}
	if same := merged.Merge(CommitStamps{2: 9}); reflect.ValueOf(same).Pointer() != reflect.ValueOf(merged).Pointer() {
		t.Fatal("a merge adding nothing copied the stamps")
	}
}

func TestCommitStampsVisibility(t *testing.T) {
	// Transaction with snapshot [1,2,0] accepted by DC0 at ts=2 and DC2 at
	// ts=5: equivalent commit vectors [2,2,0] and [1,2,5].
	snap := Vector{1, 2, 0}
	c := CommitStamps{0: 2, 2: 5}
	tests := []struct {
		name string
		at   Vector
		want bool
	}{
		{name: "below both", at: Vector{1, 2, 0}, want: false},
		{name: "covers DC0 vector", at: Vector{2, 2, 0}, want: true},
		{name: "covers DC2 vector", at: Vector{1, 2, 5}, want: true},
		{name: "snapshot not covered", at: Vector{2, 1, 9}, want: false},
		{name: "covers everything", at: Vector{5, 5, 5}, want: true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := c.VisibleAt(snap, tt.at); got != tt.want {
				t.Errorf("VisibleAt(%v) = %v, want %v", tt.at, got, tt.want)
			}
		})
	}
}

func TestCommitStampsVector(t *testing.T) {
	snap := Vector{1, 2, 0}
	c := CommitStamps{2: 5, 0: 2}
	v, ok := c.Vector(snap)
	if !ok {
		t.Fatal("expected concrete vector")
	}
	// Lowest accepting DC index (0) is chosen deterministically.
	if !v.Equal(Vector{2, 2, 0}) {
		t.Fatalf("Vector = %v, want [2 2 0]", v)
	}
	// A DC index beyond the snapshot length must grow the result.
	short := Vector{1}
	c2 := CommitStamps{2: 7}
	v2, _ := c2.Vector(short)
	if !v2.Equal(Vector{1, 0, 7}) {
		t.Fatalf("Vector = %v, want [1 0 7]", v2)
	}
}

func TestCommitStampsJoinInto(t *testing.T) {
	snap := Vector{1, 2, 0}
	c := CommitStamps{0: 2, 2: 5}
	state := Vector{0, 3, 1}
	state = c.JoinInto(state, snap)
	if !state.Equal(Vector{2, 3, 5}) {
		t.Fatalf("JoinInto = %v, want [2 3 5]", state)
	}
}

func TestCommitVisibilityImpliesJoinIntoMonotone(t *testing.T) {
	cfg := &quick.Config{
		MaxCount: 300,
		Values: func(args []reflect.Value, r *rand.Rand) {
			args[0] = reflect.ValueOf(genVector(r))
			args[1] = reflect.ValueOf(genVector(r))
			dc := r.Intn(3)
			args[2] = reflect.ValueOf(CommitStamps{dc: uint64(1 + r.Intn(6))})
		},
	}
	// If a transaction is visible at v, folding it into v changes nothing:
	// visibility means the cut already covers one commit vector, but other
	// equivalent stamps may still exceed v, so we check the weaker, always
	// true property: JoinInto yields a vector at which the tx is visible.
	prop := func(snap, v Vector, c CommitStamps) bool {
		joined := c.JoinInto(v.Clone(), snap)
		return c.VisibleAt(snap, joined) && v.LEQ(joined)
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestVectorJoinTrailingZeroesNoGrowth(t *testing.T) {
	v := Vector{5, 5, 5}
	out := v.Join(Vector{1, 2, 3, 0, 0})
	if len(out) != 3 {
		t.Fatalf("Join grew to %d components over trailing zeroes, want 3", len(out))
	}
	if !out.Equal(Vector{5, 5, 5}) {
		t.Fatalf("Join = %v, want [5 5 5]", out)
	}
	if got := v.Join(Vector{1, 2, 3, 0, 7}); len(got) != 5 || got[4] != 7 {
		t.Fatalf("Join with real 5th component = %v, want length 5 ending in 7", got)
	}
}

func TestLUBDominanceFastPath(t *testing.T) {
	lo := Vector{1, 2, 3}
	hi := Vector{4, 5, 6}
	// The dominating operand may be returned as-is (documented aliasing);
	// either way the value must be the componentwise max and the dominated
	// operand must be untouched.
	for _, tc := range [][2]Vector{{lo, hi}, {hi, lo}} {
		out := LUB(tc[0], tc[1])
		if !out.Equal(hi) {
			t.Fatalf("LUB(%v, %v) = %v, want %v", tc[0], tc[1], out, hi)
		}
	}
	if !lo.Equal(Vector{1, 2, 3}) || !hi.Equal(Vector{4, 5, 6}) {
		t.Fatalf("LUB mutated its operands: lo=%v hi=%v", lo, hi)
	}
	// Concurrent operands still get a fresh vector.
	a, b := Vector{9, 0}, Vector{0, 9}
	out := LUB(a, b)
	if !out.Equal(Vector{9, 9}) {
		t.Fatalf("LUB(%v, %v) = %v, want [9 9]", a, b, out)
	}
	out[0] = 77
	if a[0] != 9 || b.Get(0) != 0 {
		t.Fatal("concurrent LUB aliased an operand")
	}
}
