// Package crdt implements the operation-based Conflict-free Replicated Data
// Types that Colony stores (paper §3.6, §6.1): counters, last-writer-wins and
// multi-value registers, add-wins sets, maps of nested CRDTs, enable-wins
// flags, and an RGA sequence for collaborative editing.
//
// Objects follow the op-based model: a mutation is *prepared* at the source
// replica against its current snapshot (producing a downstream Op), and the
// Op's *effect* is applied at every replica. Effects of concurrent operations
// commute, so replicas that apply the same set of operations — in any order
// consistent with causality — converge to the same state (the Strong
// Convergence invariant of TCC+). Causal delivery is the responsibility of
// Colony's visibility layer, not of this package.
//
// Concurrency conflicts that the type cannot absorb (e.g. two concurrent
// register assignments) are arbitrated by the transaction dot, a total order
// consistent with happened-before (paper §3.5).
package crdt

import (
	"errors"
	"fmt"
	"sync/atomic"

	"colony/internal/vclock"
)

// Kind identifies a CRDT type.
type Kind uint8

// The supported CRDT kinds.
const (
	KindCounter Kind = iota + 1
	KindLWWRegister
	KindMVRegister
	KindORSet
	KindORMap
	KindFlag
	KindRGA
)

// String returns the lower-case name of the kind.
func (k Kind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindLWWRegister:
		return "lwwregister"
	case KindMVRegister:
		return "mvregister"
	case KindORSet:
		return "orset"
	case KindORMap:
		return "ormap"
	case KindFlag:
		return "flag"
	case KindRGA:
		return "rga"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// Valid reports whether k names a supported CRDT kind.
func (k Kind) Valid() bool { return k >= KindCounter && k <= KindRGA }

// Meta carries the per-operation metadata supplied by the transaction layer:
// the dot of the enclosing transaction (unique identifier and arbitration
// order) and a per-update sequence within the transaction so that several
// updates in one transaction still get distinct tags.
type Meta struct {
	Dot vclock.Dot
	Seq int
}

// Tag returns a dot unique to this particular update, derived from the
// transaction dot and the in-transaction sequence number.
type Tag struct {
	Dot vclock.Dot
	Seq int
}

// Compare orders tags by (Dot, Seq); this is the arbitration order extended
// to individual updates.
func (t Tag) Compare(o Tag) int {
	if c := t.Dot.Compare(o.Dot); c != 0 {
		return c
	}
	switch {
	case t.Seq < o.Seq:
		return -1
	case t.Seq > o.Seq:
		return 1
	default:
		return 0
	}
}

// tag builds the update tag for meta.
func (m Meta) tag() Tag { return Tag{Dot: m.Dot, Seq: m.Seq} }

// Op is the downstream form of a single CRDT mutation. Exactly one field is
// non-nil, and it must match the kind of the target object. Op is a tagged
// union; AppendOp and ReadOp give it its one byte form (kind byte, then the
// set field's fields).
type Op struct {
	Counter *CounterOp
	LWW     *LWWRegisterOp
	MV      *MVRegisterOp
	Set     *ORSetOp
	Map     *ORMapOp
	Flag    *FlagOp
	RGA     *RGAOp
}

// Kind returns the kind of object this op targets, or 0 if the op is empty
// or ambiguous.
func (o Op) Kind() Kind {
	var (
		k Kind
		n int
	)
	if o.Counter != nil {
		k, n = KindCounter, n+1
	}
	if o.LWW != nil {
		k, n = KindLWWRegister, n+1
	}
	if o.MV != nil {
		k, n = KindMVRegister, n+1
	}
	if o.Set != nil {
		k, n = KindORSet, n+1
	}
	if o.Map != nil {
		k, n = KindORMap, n+1
	}
	if o.Flag != nil {
		k, n = KindFlag, n+1
	}
	if o.RGA != nil {
		k, n = KindRGA, n+1
	}
	if n != 1 {
		return 0
	}
	return k
}

// Errors returned by Apply.
var (
	ErrKindMismatch = errors.New("crdt: operation kind does not match object kind")
	ErrMalformedOp  = errors.New("crdt: malformed operation")
	// ErrSealed is returned by Apply on a sealed snapshot; callers that need
	// to mutate must Fork first.
	ErrSealed = errors.New("crdt: apply to sealed snapshot (Fork first)")
)

// cowCopies counts container copies performed by copy-on-write forks across
// the process; surfaced through the crdt.cow_copies gauge.
var cowCopies atomic.Int64

// CowCopies returns the process-wide count of copy-on-write container copies.
// One fork that mutates pays one copy per container it touches, however many
// readers share the sealed original. An RGA's containers are its chunks, so
// an RGA fork counts one copy per chunk it writes, plus its chunk list and
// its index and gone overlays when it writes those.
func CowCopies() int64 { return cowCopies.Load() }

// Object is a materialised CRDT replica state.
//
// A mutable object is not safe for concurrent use; the owning store
// serialises access. Seal freezes an object permanently: a sealed object is
// an immutable snapshot that any number of goroutines may read concurrently
// (Value, the type-specific accessors, and the Prepare* helpers are all
// read-pure on sealed objects), while Apply fails with ErrSealed. Fork
// returns a mutable handle that shares the sealed object's containers and
// copies them lazily on first write — the copy-on-write path that replaces
// the old deep-Clone-per-read protocol.
type Object interface {
	// Kind returns the object's CRDT kind.
	Kind() Kind
	// Apply executes the effect of op. Effects of concurrent operations
	// commute; applying the same set of effects in any causal order yields
	// equal state. Apply on a sealed object returns ErrSealed.
	Apply(meta Meta, op Op) error
	// Value returns the current query value of the object using plain Go
	// types (int64, string, []string, map[string]any, ...).
	Value() any
	// Clone returns a deep, independent, mutable copy.
	Clone() Object
	// Seal permanently freezes the object, making it a shareable snapshot.
	// Sealing is one-way and idempotent.
	Seal()
	// Sealed reports whether the object has been sealed.
	Sealed() bool
	// Fork returns a mutable object with the same state. Forking a sealed
	// object is cheap: containers are shared and copied only when the fork
	// first writes to them. Forking an unsealed object falls back to a deep
	// Clone (the original could still mutate shared containers).
	Fork() Object
}

// Compactor is implemented by objects that can discard tombstone metadata
// once the store's K-stable cut guarantees every folded operation is durable
// everywhere. The store calls CompactTombstones on the freshly folded base
// during advancement; the receiver is owned by the caller and unsealed.
type Compactor interface {
	// CompactTombstones drops tombstones that no retained element references
	// and returns how many were removed.
	CompactTombstones() int
}

// New returns a fresh object of kind k in its initial state.
func New(k Kind) (Object, error) {
	switch k {
	case KindCounter:
		return NewCounter(), nil
	case KindLWWRegister:
		return NewLWWRegister(), nil
	case KindMVRegister:
		return NewMVRegister(), nil
	case KindORSet:
		return NewORSet(), nil
	case KindORMap:
		return NewORMap(), nil
	case KindFlag:
		return NewFlag(), nil
	case KindRGA:
		return NewRGA(), nil
	default:
		return nil, fmt.Errorf("crdt: unknown kind %d", k)
	}
}

// MustNew is New for statically known kinds; it panics on unknown kinds and
// exists for test and example brevity.
func MustNew(k Kind) Object {
	obj, err := New(k)
	if err != nil {
		panic(err)
	}
	return obj
}
