package crdt

import "sort"

// LWWRegisterOp assigns a value to a last-writer-wins register.
type LWWRegisterOp struct {
	Value string
}

// LWWRegister keeps the assignment with the greatest update tag. Because
// tags extend the transaction dot — a total order consistent with
// happened-before — a causally later assignment always wins, and concurrent
// assignments are arbitrated deterministically.
type LWWRegister struct {
	value  string
	tag    Tag
	set    bool
	sealed bool
}

var _ Object = (*LWWRegister)(nil)

// NewLWWRegister returns an unset register (Value is the empty string).
func NewLWWRegister() *LWWRegister { return &LWWRegister{} }

// Kind implements Object.
func (r *LWWRegister) Kind() Kind { return KindLWWRegister }

// Apply implements Object.
func (r *LWWRegister) Apply(meta Meta, op Op) error {
	if r.sealed {
		return ErrSealed
	}
	if op.LWW == nil {
		if op.Kind() == 0 {
			return ErrMalformedOp
		}
		return ErrKindMismatch
	}
	tag := meta.tag()
	if !r.set || r.tag.Compare(tag) < 0 {
		r.value = op.LWW.Value
		r.tag = tag
		r.set = true
	}
	return nil
}

// Value implements Object, returning the current string value.
func (r *LWWRegister) Value() any { return r.value }

// Get returns the value and whether the register was ever assigned.
func (r *LWWRegister) Get() (string, bool) { return r.value, r.set }

// Clone implements Object.
func (r *LWWRegister) Clone() Object { return r.Fork() }

// Seal implements Object.
func (r *LWWRegister) Seal() {
	if !r.sealed {
		r.sealed = true
	}
}

// Sealed implements Object.
func (r *LWWRegister) Sealed() bool { return r.sealed }

// Fork implements Object. The register has no containers, so a fork is a
// plain struct copy.
func (r *LWWRegister) Fork() Object { cp := *r; cp.sealed = false; return &cp }

// PrepareAssign returns the downstream op assigning v.
func (r *LWWRegister) PrepareAssign(v string) Op {
	return Op{LWW: &LWWRegisterOp{Value: v}}
}

// MVRegisterOp assigns a value to a multi-value register, overwriting the
// sibling entries the source replica had observed.
type MVRegisterOp struct {
	Value      string
	Overwrites []Tag
}

// mvEntry is one live assignment in an MV register.
type mvEntry struct {
	value string
	tag   Tag
}

// MVRegister keeps every assignment not yet overwritten by a causally later
// one. Concurrent assignments are all retained and surface as multiple
// values, letting the application resolve them.
type MVRegister struct {
	entries []mvEntry
	sealed  bool
	// shared marks the entries slice as shared with a sealed snapshot; the
	// first mutation builds a fresh slice instead of reusing the backing
	// array in place.
	shared bool
}

var _ Object = (*MVRegister)(nil)

// NewMVRegister returns an empty multi-value register.
func NewMVRegister() *MVRegister { return &MVRegister{} }

// Kind implements Object.
func (r *MVRegister) Kind() Kind { return KindMVRegister }

// Apply implements Object.
func (r *MVRegister) Apply(meta Meta, op Op) error {
	if r.sealed {
		return ErrSealed
	}
	if op.MV == nil {
		if op.Kind() == 0 {
			return ErrMalformedOp
		}
		return ErrKindMismatch
	}
	overwritten := make(map[Tag]bool, len(op.MV.Overwrites))
	for _, t := range op.MV.Overwrites {
		overwritten[t] = true
	}
	kept := r.entries[:0]
	if r.shared {
		// The backing array belongs to a sealed snapshot; copy on write.
		kept = make([]mvEntry, 0, len(r.entries)+1)
		r.shared = false
		cowCopies.Add(1)
	}
	for _, e := range r.entries {
		if !overwritten[e.tag] {
			kept = append(kept, e)
		}
	}
	r.entries = append(kept, mvEntry{value: op.MV.Value, tag: meta.tag()})
	return nil
}

// Value implements Object, returning the live values sorted by arbitration
// order ([]string; empty when unassigned).
func (r *MVRegister) Value() any { return r.Values() }

// Values returns the live values in arbitration order.
func (r *MVRegister) Values() []string {
	entries := make([]mvEntry, len(r.entries))
	copy(entries, r.entries)
	sort.Slice(entries, func(i, j int) bool { return entries[i].tag.Compare(entries[j].tag) < 0 })
	out := make([]string, len(entries))
	for i, e := range entries {
		out[i] = e.value
	}
	return out
}

// Clone implements Object.
func (r *MVRegister) Clone() Object {
	cp := &MVRegister{entries: make([]mvEntry, len(r.entries))}
	copy(cp.entries, r.entries)
	return cp
}

// Seal implements Object.
func (r *MVRegister) Seal() {
	if !r.sealed {
		r.sealed = true
	}
}

// Sealed implements Object.
func (r *MVRegister) Sealed() bool { return r.sealed }

// Fork implements Object.
func (r *MVRegister) Fork() Object {
	if !r.sealed {
		return r.Clone()
	}
	return &MVRegister{entries: r.entries, shared: true}
}

// PrepareAssign returns the downstream op assigning v and overwriting every
// currently visible sibling.
func (r *MVRegister) PrepareAssign(v string) Op {
	tags := make([]Tag, len(r.entries))
	for i, e := range r.entries {
		tags[i] = e.tag
	}
	return Op{MV: &MVRegisterOp{Value: v, Overwrites: tags}}
}
