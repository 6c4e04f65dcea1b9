package crdt

import (
	"fmt"
	"sort"
)

// ORMapOp updates or removes one key of an observed-remove map of nested
// CRDTs.
type ORMapOp struct {
	Key string
	// Kind is the nested CRDT kind; required on updates, ignored on removes.
	Kind Kind
	// Nested is the nested object's operation; nil on removes.
	Nested *Op
	// Remove marks a key removal. Removes carries the presence tags observed
	// at the source, so a concurrent update (add-wins) keeps the key alive.
	Remove  bool
	Removes []Tag
}

// mapEntry is one key of an ORMap. shared marks the presence map (and the
// nested object, which is sealed alongside the map) as belonging to a sealed
// snapshot; a fork copies the entry — forking the nested object — before
// mutating it. The flag is written only while the entry is exclusively
// owned, at Seal time.
type mapEntry struct {
	kind     Kind
	object   Object
	presence map[Tag]bool
	shared   bool
}

func (e *mapEntry) fork() *mapEntry {
	pres := make(map[Tag]bool, len(e.presence))
	for t := range e.presence {
		pres[t] = true
	}
	return &mapEntry{kind: e.kind, object: e.object.Fork(), presence: pres}
}

// ORMap is an observed-remove map from string keys to nested CRDT objects,
// with add-wins (update-wins) semantics on concurrent update/remove.
//
// Removal semantics: a remove hides the key by retracting the presence tags
// the remover had observed; the nested state is retained, so if the key is
// updated again (or a concurrent update survives) the accumulated nested
// state becomes visible again. This keeps concurrent nested updates and
// removes trivially commutative, which is what Strong Convergence requires.
// A grow-only map (the paper's gmap) is an ORMap that is never removed from.
type ORMap struct {
	entries map[string]*mapEntry
	sealed  bool
	// shared marks the entries map itself as shared with a sealed snapshot.
	shared bool
}

var _ Object = (*ORMap)(nil)

// NewORMap returns an empty map.
func NewORMap() *ORMap { return &ORMap{entries: make(map[string]*mapEntry)} }

// Kind implements Object.
func (m *ORMap) Kind() Kind { return KindORMap }

// unshare gives the map a private entries map (entry pointers still shared;
// they are forked individually on write).
func (m *ORMap) unshare() {
	if !m.shared {
		return
	}
	entries := make(map[string]*mapEntry, len(m.entries))
	for key, entry := range m.entries {
		entries[key] = entry
	}
	m.entries = entries
	m.shared = false
	cowCopies.Add(1)
}

// owned returns the entry for key, forking it first if it is shared with a
// sealed snapshot. Returns nil if the key is absent.
func (m *ORMap) owned(key string) *mapEntry {
	entry := m.entries[key]
	if entry == nil {
		return nil
	}
	if entry.shared {
		entry = entry.fork()
		m.entries[key] = entry
		cowCopies.Add(1)
	}
	return entry
}

// Apply implements Object.
func (m *ORMap) Apply(meta Meta, op Op) error {
	if m.sealed {
		return ErrSealed
	}
	if op.Map == nil {
		if op.Kind() == 0 {
			return ErrMalformedOp
		}
		return ErrKindMismatch
	}
	o := op.Map
	if o.Remove {
		if m.entries[o.Key] == nil {
			return nil
		}
		m.unshare()
		entry := m.owned(o.Key)
		for _, t := range o.Removes {
			delete(entry.presence, t)
		}
		return nil
	}
	if o.Nested == nil || !o.Kind.Valid() {
		return fmt.Errorf("%w: map update without nested op", ErrMalformedOp)
	}
	if entry := m.entries[o.Key]; entry != nil && entry.kind != o.Kind {
		return fmt.Errorf("crdt: map key %q holds a %v, operation targets a %v: %w",
			o.Key, entry.kind, o.Kind, ErrKindMismatch)
	}
	m.unshare()
	entry := m.owned(o.Key)
	if entry == nil {
		obj, err := New(o.Kind)
		if err != nil {
			return err
		}
		entry = &mapEntry{kind: o.Kind, object: obj, presence: make(map[Tag]bool, 1)}
		m.entries[o.Key] = entry
	}
	if err := entry.object.Apply(meta, *o.Nested); err != nil {
		return err
	}
	entry.presence[meta.tag()] = true
	return nil
}

// Value implements Object, returning map[string]any of the present keys'
// nested values.
func (m *ORMap) Value() any {
	out := make(map[string]any, len(m.entries))
	for key, entry := range m.entries {
		if len(entry.presence) > 0 {
			out[key] = entry.object.Value()
		}
	}
	return out
}

// Get returns the nested object at key, or nil if the key is absent. The
// returned object is live state; callers must not mutate it directly.
func (m *ORMap) Get(key string) Object {
	entry := m.entries[key]
	if entry == nil || len(entry.presence) == 0 {
		return nil
	}
	return entry.object
}

// Keys returns the present keys in sorted order.
func (m *ORMap) Keys() []string {
	out := make([]string, 0, len(m.entries))
	for key, entry := range m.entries {
		if len(entry.presence) > 0 {
			out = append(out, key)
		}
	}
	sort.Strings(out)
	return out
}

// Len returns the number of present keys.
func (m *ORMap) Len() int {
	n := 0
	for _, entry := range m.entries {
		if len(entry.presence) > 0 {
			n++
		}
	}
	return n
}

// Clone implements Object.
func (m *ORMap) Clone() Object {
	cp := &ORMap{entries: make(map[string]*mapEntry, len(m.entries))}
	for key, entry := range m.entries {
		pres := make(map[Tag]bool, len(entry.presence))
		for t := range entry.presence {
			pres[t] = true
		}
		cp.entries[key] = &mapEntry{kind: entry.kind, object: entry.object.Clone(), presence: pres}
	}
	return cp
}

// Seal implements Object. Nested objects are sealed recursively, so a value
// returned by Get on a sealed map is itself a sealed snapshot.
func (m *ORMap) Seal() {
	if m.sealed {
		return
	}
	m.sealed = true
	for _, entry := range m.entries {
		entry.object.Seal()
		// Guarded write, as in ORSet.Seal: entries still shared from an
		// earlier snapshot are already marked.
		if !entry.shared {
			entry.shared = true
		}
	}
}

// Sealed implements Object.
func (m *ORMap) Sealed() bool { return m.sealed }

// Fork implements Object.
func (m *ORMap) Fork() Object {
	if !m.sealed {
		return m.Clone()
	}
	return &ORMap{entries: m.entries, shared: true}
}

// PrepareUpdate returns the downstream op applying nested (of kind kind) to
// key. Updating also (re-)asserts the key's presence.
func (m *ORMap) PrepareUpdate(key string, kind Kind, nested Op) Op {
	n := nested
	return Op{Map: &ORMapOp{Key: key, Kind: kind, Nested: &n}}
}

// PrepareRemove returns the downstream op removing key, capturing the
// presence tags currently observed.
func (m *ORMap) PrepareRemove(key string) Op {
	var removes []Tag
	if entry := m.entries[key]; entry != nil {
		removes = make([]Tag, 0, len(entry.presence))
		for t := range entry.presence {
			removes = append(removes, t)
		}
		sort.Slice(removes, func(i, j int) bool { return removes[i].Compare(removes[j]) < 0 })
	}
	return Op{Map: &ORMapOp{Key: key, Remove: true, Removes: removes}}
}
