package crdt

import "sort"

// ORSetOp adds or removes one element of an observed-remove (add-wins) set.
// A removal names the add tags the source had observed for the element, so a
// concurrent add — which the remover had not seen — survives.
type ORSetOp struct {
	Elem    string
	Remove  bool
	Removes []Tag
}

// orsetEntry holds the observed add tags of one member. shared marks the
// tags map as belonging to a sealed snapshot: a fork copies the entry before
// mutating it. The flag is written only while the entry is exclusively owned
// (at Seal time), so concurrent readers of a sealed set never observe a
// write.
type orsetEntry struct {
	tags   map[Tag]bool
	shared bool
}

func (e *orsetEntry) fork() *orsetEntry {
	tcp := make(map[Tag]bool, len(e.tags))
	for t := range e.tags {
		tcp[t] = true
	}
	return &orsetEntry{tags: tcp}
}

// ORSet is an observed-remove set of strings with add-wins semantics.
type ORSet struct {
	elems  map[string]*orsetEntry
	sealed bool
	// shared marks the elems map itself as shared with a sealed snapshot.
	shared bool
}

var _ Object = (*ORSet)(nil)

// NewORSet returns an empty set.
func NewORSet() *ORSet { return &ORSet{elems: make(map[string]*orsetEntry)} }

// Kind implements Object.
func (s *ORSet) Kind() Kind { return KindORSet }

// unshare gives the set a private elems map (entry pointers still shared;
// they are copied individually on write).
func (s *ORSet) unshare() {
	if !s.shared {
		return
	}
	elems := make(map[string]*orsetEntry, len(s.elems))
	for e, entry := range s.elems {
		elems[e] = entry
	}
	s.elems = elems
	s.shared = false
	cowCopies.Add(1)
}

// owned returns the entry for elem, copying it first if it is shared with a
// sealed snapshot. Returns nil if the element is absent.
func (s *ORSet) owned(elem string) *orsetEntry {
	entry := s.elems[elem]
	if entry == nil {
		return nil
	}
	if entry.shared {
		entry = entry.fork()
		s.elems[elem] = entry
		cowCopies.Add(1)
	}
	return entry
}

// Apply implements Object.
func (s *ORSet) Apply(meta Meta, op Op) error {
	if s.sealed {
		return ErrSealed
	}
	if op.Set == nil {
		if op.Kind() == 0 {
			return ErrMalformedOp
		}
		return ErrKindMismatch
	}
	o := op.Set
	if o.Remove {
		if s.elems[o.Elem] == nil {
			return nil
		}
		s.unshare()
		entry := s.owned(o.Elem)
		for _, t := range o.Removes {
			delete(entry.tags, t)
		}
		if len(entry.tags) == 0 {
			delete(s.elems, o.Elem)
		}
		return nil
	}
	s.unshare()
	entry := s.owned(o.Elem)
	if entry == nil {
		entry = &orsetEntry{tags: make(map[Tag]bool, 1)}
		s.elems[o.Elem] = entry
	}
	entry.tags[meta.tag()] = true
	return nil
}

// Value implements Object, returning the sorted member list ([]string).
func (s *ORSet) Value() any { return s.Elems() }

// Elems returns the members in sorted order.
func (s *ORSet) Elems() []string {
	out := make([]string, 0, len(s.elems))
	for e := range s.elems {
		out = append(out, e)
	}
	sort.Strings(out)
	return out
}

// Contains reports membership of elem.
func (s *ORSet) Contains(elem string) bool {
	entry := s.elems[elem]
	return entry != nil && len(entry.tags) > 0
}

// Len returns the number of members.
func (s *ORSet) Len() int { return len(s.elems) }

// Clone implements Object.
func (s *ORSet) Clone() Object {
	cp := &ORSet{elems: make(map[string]*orsetEntry, len(s.elems))}
	for e, entry := range s.elems {
		cp.elems[e] = entry.fork()
	}
	return cp
}

// Seal implements Object.
func (s *ORSet) Seal() {
	if s.sealed {
		return
	}
	s.sealed = true
	for _, entry := range s.elems {
		// Guarded write: entries still shared from an earlier snapshot are
		// already marked, and writing the flag again would race with a
		// concurrent fork reading it.
		if !entry.shared {
			entry.shared = true
		}
	}
}

// Sealed implements Object.
func (s *ORSet) Sealed() bool { return s.sealed }

// Fork implements Object.
func (s *ORSet) Fork() Object {
	if !s.sealed {
		return s.Clone()
	}
	return &ORSet{elems: s.elems, shared: true}
}

// PrepareAdd returns the downstream op adding elem.
func (s *ORSet) PrepareAdd(elem string) Op {
	return Op{Set: &ORSetOp{Elem: elem}}
}

// PrepareRemove returns the downstream op removing elem, capturing the add
// tags currently observed so that concurrent adds win.
func (s *ORSet) PrepareRemove(elem string) Op {
	var removes []Tag
	if entry := s.elems[elem]; entry != nil {
		removes = make([]Tag, 0, len(entry.tags))
		for t := range entry.tags {
			removes = append(removes, t)
		}
		sort.Slice(removes, func(i, j int) bool { return removes[i].Compare(removes[j]) < 0 })
	}
	return Op{Set: &ORSetOp{Elem: elem, Remove: true, Removes: removes}}
}

// FlagOp enables or disables an enable-wins flag. Disable carries the enable
// tags observed at the source, mirroring ORSet removal.
type FlagOp struct {
	Disable  bool
	Disables []Tag
}

// Flag is an enable-wins boolean flag: concurrent enable and disable resolve
// to enabled.
type Flag struct {
	tokens map[Tag]bool
	sealed bool
	shared bool
}

var _ Object = (*Flag)(nil)

// NewFlag returns a disabled flag.
func NewFlag() *Flag { return &Flag{tokens: make(map[Tag]bool)} }

// Kind implements Object.
func (f *Flag) Kind() Kind { return KindFlag }

// unshare copies the token map if it is shared with a sealed snapshot.
func (f *Flag) unshare() {
	if !f.shared {
		return
	}
	tokens := make(map[Tag]bool, len(f.tokens)+1)
	for t := range f.tokens {
		tokens[t] = true
	}
	f.tokens = tokens
	f.shared = false
	cowCopies.Add(1)
}

// Apply implements Object.
func (f *Flag) Apply(meta Meta, op Op) error {
	if f.sealed {
		return ErrSealed
	}
	if op.Flag == nil {
		if op.Kind() == 0 {
			return ErrMalformedOp
		}
		return ErrKindMismatch
	}
	f.unshare()
	if op.Flag.Disable {
		for _, t := range op.Flag.Disables {
			delete(f.tokens, t)
		}
		return nil
	}
	f.tokens[meta.tag()] = true
	return nil
}

// Value implements Object, returning the boolean state.
func (f *Flag) Value() any { return f.Enabled() }

// Enabled reports whether the flag is set.
func (f *Flag) Enabled() bool { return len(f.tokens) > 0 }

// Clone implements Object.
func (f *Flag) Clone() Object {
	cp := &Flag{tokens: make(map[Tag]bool, len(f.tokens))}
	for t := range f.tokens {
		cp.tokens[t] = true
	}
	return cp
}

// Seal implements Object.
func (f *Flag) Seal() {
	if !f.sealed {
		f.sealed = true
	}
}

// Sealed implements Object.
func (f *Flag) Sealed() bool { return f.sealed }

// Fork implements Object.
func (f *Flag) Fork() Object {
	if !f.sealed {
		return f.Clone()
	}
	return &Flag{tokens: f.tokens, shared: true}
}

// PrepareEnable returns the downstream op enabling the flag.
func (f *Flag) PrepareEnable() Op { return Op{Flag: &FlagOp{}} }

// PrepareDisable returns the downstream op disabling the flag, capturing the
// enable tokens currently observed.
func (f *Flag) PrepareDisable() Op {
	tags := make([]Tag, 0, len(f.tokens))
	for t := range f.tokens {
		tags = append(tags, t)
	}
	sort.Slice(tags, func(i, j int) bool { return tags[i].Compare(tags[j]) < 0 })
	return Op{Flag: &FlagOp{Disable: true, Disables: tags}}
}
