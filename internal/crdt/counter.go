package crdt

// CounterOp increments (or, with a negative delta, decrements) a counter.
// Increments are naturally commutative, so the counter needs no conflict
// arbitration; this is the op-based PN-counter.
type CounterOp struct {
	Delta int64
}

// Counter is an op-based PN-counter. Its value is the sum of all applied
// deltas.
type Counter struct {
	total  int64
	sealed bool
}

var _ Object = (*Counter)(nil)

// NewCounter returns a counter with value zero.
func NewCounter() *Counter { return &Counter{} }

// Kind implements Object.
func (c *Counter) Kind() Kind { return KindCounter }

// Apply implements Object.
func (c *Counter) Apply(_ Meta, op Op) error {
	if c.sealed {
		return ErrSealed
	}
	if op.Counter == nil {
		if op.Kind() == 0 {
			return ErrMalformedOp
		}
		return ErrKindMismatch
	}
	c.total += op.Counter.Delta
	return nil
}

// Seal implements Object. The write is guarded so that re-sealing an
// already shared snapshot stays read-only (a concurrent forker may be
// reading the flag).
func (c *Counter) Seal() {
	if !c.sealed {
		c.sealed = true
	}
}

// Sealed implements Object.
func (c *Counter) Sealed() bool { return c.sealed }

// Fork implements Object. A counter has no containers, so a fork is a plain
// struct copy.
func (c *Counter) Fork() Object { cp := *c; cp.sealed = false; return &cp }

// Value implements Object, returning the current total as an int64.
func (c *Counter) Value() any { return c.total }

// Total returns the counter value without boxing.
func (c *Counter) Total() int64 { return c.total }

// Clone implements Object.
func (c *Counter) Clone() Object { return c.Fork() }

// PrepareIncrement returns the downstream op adding delta to the counter.
func (c *Counter) PrepareIncrement(delta int64) Op {
	return Op{Counter: &CounterOp{Delta: delta}}
}
