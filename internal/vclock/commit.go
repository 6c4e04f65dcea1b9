package vclock

import (
	"fmt"
	"maps"
	"sort"
	"strings"
)

// CommitStamps is the compressed representation of a transaction's possibly
// multiple equivalent commit vectors (paper §3.8). A commit vector differs
// from the snapshot vector in exactly one component — that of the DC that
// accepted the transaction — so Colony stores only the significant
// components: accepted DC index → timestamp assigned by that DC.
//
// An empty CommitStamps is a *symbolic* commit: the transaction committed
// locally at an edge node and no DC has assigned it a concrete timestamp yet
// (the paper writes this [α, β, γ]). Symbolic transactions are visible only
// to their origin node (read-my-writes).
type CommitStamps map[int]uint64

// Symbolic reports whether no DC has accepted the transaction yet.
func (c CommitStamps) Symbolic() bool { return len(c) == 0 }

// Add returns the stamps with DC dc's acceptance at timestamp ts added. It
// never writes c: a new stamp comes back in a fresh map, and a stamp c
// already holds returns c itself, so stamps may be shared by every holder of
// one transaction. Re-acceptance by the same DC must carry the same
// timestamp; a conflicting timestamp indicates a protocol error.
func (c CommitStamps) Add(dc int, ts uint64) (CommitStamps, error) {
	if prev, ok := c[dc]; ok {
		if prev != ts {
			return c, fmt.Errorf("vclock: DC%d already assigned commit timestamp %d, refusing %d", dc, prev, ts)
		}
		return c, nil
	}
	out := make(CommitStamps, len(c)+1)
	maps.Copy(out, c)
	out[dc] = ts
	return out, nil
}

// Merge returns c with every stamp of o that c lacks added, copy-on-write as
// Add: c itself when o adds nothing. A stamp o gives a DC that c already
// holds at another timestamp is ignored.
func (c CommitStamps) Merge(o CommitStamps) CommitStamps {
	for dc, ts := range o {
		c, _ = c.Add(dc, ts)
	}
	return c
}

// VisibleAt reports whether a transaction with snapshot vector snap and these
// commit stamps is included in the causal cut v. A transaction is visible at
// v when at least one of its equivalent commit vectors is ≤ v; each commit
// vector equals snap except at the accepting DC's index.
func (c CommitStamps) VisibleAt(snap, v Vector) bool {
	if len(c) == 0 {
		return false
	}
	for dc, ts := range c {
		if ts > v.Get(dc) {
			continue
		}
		ok := true
		for i, s := range snap {
			if i == dc {
				continue
			}
			if s > v.Get(i) {
				ok = false
				break
			}
		}
		if ok {
			return true
		}
	}
	return false
}

// Vector materialises one concrete commit vector: the snapshot with the
// accepting DC's component replaced. When several DCs accepted the
// transaction the lowest DC index is used; all choices denote the same point
// in the TCC+ partial order.
func (c CommitStamps) Vector(snap Vector) (Vector, bool) {
	if len(c) == 0 {
		return nil, false
	}
	dcs := make([]int, 0, len(c))
	for dc := range c {
		dcs = append(dcs, dc)
	}
	sort.Ints(dcs)
	dc := dcs[0]
	out := snap.Clone()
	if dc >= len(out) {
		grown := make(Vector, dc+1)
		copy(grown, out)
		out = grown
	}
	out[dc] = c[dc]
	return out, true
}

// JoinInto folds every equivalent commit vector of the transaction into v,
// returning the updated vector. Used to maintain node state vectors as the
// LUB of observed commit timestamps.
func (c CommitStamps) JoinInto(v, snap Vector) Vector {
	v = v.Join(snap)
	for dc, ts := range c {
		if ts > v.Get(dc) {
			v = v.Set(dc, ts)
		}
	}
	return v
}

// String renders the stamps like "{0:12, 2:7}" or "symbolic".
func (c CommitStamps) String() string {
	if len(c) == 0 {
		return "symbolic"
	}
	dcs := make([]int, 0, len(c))
	for dc := range c {
		dcs = append(dcs, dc)
	}
	sort.Ints(dcs)
	parts := make([]string, 0, len(dcs))
	for _, dc := range dcs {
		parts = append(parts, fmt.Sprintf("%d:%d", dc, c[dc]))
	}
	return "{" + strings.Join(parts, ", ") + "}"
}
