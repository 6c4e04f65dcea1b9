// Package replication implements the inter-DC mesh: causal delivery of
// remote transactions, exchange of state vectors, and K-stability tracking
// (paper §3.4, §3.8).
//
// DCs form a full peer-to-peer mesh. Each replication message piggybacks the
// sender's state vector; every DC therefore maintains a conservative view of
// every other DC's progress. A transaction is K-stable when its commit
// vector is covered by the state vectors of at least K DCs, and only
// K-stable transactions are made visible to edge nodes — this bounds the
// probability that a migrating edge node depends on state its new DC has
// never seen.
package replication

import (
	"sync"

	"colony/internal/txn"
	"colony/internal/vclock"
)

// Mesh is the replication endpoint embedded in one DC. The owning DC feeds
// it incoming messages and state changes; the mesh decides when remote
// transactions are causally ready and computes stability cuts.
type Mesh struct {
	self int // own DC index

	mu      sync.Mutex
	known   map[int]vclock.Vector // DC index → latest known state vector
	pending []*txn.Transaction    // remote txs waiting for causal dependencies
	low     []uint64              // AdmitBatch's per-component scratch
	buckets map[int]*bucketView   // DC index → advertised interest set (absent = universal)
}

// NewMesh creates the mesh state for DC index self among nDCs data centres.
func NewMesh(self, nDCs int) *Mesh {
	known := make(map[int]vclock.Vector, nDCs)
	for i := 0; i < nDCs; i++ {
		known[i] = vclock.NewVector(nDCs)
	}
	return &Mesh{self: self, known: known, low: make([]uint64, nDCs)}
}

// ObserveSelf records the local DC's new state vector.
func (m *Mesh) ObserveSelf(state vclock.Vector) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.known[m.self] = m.known[m.self].Join(state)
}

// ObservePeer records a peer's advertised state vector (from a replication
// message or heartbeat).
func (m *Mesh) ObservePeer(peer int, state vclock.Vector) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.known[peer] = m.known[peer].Join(state)
}

// AdmitBatch offers remote transactions (nil entries are skipped) and
// returns every queued or offered one now ready, in a causally safe order;
// the caller applies them and then calls ObserveSelf. A transaction is ready
// when the local state covers its snapshot — its dependencies are exactly the
// transactions at or below it (paper §3.5) — and no transaction queued ahead
// of it carries a lower stamp of a DC it carries a stamp of. So a DC's
// component grows only by a prefix of its stream: a later, independent commit
// of DC A cannot lift the state past an earlier one of A still waiting.
func (m *Mesh) AdmitBatch(txs []*txn.Transaction, localState vclock.Vector) []*txn.Transaction {
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, t := range txs {
		if t != nil {
			m.pending = append(m.pending, t)
		}
	}
	state := localState.Clone()
	var ready []*txn.Transaction
	for progress := true; progress; {
		progress = false
		clear(m.low) // low[c]: the lowest stamp in c of the transactions kept so far
		kept := m.pending[:0]
		for _, p := range m.pending {
			if m.inOrderLocked(p) && p.Snapshot.LEQ(state) {
				ready = append(ready, p)
				state = p.Commit.JoinInto(state, p.Snapshot)
				progress = true
				continue
			}
			kept = append(kept, p)
			for c, ts := range p.Commit {
				if c >= 0 && c < len(m.low) && (m.low[c] == 0 || ts < m.low[c]) {
					m.low[c] = ts
				}
			}
		}
		clear(m.pending[len(kept):])
		m.pending = kept
	}
	return ready
}

// inOrderLocked reports whether no transaction kept ahead of t carries a
// lower stamp in a component t is stamped in.
func (m *Mesh) inOrderLocked(t *txn.Transaction) bool {
	for c, ts := range t.Commit {
		if c >= 0 && c < len(m.low) && m.low[c] != 0 && m.low[c] < ts {
			return false
		}
	}
	return true
}

// PendingCut returns v joined with the commit vectors of the transactions
// still waiting for their dependencies: what the DC has admitted from its
// peers' streams but not yet applied.
func (m *Mesh) PendingCut(v vclock.Vector) vclock.Vector {
	m.mu.Lock()
	defer m.mu.Unlock()
	v = v.Clone()
	for _, t := range m.pending {
		v = t.Commit.JoinInto(v, t.Snapshot)
	}
	return v
}

// KStable computes the K-stable cut: componentwise the K-th largest value
// over every DC's known state vector. A transaction whose commit vector is
// ≤ this cut is known at ≥ K DCs (the SwiftCloud construction).
// K is clamped to [1, number of DCs].
func (m *Mesh) KStable(k int) vclock.Vector {
	m.mu.Lock()
	defer m.mu.Unlock()
	n := len(m.known)
	if k < 1 {
		k = 1
	}
	if k > n {
		k = n
	}
	width := 0
	for _, v := range m.known {
		if len(v) > width {
			width = len(v)
		}
	}
	out := vclock.NewVector(width)
	column := make([]uint64, 0, n)
	for c := 0; c < width; c++ {
		column = column[:0]
		for _, v := range m.known {
			column = append(column, v.Get(c))
		}
		// K-th largest by partial selection (n is small: the DC count).
		for i := 0; i < k; i++ {
			maxIdx := i
			for j := i + 1; j < len(column); j++ {
				if column[j] > column[maxIdx] {
					maxIdx = j
				}
			}
			column[i], column[maxIdx] = column[maxIdx], column[i]
		}
		out[c] = column[k-1]
	}
	return out
}

// Known returns a copy of the mesh's view of one DC's state vector.
func (m *Mesh) Known(dc int) vclock.Vector {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.known[dc].Clone()
}
