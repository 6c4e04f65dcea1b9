// Package txn defines the transaction record exchanged between every layer
// of Colony: edge nodes, peer groups, DC shards and the inter-DC replication
// mesh. A transaction carries its metadata (dot, snapshot vector, commit
// stamps — paper §3.5) and its effect log (one downstream CRDT operation per
// update).
package txn

import (
	"fmt"
	"maps"
	"slices"

	"colony/internal/crdt"
	"colony/internal/vclock"
)

// ObjectID names a database object: a key within a bucket (namespace).
type ObjectID struct {
	Bucket string
	Key    string
}

// String renders the id like "bucket/key".
func (id ObjectID) String() string { return id.Bucket + "/" + id.Key }

// Update is one CRDT mutation inside a transaction.
type Update struct {
	Object ObjectID
	Kind   crdt.Kind
	Op     crdt.Op
	// Seq is the update's index in the original transaction. It feeds the
	// CRDT op tag and must survive partitioning the update list across
	// shards, so it is stored explicitly rather than derived from slice
	// position.
	Seq int
}

// Meta returns the CRDT operation metadata for this update within the
// transaction identified by dot.
func (u Update) Meta(dot vclock.Dot) crdt.Meta { return crdt.Meta{Dot: dot, Seq: u.Seq} }

// Transaction is a committed (or locally committed) update transaction.
// Read-only transactions terminate without side effects and are never
// represented as Transaction values (paper §3.5).
//
// A Transaction is never written after it is built, so one value is shared
// by every holder in a process — stores, histories, push frames, outboxes,
// consensus payloads — without copies. Its set of equivalent commit vectors
// only grows (§3.5): a holder that learns a stamp or a snapshot join swaps
// its own pointer for the copy WithCommit or WithSnapshot returns, and every
// other holder keeps the value it had.
type Transaction struct {
	// Dot is the globally unique identifier, minted by the origin node. It
	// also provides the arbitration order between concurrent transactions.
	Dot vclock.Dot
	// Origin is the node that executed the transaction.
	Origin string
	// Actor is the authenticated user on whose behalf the transaction ran;
	// the ACL layer checks updates against this identity.
	Actor string
	// Snapshot is T.S: the causal cut the transaction read from.
	Snapshot vclock.Vector
	// Commit is T.C in compressed multi-vector form: accepting DC index →
	// timestamp. Empty means the commit vector is still symbolic.
	Commit vclock.CommitStamps
	// Updates is the effect log.
	Updates []Update
}

// Meta returns the CRDT operation metadata for the update at slice index i.
func (t *Transaction) Meta(i int) crdt.Meta { return t.Updates[i].Meta(t.Dot) }

// Restrict returns the transaction's view holding only the updates keep
// selects. The view shares t's metadata (Dot, Snapshot, Commit) and update
// values: when keep selects every update t itself is returned, when it
// selects none the result is nil, and otherwise only the filtered Updates
// slice is fresh. Shards store it and fan-out paths hand it to many
// receivers; like t, it is never written.
func (t *Transaction) Restrict(keep func(Update) bool) *Transaction {
	n := 0
	for _, u := range t.Updates {
		if keep(u) {
			n++
		}
	}
	switch n {
	case len(t.Updates):
		return t
	case 0:
		return nil
	}
	cp := *t
	cp.Updates = make([]Update, 0, n)
	for _, u := range t.Updates {
		if keep(u) {
			cp.Updates = append(cp.Updates, u)
		}
	}
	return &cp
}

// WithCommit returns a shallow copy of t carrying the commit stamps c.
func (t *Transaction) WithCommit(c vclock.CommitStamps) *Transaction {
	cp := *t
	cp.Commit = c
	return &cp
}

// WithSnapshot returns a shallow copy of t reading from the cut snap.
func (t *Transaction) WithSnapshot(snap vclock.Vector) *Transaction {
	cp := *t
	cp.Snapshot = snap
	return &cp
}

// Symbolic reports whether no DC has assigned a concrete commit timestamp.
func (t *Transaction) Symbolic() bool { return t.Commit.Symbolic() }

// VisibleAt reports whether the transaction is included in the causal cut v.
// Symbolic transactions are visible nowhere (except to their origin, which
// the caller checks separately for the Read-My-Writes guarantee).
func (t *Transaction) VisibleAt(v vclock.Vector) bool {
	return t.Commit.VisibleAt(t.Snapshot, v)
}

// CommitVector materialises one concrete commit vector, or returns false
// while the transaction is symbolic.
func (t *Transaction) CommitVector() (vclock.Vector, bool) {
	return t.Commit.Vector(t.Snapshot)
}

// AppendUpdate appends an update to a transaction under construction,
// assigning the next in-transaction sequence number. It must not be used
// once the transaction has been handed to anyone.
func (t *Transaction) AppendUpdate(id ObjectID, kind crdt.Kind, op crdt.Op) {
	t.Updates = append(t.Updates, Update{Object: id, Kind: kind, Op: op, Seq: len(t.Updates)})
}

// Objects returns the distinct objects the transaction updates, in update
// order.
func (t *Transaction) Objects() []ObjectID {
	seen := make(map[ObjectID]bool, len(t.Updates))
	out := make([]ObjectID, 0, len(t.Updates))
	for _, u := range t.Updates {
		if !seen[u.Object] {
			seen[u.Object] = true
			out = append(out, u.Object)
		}
	}
	return out
}

// Clone returns a copy of t with its own Snapshot, Commit and Updates. No
// holder needs one; fixtures that build variants in place do.
func (t *Transaction) Clone() *Transaction {
	cp := *t
	cp.Snapshot = t.Snapshot.Clone()
	cp.Commit = maps.Clone(t.Commit)
	cp.Updates = slices.Clone(t.Updates)
	return &cp
}

// String renders a short description for logs.
func (t *Transaction) String() string {
	return fmt.Sprintf("tx %s snap=%v commit=%v updates=%d", t.Dot, t.Snapshot, t.Commit, len(t.Updates))
}
