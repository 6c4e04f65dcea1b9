// Package group implements Colony peer groups (paper §5): SI zones at the
// edge built from nodes in close network proximity. A group has four
// cooperating roles:
//
//   - membership, seeded and managed by a single *parent* node;
//   - content sharing: a collaborative cache — the parent subscribes to the
//     DC for the union of the members' interest sets and serves member cache
//     misses at LAN latency;
//   - communication with the outside: the parent acts as the group's *sync
//     point*, shipping group-visible transactions to the connected DC in
//     visibility order, distributing commit descriptors back to the members,
//     and serving them one sequenced stream of the group's executions and
//     the DC's updates;
//   - the SI order: EPaxos runs among the members (and the parent), agreeing
//     on the visibility order of the group's transactions.
//
// Two commit variants exist (paper §5.1.4): VariantAsync commits locally and
// submits to EPaxos in the background (the paper's experimental setting);
// VariantPSI keeps consensus on the critical path of commit, so the group
// behaves as a Parallel Snapshot Isolation zone.
package group

import (
	"errors"

	"colony/internal/txn"
	"colony/internal/wire"
)

// Errors returned by the group layer.
var (
	ErrNotMember   = errors.New("group: node is not a member")
	ErrUnreachable = errors.New("group: parent unreachable")
)

// CommitVariant selects how member commits interact with consensus.
type CommitVariant int

// The commit variants of §5.1.4.
const (
	// VariantAsync commits locally at once and runs EPaxos off the critical
	// path (the default, used in the paper's evaluation).
	VariantAsync CommitVariant = iota + 1
	// VariantPSI submits to EPaxos on the critical path of commit, ordering
	// conflicting transactions before they complete (Parallel Snapshot
	// Isolation within the group).
	VariantPSI
)

// --- group wire messages ---
//
// The message types live in the wire package (wire.GroupJoinReq and friends,
// tags 18-22) so they have stable tags and binary codecs — peer-group traffic
// can span real TCP processes. The aliases keep this package's API and every
// in-process type switch unchanged.

type (
	// JoinReq asks the parent to admit a node into the group.
	JoinReq = wire.GroupJoinReq
	// JoinAck returns the current membership (parent included) and the
	// group's session key for content encryption.
	JoinAck = wire.GroupJoinAck
	// LeaveReq removes a node from the group.
	LeaveReq = wire.GroupLeaveReq
	// MemberEvent broadcasts the new full membership after a change.
	MemberEvent = wire.GroupMemberEvent
	// PromoteMsg distributes a concrete commit descriptor assigned by the DC
	// for a group transaction.
	PromoteMsg = wire.GroupPromote
)

// interferenceKeys renders a transaction's updated objects as EPaxos keys,
// plus one key for its origin node: a node's own transactions then always
// interfere, so every replica executes them — and the sync point uplinks
// them — in the order the node proposed them. (An origin key that happens to
// equal an object key only adds interference, which is always safe.)
func interferenceKeys(t *txn.Transaction) []string {
	objs := t.Objects()
	keys := make([]string, len(objs), len(objs)+1)
	for i, id := range objs {
		keys[i] = id.String()
	}
	return append(keys, "origin:"+t.Origin)
}
