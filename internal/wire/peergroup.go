package wire

import (
	"fmt"

	"colony/internal/vclock"
)

// This file defines the peer-group protocol: group membership messages
// and the EPaxos consensus messages exchanged inside a peer group (paper §5).
// In the paper these ride WebRTC data channels; historically they were raw Go
// structs that could only travel in-process. Defining them here — with stable
// tags and binary codecs in codec.go — lets relay and peer-group traffic span
// real TCP processes. The group and epaxos packages alias these types
// (`type JoinReq = wire.GroupJoinReq`, `type PreAccept = wire.EPaxosPreAccept`,
// …), so their APIs and in-process type switches are unchanged; the types
// live here because wire must name them in its codec and both packages
// already depend on wire's layer.

// --- group membership and promotion (paper §5.1) ---

type (
	// GroupJoinReq asks the parent to admit a node into the group.
	GroupJoinReq struct {
		Node  string
		Actor string
	}
	// GroupJoinAck returns the current membership (parent included) and the
	// group's session key for content encryption.
	GroupJoinAck struct {
		Members    []string
		Parent     string
		SessionKey []byte
	}
	// GroupLeaveReq removes a node from the group.
	GroupLeaveReq struct {
		Node string
	}
	// GroupMemberEvent broadcasts the new full membership after a change.
	GroupMemberEvent struct {
		Members []string
	}
	// GroupPromote distributes a concrete commit descriptor assigned by the
	// DC for a group transaction.
	GroupPromote struct {
		Dot     vclock.Dot
		DCIndex int
		Ts      uint64
		Stable  vclock.Vector
	}
)

// --- EPaxos consensus (paper §5.1.4) ---

// EPaxosInstanceID names a command slot: each replica leads its own instance
// sub-space, so instance allocation needs no coordination.
type EPaxosInstanceID struct {
	Replica string
	Slot    uint64
}

// String renders like "peer1[4]".
func (id EPaxosInstanceID) String() string { return fmt.Sprintf("%s[%d]", id.Replica, id.Slot) }

// EPaxosCommand is one unit of agreement.
type EPaxosCommand struct {
	// ID identifies the command globally (the transaction dot rendered as a
	// string, in Colony's use).
	ID string
	// Keys are the interference keys: commands sharing a key conflict and
	// are totally ordered relative to each other.
	Keys []string
	// Payload is the command body — opaque to the protocol. On the wire it
	// must be nil or a *txn.Transaction (Colony's only payload); any other
	// type makes the carrying message unencodable.
	Payload any
}

type (
	// EPaxosPreAccept is phase one, sent by the command leader.
	EPaxosPreAccept struct {
		Inst EPaxosInstanceID
		Cmd  EPaxosCommand
		Deps []EPaxosInstanceID
		Seq  uint64
	}
	// EPaxosPreAcceptOK is the reply, carrying the replica's (possibly
	// extended) dependencies.
	EPaxosPreAcceptOK struct {
		Inst    EPaxosInstanceID
		From    string
		Deps    []EPaxosInstanceID
		Seq     uint64
		Changed bool
	}
	// EPaxosAccept is the slow-path phase run when pre-accept replies
	// disagree.
	EPaxosAccept struct {
		Inst EPaxosInstanceID
		Cmd  EPaxosCommand
		Deps []EPaxosInstanceID
		Seq  uint64
	}
	// EPaxosAcceptOK acknowledges an Accept.
	EPaxosAcceptOK struct {
		Inst EPaxosInstanceID
		From string
	}
	// EPaxosCommit finalises the instance at every replica.
	EPaxosCommit struct {
		Inst EPaxosInstanceID
		Cmd  EPaxosCommand
		Deps []EPaxosInstanceID
		Seq  uint64
	}
	// EPaxosCommitAck lets the leader stop re-broadcasting a commit to a
	// peer.
	EPaxosCommitAck struct {
		Inst EPaxosInstanceID
		From string
	}
)
