package wire

// Tag is a message type's stable wire identifier: the first byte of every
// encoded message, and the codec's dispatch key. Tags are append-only
// protocol constants — never renumber or reuse one, or mixed-version meshes
// misparse each other. Tag 0 (TagNone) is reserved for "no message", which
// call replies use when a handler returns nil.
type Tag uint8

// The wire protocol's message tags.
const (
	TagNone Tag = 0
	// TagReplTx is retired: it carried the single-transaction replication
	// message ReplTx, which nothing sends any more. The number stays declared
	// so it is never reused; the decoder rejects it as an unknown tag.
	TagReplTx         Tag = 1
	TagReplBatch      Tag = 2
	TagReplHeartbeat  Tag = 3
	TagEdgeCommit     Tag = 4
	TagEdgeCommitAck  Tag = 5
	TagEdgeCommitNack Tag = 6
	TagSubscribe      Tag = 7
	TagSubscribeAck   Tag = 8
	TagUnsubscribe    Tag = 9
	TagObjectState    Tag = 10
	TagFetchObject    Tag = 11
	TagPushTxs        Tag = 12
	TagMigratedTx     Tag = 13
	TagMigratedTxAck  Tag = 14

	// Tree multicast (PR 7).
	TagTreeAssign Tag = 15
	TagTreePush   Tag = 16
	// TagTreeAck is retired: it carried the subtree root's forwarding receipt
	// TreeAck, which nothing sends since receivers hold their own cursors.
	// The number stays declared so it is never reused; the decoder rejects it
	// as an unknown tag.
	TagTreeAck Tag = 17

	// Peer-group membership and sync.
	TagGroupJoinReq     Tag = 18
	TagGroupJoinAck     Tag = 19
	TagGroupLeaveReq    Tag = 20
	TagGroupMemberEvent Tag = 21
	TagGroupPromote     Tag = 22
	TagGroupSyncReq     Tag = 23
	TagGroupSyncAck     Tag = 24
	TagGroupVisEntry    Tag = 25

	// EPaxos consensus inside a peer group.
	TagEPaxosPreAccept   Tag = 26
	TagEPaxosPreAcceptOK Tag = 27
	TagEPaxosAccept      Tag = 28
	TagEPaxosAcceptOK    Tag = 29
	TagEPaxosCommit      Tag = 30
	TagEPaxosCommitAck   Tag = 31

	// Partial replication (PR 10).
	TagBucketVec    Tag = 32
	TagBackfillReq  Tag = 33
	TagBackfillResp Tag = 34
	// TagBucketDrop, TagDropQuery and TagDropVote are retired: they carried
	// the bucket drop protocol (BucketDrop, DropQuery, DropVote), which
	// nothing sends since a partial DC keeps every bucket it acquires. The
	// numbers stay declared so they are never reused; the decoder rejects
	// them as unknown tags.
	TagBucketDrop Tag = 35
	TagDropQuery  Tag = 36
	TagDropVote   Tag = 37
)

// Message unifies every wire message: a stable codec tag plus the logical
// message count the network substrate uses for batch-delivery accounting
// (simnet's net.sent_units / net.delivered_units). Coalesced batches return
// their constituent count from Units; everything else returns 1.
//
// The interface is the codec's dispatch table (Tag selects the per-type
// encoder/decoder) and replaces per-type knowledge in the substrates: simnet
// sees only Units, tcp sees only Tag.
type Message interface {
	Tag() Tag
	Units() int
}

// Compile-time check: every wire message satisfies Message.
var _ = []Message{
	ReplBatch{}, ReplHeartbeat{},
	EdgeCommit{}, EdgeCommitAck{}, EdgeCommitNack{},
	Subscribe{}, SubscribeAck{}, Unsubscribe{},
	ObjectState{}, FetchObject{}, PushTxs{},
	MigratedTx{}, MigratedTxAck{},
	TreeAssign{}, TreePush{},
	GroupJoinReq{}, GroupJoinAck{}, GroupLeaveReq{}, GroupMemberEvent{},
	GroupPromote{}, GroupSyncReq{}, GroupSyncAck{}, GroupVisEntry{},
	EPaxosPreAccept{}, EPaxosPreAcceptOK{}, EPaxosAccept{},
	EPaxosAcceptOK{}, EPaxosCommit{}, EPaxosCommitAck{},
	BucketVec{}, BackfillReq{}, BackfillResp{},
}

// Tag implements Message.
func (ReplBatch) Tag() Tag { return TagReplBatch }

// Tag implements Message.
func (ReplHeartbeat) Tag() Tag { return TagReplHeartbeat }

// Units implements Message.
func (ReplHeartbeat) Units() int { return 1 }

// Tag implements Message.
func (EdgeCommit) Tag() Tag { return TagEdgeCommit }

// Units implements Message.
func (EdgeCommit) Units() int { return 1 }

// Tag implements Message.
func (EdgeCommitAck) Tag() Tag { return TagEdgeCommitAck }

// Units implements Message.
func (EdgeCommitAck) Units() int { return 1 }

// Tag implements Message.
func (EdgeCommitNack) Tag() Tag { return TagEdgeCommitNack }

// Units implements Message.
func (EdgeCommitNack) Units() int { return 1 }

// Tag implements Message.
func (Subscribe) Tag() Tag { return TagSubscribe }

// Units implements Message.
func (Subscribe) Units() int { return 1 }

// Tag implements Message.
func (SubscribeAck) Tag() Tag { return TagSubscribeAck }

// Units implements Message.
func (SubscribeAck) Units() int { return 1 }

// Tag implements Message.
func (Unsubscribe) Tag() Tag { return TagUnsubscribe }

// Units implements Message.
func (Unsubscribe) Units() int { return 1 }

// Tag implements Message.
func (ObjectState) Tag() Tag { return TagObjectState }

// Units implements Message.
func (ObjectState) Units() int { return 1 }

// Tag implements Message.
func (FetchObject) Tag() Tag { return TagFetchObject }

// Units implements Message.
func (FetchObject) Units() int { return 1 }

// Tag implements Message.
func (PushTxs) Tag() Tag { return TagPushTxs }

// Tag implements Message. Only the named form (Name + Args + Touches) has a
// binary encoding; a MigratedTx carrying a bare closure travels in-process
// only (see the codec's ErrNotEncodable).
func (MigratedTx) Tag() Tag { return TagMigratedTx }

// Units implements Message.
func (MigratedTx) Units() int { return 1 }

// Tag implements Message.
func (MigratedTxAck) Tag() Tag { return TagMigratedTxAck }

// Units implements Message.
func (MigratedTxAck) Units() int { return 1 }

// Tag implements Message.
func (TreeAssign) Tag() Tag { return TagTreeAssign }

// Units implements Message.
func (TreeAssign) Units() int { return 1 }

// Tag implements Message.
func (TreePush) Tag() Tag { return TagTreePush }

// Units implements Message. Like PushTxs, a pure stability advance counts as
// one message.
func (p TreePush) Units() int {
	if len(p.Txs) == 0 {
		return 1
	}
	return len(p.Txs)
}

// Tag implements Message.
func (GroupJoinReq) Tag() Tag { return TagGroupJoinReq }

// Units implements Message.
func (GroupJoinReq) Units() int { return 1 }

// Tag implements Message.
func (GroupJoinAck) Tag() Tag { return TagGroupJoinAck }

// Units implements Message.
func (GroupJoinAck) Units() int { return 1 }

// Tag implements Message.
func (GroupLeaveReq) Tag() Tag { return TagGroupLeaveReq }

// Units implements Message.
func (GroupLeaveReq) Units() int { return 1 }

// Tag implements Message.
func (GroupMemberEvent) Tag() Tag { return TagGroupMemberEvent }

// Units implements Message.
func (GroupMemberEvent) Units() int { return 1 }

// Tag implements Message.
func (GroupPromote) Tag() Tag { return TagGroupPromote }

// Units implements Message.
func (GroupPromote) Units() int { return 1 }

// Tag implements Message.
func (GroupSyncReq) Tag() Tag { return TagGroupSyncReq }

// Units implements Message.
func (GroupSyncReq) Units() int { return 1 }

// Tag implements Message.
func (GroupSyncAck) Tag() Tag { return TagGroupSyncAck }

// Units implements Message. A sync ack that only advances the stable vector
// still counts as one message.
func (a GroupSyncAck) Units() int {
	if len(a.Entries) == 0 {
		return 1
	}
	return len(a.Entries)
}

// Tag implements Message.
func (GroupVisEntry) Tag() Tag { return TagGroupVisEntry }

// Units implements Message.
func (GroupVisEntry) Units() int { return 1 }

// Tag implements Message.
func (EPaxosPreAccept) Tag() Tag { return TagEPaxosPreAccept }

// Units implements Message.
func (EPaxosPreAccept) Units() int { return 1 }

// Tag implements Message.
func (EPaxosPreAcceptOK) Tag() Tag { return TagEPaxosPreAcceptOK }

// Units implements Message.
func (EPaxosPreAcceptOK) Units() int { return 1 }

// Tag implements Message.
func (EPaxosAccept) Tag() Tag { return TagEPaxosAccept }

// Units implements Message.
func (EPaxosAccept) Units() int { return 1 }

// Tag implements Message.
func (EPaxosAcceptOK) Tag() Tag { return TagEPaxosAcceptOK }

// Units implements Message.
func (EPaxosAcceptOK) Units() int { return 1 }

// Tag implements Message.
func (EPaxosCommit) Tag() Tag { return TagEPaxosCommit }

// Units implements Message.
func (EPaxosCommit) Units() int { return 1 }

// Tag implements Message.
func (EPaxosCommitAck) Tag() Tag { return TagEPaxosCommitAck }

// Units implements Message.
func (EPaxosCommitAck) Units() int { return 1 }

// Tag implements Message.
func (BucketVec) Tag() Tag { return TagBucketVec }

// Units implements Message.
func (BucketVec) Units() int { return 1 }

// Tag implements Message.
func (BackfillReq) Tag() Tag { return TagBackfillReq }

// Units implements Message.
func (BackfillReq) Units() int { return 1 }

// Tag implements Message.
func (BackfillResp) Tag() Tag { return TagBackfillResp }

// Units implements Message.
func (BackfillResp) Units() int { return 1 }
