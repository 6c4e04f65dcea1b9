package wire

import (
	"errors"
	"fmt"
	"time"

	"colony/internal/bin"
	"colony/internal/crdt"
	"colony/internal/txn"
	"colony/internal/vclock"
)

// This file is the binary wire codec: the canonical byte encoding every
// Colony message uses to cross a process boundary (the TCP transport; later
// any other real substrate). One encoded message is
//
//	tag (1 byte) | type-specific body
//
// with every body field a varint, a length-prefixed string/blob, or a nested
// composite of those (see internal/bin). Framing — how a byte stream is cut
// into messages — is the transport's concern, not the codec's: bodies are
// self-delimiting, and DecodeMessage rejects trailing bytes.
//
// Two deliberate choices:
//
//   - CRDT *operations* (crdt.Op, inside transaction updates) are written
//     inline by crdt.AppendOp — a kind byte, then the op's fields — and read
//     back by crdt.ReadOp, which is as strict as the rest of the codec. The
//     transaction encoding (AppendTx/DecodeTx) is also the WAL's record body,
//     so a transaction has one byte form on disk and on every socket.
//   - CRDT *state* (wire.ObjectState.Object) uses crdt.MarshalState, the
//     deterministic binary state codec. Encoding is read-pure on sealed
//     snapshots, so shipping a subscribe ack never copies or unseals the
//     sender's cache entry — the PR 4/5 zero-copy property extended to the
//     wire.
//
// Encoding is allocation-light by design: every Append* helper extends the
// caller's buffer, so a transport can encode into a pooled frame buffer.
var (
	// ErrUnknownTag reports a message tag this build does not know — a
	// newer peer, or garbage.
	ErrUnknownTag = errors.New("wire: unknown message tag")
	// ErrMalformed reports bytes that do not parse as the tagged message
	// (truncation, corruption, or trailing bytes).
	ErrMalformed = errors.New("wire: malformed message")
	// ErrNotEncodable reports a message that deliberately has no binary
	// encoding (a MigratedTx carrying a bare closure: in-process mobile code
	// with no name to resolve it by on the far side).
	ErrNotEncodable = errors.New("wire: message has no binary encoding")
)

// EncodeMessage appends the tagged binary encoding of m to buf and returns
// the extended slice. buf may be nil or a recycled frame buffer. m may be
// nil, which encodes as the single byte TagNone (the "no reply" message).
func EncodeMessage(buf []byte, m Message) ([]byte, error) {
	if m == nil {
		return append(buf, byte(TagNone)), nil
	}
	buf = append(buf, byte(m.Tag()))
	switch v := m.(type) {
	case ReplBatch:
		buf = bin.AppendVarint(buf, int64(v.From))
		buf = bin.AppendUvarint(buf, uint64(len(v.Txs)))
		var err error
		for _, t := range v.Txs {
			if buf, err = AppendTx(buf, t); err != nil {
				return nil, err
			}
		}
		buf = appendVector(buf, v.State)
		buf = appendTime(buf, v.SentAt)
		buf = bin.AppendUvarint(buf, v.WantSeq)
		buf = appendRange(buf, v.Gen, v.Lo, v.Hi)
		return bin.AppendUvarint(buf, v.Floor), nil
	case ReplHeartbeat:
		buf = bin.AppendVarint(buf, int64(v.From))
		buf = appendVector(buf, v.State)
		buf = bin.AppendUvarint(buf, v.Gen)
		buf = bin.AppendVarint(buf, int64(v.Cursor))
		return bin.AppendBool(buf, v.Refuse), nil
	case EdgeCommit:
		buf, err := AppendTx(buf, v.Tx)
		if err != nil || len(v.Next) == 0 {
			return buf, err
		}
		// Next is an optional trailing list, written only when non-empty: a
		// one-transaction flight encodes as the bare transaction.
		buf = bin.AppendUvarint(buf, uint64(len(v.Next)))
		for _, t := range v.Next {
			if buf, err = AppendTx(buf, t); err != nil {
				return nil, err
			}
		}
		return buf, nil
	case EdgeCommitAck:
		buf = appendAckStamp(buf, v)
		buf = appendVector(buf, v.Stable)
		if len(v.Next) == 0 {
			return buf, nil
		}
		buf = bin.AppendUvarint(buf, uint64(len(v.Next)))
		for _, a := range v.Next {
			buf = appendAckStamp(buf, a)
		}
		return buf, nil
	case EdgeCommitNack:
		buf = appendDot(buf, v.Dot)
		return appendVector(buf, v.Missing), nil
	case Subscribe:
		buf = bin.AppendString(buf, v.Node)
		buf = appendObjectIDs(buf, v.Objects)
		buf = bin.AppendBool(buf, v.Resume)
		buf = appendVector(buf, v.Since)
		buf = bin.AppendBool(buf, v.Relay)
		buf = bin.AppendUvarint(buf, v.Gen)
		return bin.AppendVarint(buf, int64(v.Cursor)), nil
	case SubscribeAck:
		buf = appendVector(buf, v.Stable)
		buf = bin.AppendUvarint(buf, uint64(len(v.Objects)))
		var err error
		for _, st := range v.Objects {
			if buf, err = appendObjectState(buf, st); err != nil {
				return nil, err
			}
		}
		buf = bin.AppendUvarint(buf, v.Gen)
		return bin.AppendVarint(buf, int64(v.Cursor)), nil
	case Unsubscribe:
		buf = bin.AppendString(buf, v.Node)
		return appendObjectIDs(buf, v.Objects), nil
	case ObjectState:
		return appendObjectState(buf, v)
	case FetchObject:
		buf = appendObjectID(buf, v.ID)
		return appendVector(buf, v.At), nil
	case PushTxs:
		buf = bin.AppendString(buf, v.From)
		buf = bin.AppendUvarint(buf, uint64(len(v.Txs)))
		var err error
		for _, t := range v.Txs {
			if buf, err = AppendTx(buf, t); err != nil {
				return nil, err
			}
		}
		buf = appendVector(buf, v.Stable)
		buf = appendRange(buf, v.Gen, v.Lo, v.Hi)
		if v.Group {
			// Group is an optional trailing field, written only when set: a
			// DC's frames encode exactly as before the field existed.
			buf = bin.AppendBool(buf, true)
		}
		return buf, nil
	case MigratedTxAck:
		buf = appendStamps(buf, v.Commit)
		return bin.AppendString(buf, v.Err), nil
	case TreeAssign:
		buf = bin.AppendString(buf, v.From)
		buf = bin.AppendUvarint(buf, v.Shard)
		buf = bin.AppendUvarint(buf, v.Epoch)
		return appendStrings(buf, v.Children), nil
	case TreePush:
		buf = bin.AppendString(buf, v.From)
		buf = bin.AppendUvarint(buf, v.Shard)
		buf = bin.AppendUvarint(buf, v.Epoch)
		buf = bin.AppendUvarint(buf, uint64(len(v.Txs)))
		var err error
		for _, t := range v.Txs {
			if buf, err = AppendTx(buf, t); err != nil {
				return nil, err
			}
		}
		buf = appendVector(buf, v.Stable)
		return appendRange(buf, v.Gen, v.Lo, v.Hi), nil
	case GroupJoinReq:
		buf = bin.AppendString(buf, v.Node)
		return bin.AppendString(buf, v.Actor), nil
	case GroupJoinAck:
		buf = appendStrings(buf, v.Members)
		buf = bin.AppendString(buf, v.Parent)
		return bin.AppendBytes(buf, v.SessionKey), nil
	case GroupLeaveReq:
		return bin.AppendString(buf, v.Node), nil
	case GroupMemberEvent:
		return appendStrings(buf, v.Members), nil
	case GroupPromote:
		buf = appendDot(buf, v.Dot)
		buf = bin.AppendVarint(buf, int64(v.DCIndex))
		buf = bin.AppendUvarint(buf, v.Ts)
		return appendVector(buf, v.Stable), nil
	case EPaxosPreAccept:
		buf = appendInstanceID(buf, v.Inst)
		var err error
		if buf, err = appendCommand(buf, v.Cmd); err != nil {
			return nil, err
		}
		buf = appendInstanceIDs(buf, v.Deps)
		return bin.AppendUvarint(buf, v.Seq), nil
	case EPaxosPreAcceptOK:
		buf = appendInstanceID(buf, v.Inst)
		buf = bin.AppendString(buf, v.From)
		buf = appendInstanceIDs(buf, v.Deps)
		buf = bin.AppendUvarint(buf, v.Seq)
		return bin.AppendBool(buf, v.Changed), nil
	case EPaxosAccept:
		buf = appendInstanceID(buf, v.Inst)
		var err error
		if buf, err = appendCommand(buf, v.Cmd); err != nil {
			return nil, err
		}
		buf = appendInstanceIDs(buf, v.Deps)
		return bin.AppendUvarint(buf, v.Seq), nil
	case EPaxosAcceptOK:
		buf = appendInstanceID(buf, v.Inst)
		return bin.AppendString(buf, v.From), nil
	case EPaxosCommit:
		buf = appendInstanceID(buf, v.Inst)
		var err error
		if buf, err = appendCommand(buf, v.Cmd); err != nil {
			return nil, err
		}
		buf = appendInstanceIDs(buf, v.Deps)
		return bin.AppendUvarint(buf, v.Seq), nil
	case EPaxosCommitAck:
		buf = appendInstanceID(buf, v.Inst)
		return bin.AppendString(buf, v.From), nil
	case MigratedTx:
		if v.Fn != nil && v.Name == "" {
			return nil, fmt.Errorf("%w: %T carries a bare closure (in-process mobile code)", ErrNotEncodable, m)
		}
		buf = bin.AppendString(buf, v.Origin)
		buf = bin.AppendString(buf, v.Actor)
		buf = appendVector(buf, v.Snapshot)
		buf = bin.AppendString(buf, v.Name)
		buf = bin.AppendBytes(buf, v.Args)
		return appendObjectIDs(buf, v.Touches), nil
	case BucketVec:
		buf = bin.AppendVarint(buf, int64(v.From))
		buf = bin.AppendUvarint(buf, v.Seq)
		buf = appendStrings(buf, v.Live)
		buf = appendStrings(buf, v.Pending)
		return appendVector(buf, v.State), nil
	case BackfillReq:
		buf = bin.AppendString(buf, v.Bucket)
		return appendVector(buf, v.At), nil
	case BackfillResp:
		buf = bin.AppendString(buf, v.Bucket)
		buf = appendVector(buf, v.At)
		buf = bin.AppendUvarint(buf, uint64(len(v.Objects)))
		var err error
		for _, st := range v.Objects {
			if buf, err = appendObjectState(buf, st); err != nil {
				return nil, err
			}
		}
		buf = bin.AppendBool(buf, v.OK)
		return bin.AppendBool(buf, v.NotLive), nil
	default:
		return nil, fmt.Errorf("%w: %T", ErrNotEncodable, m)
	}
}

// DecodeMessage decodes exactly one tagged message from data. The returned
// value is the same concrete value type senders put on the wire (e.g.
// ReplBatch, not *ReplBatch), so handler type switches behave identically on
// both substrates; nil is returned for the TagNone encoding. Decoded
// messages own all their memory — nothing aliases data, so the caller may
// recycle the buffer immediately.
func DecodeMessage(data []byte) (Message, error) {
	if len(data) == 0 {
		return nil, fmt.Errorf("%w: empty", ErrMalformed)
	}
	r := bin.NewReader(data)
	tag := Tag(r.Byte())
	var m Message
	switch tag {
	case TagNone:
		m = nil
	case TagReplBatch:
		v := ReplBatch{From: int(r.Varint())}
		n := r.Count(1)
		if n > 0 {
			v.Txs = make([]*txn.Transaction, 0, n)
			for i := 0; i < n; i++ {
				v.Txs = append(v.Txs, readTx(r))
			}
		}
		v.State = readVector(r)
		v.SentAt = readTime(r)
		v.WantSeq = r.Uvarint()
		v.Gen, v.Lo, v.Hi = readRange(r)
		v.Floor = r.Uvarint()
		m = v
	case TagReplHeartbeat:
		v := ReplHeartbeat{From: int(r.Varint()), State: readVector(r)}
		v.Gen = r.Uvarint()
		v.Cursor = int(r.Varint())
		v.Refuse = r.Bool()
		m = v
	case TagEdgeCommit:
		v := EdgeCommit{Tx: readTx(r)}
		if n := readTrailingCount(r, 1); n > 0 {
			v.Next = make([]*txn.Transaction, 0, n)
			for i := 0; i < n; i++ {
				v.Next = append(v.Next, readTx(r))
			}
		}
		m = v
	case TagEdgeCommitAck:
		v := readAckStamp(r)
		v.Stable = readVector(r)
		if n := readTrailingCount(r, 4); n > 0 {
			v.Next = make([]EdgeCommitAck, 0, n)
			for i := 0; i < n; i++ {
				v.Next = append(v.Next, readAckStamp(r))
			}
		}
		m = v
	case TagEdgeCommitNack:
		m = EdgeCommitNack{Dot: readDot(r), Missing: readVector(r)}
	case TagSubscribe:
		v := Subscribe{Node: r.String()}
		v.Objects = readObjectIDs(r)
		v.Resume = r.Bool()
		v.Since = readVector(r)
		v.Relay = r.Bool()
		v.Gen = r.Uvarint()
		v.Cursor = int(r.Varint())
		m = v
	case TagSubscribeAck:
		v := SubscribeAck{Stable: readVector(r)}
		n := r.Count(1)
		if n > 0 {
			v.Objects = make([]ObjectState, 0, n)
			for i := 0; i < n; i++ {
				st, err := readObjectState(r)
				if err != nil {
					return nil, err
				}
				v.Objects = append(v.Objects, st)
			}
		}
		v.Gen = r.Uvarint()
		v.Cursor = int(r.Varint())
		m = v
	case TagUnsubscribe:
		m = Unsubscribe{Node: r.String(), Objects: readObjectIDs(r)}
	case TagObjectState:
		st, err := readObjectState(r)
		if err != nil {
			return nil, err
		}
		m = st
	case TagFetchObject:
		m = FetchObject{ID: readObjectID(r), At: readVector(r)}
	case TagPushTxs:
		v := PushTxs{From: r.String()}
		n := r.Count(1)
		if n > 0 {
			v.Txs = make([]*txn.Transaction, 0, n)
			for i := 0; i < n; i++ {
				v.Txs = append(v.Txs, readTx(r))
			}
		}
		v.Stable = readVector(r)
		v.Gen, v.Lo, v.Hi = readRange(r)
		if r.Remaining() > 0 {
			// Present means set: an encoder omits a false Group.
			if v.Group = r.Bool(); !v.Group {
				r.Poison()
			}
		}
		m = v
	case TagMigratedTxAck:
		m = MigratedTxAck{Commit: readStamps(r), Err: r.String()}
	case TagTreeAssign:
		v := TreeAssign{From: r.String()}
		v.Shard = r.Uvarint()
		v.Epoch = r.Uvarint()
		v.Children = readStrings(r)
		m = v
	case TagTreePush:
		v := TreePush{From: r.String()}
		v.Shard = r.Uvarint()
		v.Epoch = r.Uvarint()
		n := r.Count(1)
		if n > 0 {
			v.Txs = make([]*txn.Transaction, 0, n)
			for i := 0; i < n; i++ {
				v.Txs = append(v.Txs, readTx(r))
			}
		}
		v.Stable = readVector(r)
		v.Gen, v.Lo, v.Hi = readRange(r)
		m = v
	case TagGroupJoinReq:
		m = GroupJoinReq{Node: r.String(), Actor: r.String()}
	case TagGroupJoinAck:
		v := GroupJoinAck{Members: readStrings(r)}
		v.Parent = r.String()
		if b := r.Bytes(); len(b) > 0 {
			v.SessionKey = append([]byte(nil), b...)
		}
		m = v
	case TagGroupLeaveReq:
		m = GroupLeaveReq{Node: r.String()}
	case TagGroupMemberEvent:
		m = GroupMemberEvent{Members: readStrings(r)}
	case TagGroupPromote:
		v := GroupPromote{Dot: readDot(r)}
		v.DCIndex = int(r.Varint())
		v.Ts = r.Uvarint()
		v.Stable = readVector(r)
		m = v
	case TagEPaxosPreAccept:
		v := EPaxosPreAccept{Inst: readInstanceID(r)}
		v.Cmd = readCommand(r)
		v.Deps = readInstanceIDs(r)
		v.Seq = r.Uvarint()
		m = v
	case TagEPaxosPreAcceptOK:
		v := EPaxosPreAcceptOK{Inst: readInstanceID(r)}
		v.From = r.String()
		v.Deps = readInstanceIDs(r)
		v.Seq = r.Uvarint()
		v.Changed = r.Bool()
		m = v
	case TagEPaxosAccept:
		v := EPaxosAccept{Inst: readInstanceID(r)}
		v.Cmd = readCommand(r)
		v.Deps = readInstanceIDs(r)
		v.Seq = r.Uvarint()
		m = v
	case TagEPaxosAcceptOK:
		m = EPaxosAcceptOK{Inst: readInstanceID(r), From: r.String()}
	case TagEPaxosCommit:
		v := EPaxosCommit{Inst: readInstanceID(r)}
		v.Cmd = readCommand(r)
		v.Deps = readInstanceIDs(r)
		v.Seq = r.Uvarint()
		m = v
	case TagEPaxosCommitAck:
		m = EPaxosCommitAck{Inst: readInstanceID(r), From: r.String()}
	case TagMigratedTx:
		v := MigratedTx{Origin: r.String()}
		v.Actor = r.String()
		v.Snapshot = readVector(r)
		v.Name = r.String()
		if b := r.Bytes(); len(b) > 0 {
			v.Args = append([]byte(nil), b...)
		}
		v.Touches = readObjectIDs(r)
		m = v
	case TagBucketVec:
		v := BucketVec{From: int(r.Varint())}
		v.Seq = r.Uvarint()
		v.Live = readStrings(r)
		v.Pending = readStrings(r)
		v.State = readVector(r)
		m = v
	case TagBackfillReq:
		m = BackfillReq{Bucket: r.String(), At: readVector(r)}
	case TagBackfillResp:
		v := BackfillResp{Bucket: r.String()}
		v.At = readVector(r)
		n := r.Count(1)
		if n > 0 {
			v.Objects = make([]ObjectState, 0, n)
			for i := 0; i < n; i++ {
				st, err := readObjectState(r)
				if err != nil {
					return nil, err
				}
				v.Objects = append(v.Objects, st)
			}
		}
		v.OK = r.Bool()
		v.NotLive = r.Bool()
		m = v
	default:
		return nil, fmt.Errorf("%w: %d", ErrUnknownTag, tag)
	}
	if !r.Complete() {
		return nil, fmt.Errorf("%w: tag %d (%d bytes)", ErrMalformed, tag, len(data))
	}
	return m, nil
}

// --- composite field codecs ---

// appendRange encodes the log range a sequenced push frame covers.
func appendRange(buf []byte, gen uint64, lo, hi int) []byte {
	buf = bin.AppendUvarint(buf, gen)
	buf = bin.AppendVarint(buf, int64(lo))
	return bin.AppendVarint(buf, int64(hi))
}

func readRange(r *bin.Reader) (gen uint64, lo, hi int) {
	gen = r.Uvarint()
	lo = int(r.Varint())
	hi = int(r.Varint())
	return gen, lo, hi
}

// appendVector encodes a state vector.
func appendVector(buf []byte, v vclock.Vector) []byte {
	buf = bin.AppendUvarint(buf, uint64(len(v)))
	for _, c := range v {
		buf = bin.AppendUvarint(buf, c)
	}
	return buf
}

func readVector(r *bin.Reader) vclock.Vector {
	n := r.Count(1)
	if n == 0 {
		return nil
	}
	v := make(vclock.Vector, 0, n)
	for i := 0; i < n; i++ {
		v = append(v, r.Uvarint())
	}
	return v
}

// readTrailingCount reads the length of an optional trailing list: zero when
// no bytes remain, the count otherwise. A list that is present must be
// non-empty — encoders omit an empty one — so an explicit zero is malformed.
func readTrailingCount(r *bin.Reader, minBytes int) int {
	if r.Remaining() == 0 {
		return 0
	}
	n := r.Count(minBytes)
	if n == 0 {
		r.Poison()
	}
	return n
}

// appendAckStamp encodes the commit descriptor of one acknowledged
// transaction: dot, DC index and timestamp.
func appendAckStamp(buf []byte, a EdgeCommitAck) []byte {
	buf = appendDot(buf, a.Dot)
	buf = bin.AppendVarint(buf, int64(a.DCIndex))
	return bin.AppendUvarint(buf, a.Ts)
}

func readAckStamp(r *bin.Reader) EdgeCommitAck {
	a := EdgeCommitAck{Dot: readDot(r)}
	a.DCIndex = int(r.Varint())
	a.Ts = r.Uvarint()
	return a
}

// appendDot encodes a transaction dot.
func appendDot(buf []byte, d vclock.Dot) []byte {
	buf = bin.AppendString(buf, d.Node)
	return bin.AppendUvarint(buf, d.Seq)
}

func readDot(r *bin.Reader) vclock.Dot {
	return vclock.Dot{Node: r.String(), Seq: r.Uvarint()}
}

// appendStamps encodes commit stamps sorted by DC index (deterministic
// bytes; an empty/nil map — a symbolic commit — encodes as count 0). The
// indexes are sorted in a stack array, so encoding a transaction allocates
// nothing unless it carries more than len(small) stamps.
func appendStamps(buf []byte, c vclock.CommitStamps) []byte {
	buf = bin.AppendUvarint(buf, uint64(len(c)))
	var small [8]int
	idxs := small[:0]
	for dc := range c {
		idxs = append(idxs, dc)
	}
	for i := 1; i < len(idxs); i++ { // insertion sort; stamps are tiny
		for j := i; j > 0 && idxs[j] < idxs[j-1]; j-- {
			idxs[j], idxs[j-1] = idxs[j-1], idxs[j]
		}
	}
	for _, dc := range idxs {
		buf = bin.AppendVarint(buf, int64(dc))
		buf = bin.AppendUvarint(buf, c[dc])
	}
	return buf
}

func readStamps(r *bin.Reader) vclock.CommitStamps {
	n := r.Count(2)
	if n == 0 {
		return nil
	}
	c := make(vclock.CommitStamps, n)
	for i := 0; i < n; i++ {
		dc := int(r.Varint())
		c[dc] = r.Uvarint()
	}
	return c
}

// appendTime encodes a timestamp as UnixNano (0 for the zero time, which
// "sent-at unknown" messages rely on).
func appendTime(buf []byte, t time.Time) []byte {
	if t.IsZero() {
		return bin.AppendVarint(buf, 0)
	}
	return bin.AppendVarint(buf, t.UnixNano())
}

func readTime(r *bin.Reader) time.Time {
	ns := r.Varint()
	if ns == 0 {
		return time.Time{}
	}
	return time.Unix(0, ns)
}

func appendObjectID(buf []byte, id txn.ObjectID) []byte {
	buf = bin.AppendString(buf, id.Bucket)
	return bin.AppendString(buf, id.Key)
}

func readObjectID(r *bin.Reader) txn.ObjectID {
	return txn.ObjectID{Bucket: r.String(), Key: r.String()}
}

func appendObjectIDs(buf []byte, ids []txn.ObjectID) []byte {
	buf = bin.AppendUvarint(buf, uint64(len(ids)))
	for _, id := range ids {
		buf = appendObjectID(buf, id)
	}
	return buf
}

func readObjectIDs(r *bin.Reader) []txn.ObjectID {
	n := r.Count(2)
	if n == 0 {
		return nil
	}
	ids := make([]txn.ObjectID, 0, n)
	for i := 0; i < n; i++ {
		ids = append(ids, readObjectID(r))
	}
	return ids
}

func appendStrings(buf []byte, ss []string) []byte {
	buf = bin.AppendUvarint(buf, uint64(len(ss)))
	for _, s := range ss {
		buf = bin.AppendString(buf, s)
	}
	return buf
}

func readStrings(r *bin.Reader) []string {
	n := r.Count(1)
	if n == 0 {
		return nil
	}
	ss := make([]string, 0, n)
	for i := 0; i < n; i++ {
		ss = append(ss, r.String())
	}
	return ss
}

// appendInstanceID encodes an EPaxos instance id.
func appendInstanceID(buf []byte, id EPaxosInstanceID) []byte {
	buf = bin.AppendString(buf, id.Replica)
	return bin.AppendUvarint(buf, id.Slot)
}

func readInstanceID(r *bin.Reader) EPaxosInstanceID {
	return EPaxosInstanceID{Replica: r.String(), Slot: r.Uvarint()}
}

func appendInstanceIDs(buf []byte, ids []EPaxosInstanceID) []byte {
	buf = bin.AppendUvarint(buf, uint64(len(ids)))
	for _, id := range ids {
		buf = appendInstanceID(buf, id)
	}
	return buf
}

func readInstanceIDs(r *bin.Reader) []EPaxosInstanceID {
	n := r.Count(2)
	if n == 0 {
		return nil
	}
	ids := make([]EPaxosInstanceID, 0, n)
	for i := 0; i < n; i++ {
		ids = append(ids, readInstanceID(r))
	}
	return ids
}

// appendCommand encodes an EPaxos command. Payload must be nil or a
// *txn.Transaction — Colony's only payload type; anything else has no wire
// form and makes the carrying message unencodable.
func appendCommand(buf []byte, c EPaxosCommand) ([]byte, error) {
	buf = bin.AppendString(buf, c.ID)
	buf = appendStrings(buf, c.Keys)
	switch p := c.Payload.(type) {
	case nil:
		return bin.AppendBool(buf, false), nil
	case *txn.Transaction:
		return AppendTx(buf, p)
	default:
		return nil, fmt.Errorf("%w: epaxos command payload %T", ErrNotEncodable, c.Payload)
	}
}

func readCommand(r *bin.Reader) EPaxosCommand {
	c := EPaxosCommand{ID: r.String(), Keys: readStrings(r)}
	if t := readTx(r); t != nil {
		c.Payload = t
	}
	return c
}

// AppendTx appends the encoding of one transaction to buf: dot, origin,
// actor, snapshot, commit stamps, then the update log. It is the only
// transaction encoding in the repository — every message that carries a
// transaction embeds it, and the WAL stores it as its record body. A nil
// transaction encodes as a presence 0.
func AppendTx(buf []byte, t *txn.Transaction) ([]byte, error) {
	if t == nil {
		return bin.AppendBool(buf, false), nil
	}
	buf = bin.AppendBool(buf, true)
	buf = appendDot(buf, t.Dot)
	buf = bin.AppendString(buf, t.Origin)
	buf = bin.AppendString(buf, t.Actor)
	buf = appendVector(buf, t.Snapshot)
	buf = appendStamps(buf, t.Commit)
	buf = bin.AppendUvarint(buf, uint64(len(t.Updates)))
	for i := range t.Updates {
		u := &t.Updates[i]
		buf = appendObjectID(buf, u.Object)
		buf = append(buf, byte(u.Kind))
		buf = bin.AppendVarint(buf, int64(u.Seq))
		var err error
		if buf, err = crdt.AppendOp(buf, u.Op); err != nil {
			return nil, fmt.Errorf("wire: encode op for %v: %w", u.Object, err)
		}
	}
	return buf, nil
}

// DecodeTx decodes exactly one transaction encoded by AppendTx. Like
// DecodeMessage it rejects trailing bytes; it also rejects the nil
// encoding. The result owns all its memory.
func DecodeTx(data []byte) (*txn.Transaction, error) {
	r := bin.NewReader(data)
	t := readTx(r)
	if t == nil || !r.Complete() {
		return nil, fmt.Errorf("%w: transaction (%d bytes)", ErrMalformed, len(data))
	}
	return t, nil
}

// readTx decodes one transaction; a malformed op latches the reader's error
// so the caller's Complete check fails.
func readTx(r *bin.Reader) *txn.Transaction {
	if !r.Bool() {
		return nil
	}
	t := &txn.Transaction{Dot: readDot(r)}
	t.Origin = r.String()
	t.Actor = r.String()
	t.Snapshot = readVector(r)
	t.Commit = readStamps(r)
	n := r.Count(4)
	if n > 0 {
		t.Updates = make([]txn.Update, 0, n)
		for i := 0; i < n; i++ {
			u := txn.Update{Object: readObjectID(r)}
			u.Kind = crdt.Kind(r.Byte())
			u.Seq = int(r.Varint())
			var err error
			if u.Op, err = crdt.ReadOp(r); err != nil {
				return nil
			}
			t.Updates = append(t.Updates, u)
		}
	}
	return t
}

// appendObjectState encodes one materialised object. The CRDT state blob is
// produced by crdt.MarshalState — read-pure, so a sealed cache snapshot is
// encoded in place with zero copies or forks.
func appendObjectState(buf []byte, st ObjectState) ([]byte, error) {
	buf = appendObjectID(buf, st.ID)
	buf = append(buf, byte(st.Kind))
	state, err := crdt.MarshalState(nil, st.Object)
	if err != nil {
		return nil, fmt.Errorf("wire: encode state for %v: %w", st.ID, err)
	}
	buf = bin.AppendBytes(buf, state)
	buf = appendVector(buf, st.Vec)
	buf = bin.AppendBool(buf, st.ViaDC)
	buf = bin.AppendUvarint(buf, uint64(len(st.Folded)))
	for _, d := range st.Folded {
		buf = appendDot(buf, d)
	}
	return buf, nil
}

func readObjectState(r *bin.Reader) (ObjectState, error) {
	st := ObjectState{ID: readObjectID(r)}
	st.Kind = crdt.Kind(r.Byte())
	blob := r.Bytes()
	if !r.Err() {
		obj, err := crdt.UnmarshalState(blob)
		if err != nil {
			return ObjectState{}, fmt.Errorf("%w: object state for %v: %v", ErrMalformed, st.ID, err)
		}
		st.Object = obj
	}
	st.Vec = readVector(r)
	st.ViaDC = r.Bool()
	n := r.Count(2)
	if n > 0 {
		st.Folded = make([]vclock.Dot, 0, n)
		for i := 0; i < n; i++ {
			st.Folded = append(st.Folded, readDot(r))
		}
	}
	return st, nil
}
