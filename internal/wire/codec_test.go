package wire

import (
	"bytes"
	"encoding/hex"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"colony/internal/crdt"
	"colony/internal/txn"
	"colony/internal/vclock"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata golden frames from the current codec")

// sampleTx builds a transaction exercising every field: concrete commit
// stamps, a multi-update effect log with ops of several kinds.
func sampleTx() *txn.Transaction {
	t := &txn.Transaction{
		Dot:      vclock.Dot{Node: "edge-7", Seq: 42},
		Origin:   "edge-7",
		Actor:    "alice",
		Snapshot: vclock.Vector{3, 1, 4},
		Commit:   vclock.CommitStamps{0: 5, 2: 9},
	}
	t.AppendUpdate(txn.ObjectID{Bucket: "docs", Key: "readme"},
		crdt.KindRGA, crdt.Op{RGA: &crdt.RGAOp{Value: "h"}})
	t.AppendUpdate(txn.ObjectID{Bucket: "stats", Key: "edits"},
		crdt.KindCounter, crdt.Op{Counter: &crdt.CounterOp{Delta: 2}})
	t.AppendUpdate(txn.ObjectID{Bucket: "meta", Key: "title"},
		crdt.KindLWWRegister, crdt.Op{LWW: &crdt.LWWRegisterOp{Value: "Colony"}})
	return t
}

// sampleTxAt is sampleTx with dot sequence seq and no commit stamps: a
// later transaction of the same edge's uplink flight.
func sampleTxAt(seq uint64) *txn.Transaction {
	t := sampleTx()
	t.Dot.Seq = seq
	t.Commit = nil
	return t
}

// sampleObjectState builds an ObjectState with real CRDT state.
func sampleObjectState() ObjectState {
	set := crdt.NewORSet()
	mustApply(set, crdt.Meta{Dot: vclock.Dot{Node: "a", Seq: 1}}, set.PrepareAdd("x"))
	mustApply(set, crdt.Meta{Dot: vclock.Dot{Node: "b", Seq: 2}}, set.PrepareAdd("y"))
	set.Seal()
	return ObjectState{
		ID:     txn.ObjectID{Bucket: "rooms", Key: "members"},
		Kind:   crdt.KindORSet,
		Object: set,
		Vec:    vclock.Vector{7, 0, 2},
		ViaDC:  true,
		Folded: []vclock.Dot{{Node: "peer-3", Seq: 11}},
	}
}

func mustApply(o crdt.Object, m crdt.Meta, op crdt.Op) {
	if err := o.Apply(m, op); err != nil {
		panic(err)
	}
}

// goldenMessages is one fixed instance of every encodable wire message; the
// golden files in testdata/ pin their exact byte encodings, so any codec
// change that silently breaks compatibility fails here.
func goldenMessages() map[string]Message {
	sentAt := time.Unix(0, 1700000000000000000)
	return map[string]Message{
		"repl_batch": ReplBatch{From: 2, Txs: []*txn.Transaction{sampleTx(), sampleTx()},
			State: vclock.Vector{1, 2}, SentAt: sentAt, WantSeq: 6},
		"repl_heartbeat":    ReplHeartbeat{From: 0, State: vclock.Vector{10, 20, 30}},
		"edge_commit":       EdgeCommit{Tx: sampleTx()},
		"edge_commit_ack":   EdgeCommitAck{Dot: vclock.Dot{Node: "edge-7", Seq: 42}, DCIndex: 2, Ts: 10, Stable: vclock.Vector{5, 5, 10}},
		"edge_commit_batch": EdgeCommit{Tx: sampleTx(), Next: []*txn.Transaction{sampleTxAt(43), sampleTxAt(44)}},
		"edge_commit_ack_batch": EdgeCommitAck{Dot: vclock.Dot{Node: "edge-7", Seq: 42}, DCIndex: 2, Ts: 10,
			Stable: vclock.Vector{5, 5, 10}, Next: []EdgeCommitAck{
				{Dot: vclock.Dot{Node: "edge-7", Seq: 43}, DCIndex: 2, Ts: 11},
				{Dot: vclock.Dot{Node: "edge-7", Seq: 44}, DCIndex: 2, Ts: 12}}},
		"edge_commit_nack": EdgeCommitNack{Dot: vclock.Dot{Node: "edge-9", Seq: 3},
			Missing: vclock.Vector{1, 0, 0}},
		"subscribe": Subscribe{Node: "edge-7",
			Objects: []txn.ObjectID{{Bucket: "docs", Key: "readme"}, {Bucket: "docs", Key: "todo"}},
			Resume:  true, Since: vclock.Vector{2, 2, 2}, Relay: true, Gen: 1700000000000000007, Cursor: 41},
		"subscribe_ack": SubscribeAck{Stable: vclock.Vector{4, 4, 4},
			Objects: []ObjectState{sampleObjectState()}, Gen: 1700000000000000007, Cursor: 44},
		"unsubscribe":  Unsubscribe{Node: "edge-7", Objects: []txn.ObjectID{{Bucket: "docs", Key: "todo"}}},
		"object_state": sampleObjectState(),
		"fetch_object": FetchObject{ID: txn.ObjectID{Bucket: "docs", Key: "readme"}, At: vclock.Vector{3, 1, 4}},
		"push_txs": PushTxs{From: "dc1", Txs: []*txn.Transaction{sampleTx()},
			Stable: vclock.Vector{5, 5, 5}, Gen: 1700000000000000007, Lo: 41, Hi: 44},
		"push_txs_group": PushTxs{From: "parent-1", Txs: []*txn.Transaction{sampleTx()},
			Gen: 1700000000000000009, Lo: 7, Hi: 8, Group: true},
		"migrated_tx": MigratedTx{Origin: "edge-7", Actor: "alice",
			Snapshot: vclock.Vector{3, 1, 4}, Name: "recount", Args: []byte{0x01, 0x02},
			Touches: []txn.ObjectID{{Bucket: "stats", Key: "edits"}, {Bucket: "docs", Key: "readme"}}},
		"migrated_tx_ack": MigratedTxAck{Commit: vclock.CommitStamps{1: 17}, Err: "boom"},
		"bucket_vec": BucketVec{From: 1, Seq: 9, Live: []string{"docs", "stats"},
			Pending: []string{"rooms"}, State: vclock.Vector{4, 2, 0}},
		"backfill_req": BackfillReq{Bucket: "rooms", At: vclock.Vector{3, 1, 4}},
		"backfill_resp": BackfillResp{Bucket: "rooms", At: vclock.Vector{7, 0, 2},
			Objects: []ObjectState{sampleObjectState()}, OK: true},
		"tree_assign": TreeAssign{From: "dc1", Shard: 7, Epoch: 3,
			Children: []string{"edge-2", "edge-3", "edge-4"}},
		"tree_push": TreePush{From: "dc1", Shard: 7, Epoch: 3,
			Txs: []*txn.Transaction{sampleTx()}, Stable: vclock.Vector{5, 5, 5},
			Gen: 1700000000000000007, Lo: 41, Hi: 44},
		"group_join_req": GroupJoinReq{Node: "peer-2", Actor: "bob"},
		"group_join_ack": GroupJoinAck{Members: []string{"parent-1", "peer-2"},
			Parent: "parent-1", SessionKey: []byte{0xde, 0xad, 0xbe, 0xef}},
		"group_leave_req":    GroupLeaveReq{Node: "peer-2"},
		"group_member_event": GroupMemberEvent{Members: []string{"parent-1", "peer-2", "peer-3"}},
		"group_promote": GroupPromote{Dot: vclock.Dot{Node: "peer-2", Seq: 8},
			DCIndex: 1, Ts: 44, Stable: vclock.Vector{6, 2, 1}},
		"epaxos_pre_accept": EPaxosPreAccept{Inst: EPaxosInstanceID{Replica: "peer-1", Slot: 4},
			Cmd:  EPaxosCommand{ID: "edge-7:42", Keys: []string{"docs/readme"}, Payload: sampleTx()},
			Deps: []EPaxosInstanceID{{Replica: "peer-2", Slot: 1}}, Seq: 2},
		"epaxos_pre_accept_ok": EPaxosPreAcceptOK{Inst: EPaxosInstanceID{Replica: "peer-1", Slot: 4},
			From: "peer-2", Deps: []EPaxosInstanceID{{Replica: "peer-2", Slot: 1}, {Replica: "peer-3", Slot: 2}},
			Seq: 3, Changed: true},
		"epaxos_accept": EPaxosAccept{Inst: EPaxosInstanceID{Replica: "peer-1", Slot: 4},
			Cmd:  EPaxosCommand{ID: "edge-7:42", Keys: []string{"docs/readme", "meta/title"}},
			Deps: []EPaxosInstanceID{{Replica: "peer-3", Slot: 2}}, Seq: 3},
		"epaxos_accept_ok": EPaxosAcceptOK{Inst: EPaxosInstanceID{Replica: "peer-1", Slot: 4}, From: "peer-3"},
		"epaxos_commit": EPaxosCommit{Inst: EPaxosInstanceID{Replica: "peer-1", Slot: 4},
			Cmd:  EPaxosCommand{ID: "edge-7:42", Keys: []string{"docs/readme"}, Payload: sampleTx()},
			Deps: []EPaxosInstanceID{{Replica: "peer-2", Slot: 1}}, Seq: 2},
		"epaxos_commit_ack": EPaxosCommitAck{Inst: EPaxosInstanceID{Replica: "peer-1", Slot: 4}, From: "peer-2"},
	}
}

// retiredReplTxFrame is the start of a frame an old peer would have sent with
// the retired tag 1: sender index, then a transaction's dot.
var retiredReplTxFrame = []byte{byte(TagReplTx), 0x02, 0x01, 0x06, 'e', 'd', 'g', 'e', '-', '7', 0x2a}

// retiredTreeAckFrame is the forwarding receipt an old relay would have sent
// with the retired tag 17 (the last golden encoding of TreeAck): node, shard,
// epoch, seq, one failed child, dropped.
var retiredTreeAckFrame = []byte{byte(TagTreeAck), 0x06, 'e', 'd', 'g', 'e', '-', '1', 0x07, 0x03, 0x0c,
	0x01, 0x06, 'e', 'd', 'g', 'e', '-', '3', 0x01}

// The bucket drop protocol's frames with the retired tags 35–37, each the
// last golden encoding of its message, all for bucket "stats": a drop by DC
// 2 at interest-set version 5, a survivor query from DC 1, and a Hold vote.
var (
	retiredBucketDropFrame = []byte{byte(TagBucketDrop), 0x04, 0x05, 0x05, 's', 't', 'a', 't', 's'}
	retiredDropQueryFrame  = []byte{byte(TagDropQuery), 0x02, 0x05, 's', 't', 'a', 't', 's', 0x00}
	retiredDropVoteFrame   = []byte{byte(TagDropVote), 0x05, 's', 't', 'a', 't', 's', 0x01}
)

// retiredGroupFrames returns the last golden encodings of the group
// parent's visibility-log messages, whose tags 23–25 are retired: a pull
// from index 5 by peer-3, its reply (from 5, one transaction, cut [4 4 4]),
// and the push of entry 9.
func retiredGroupFrames(t testing.TB) [][]byte {
	t.Helper()
	tx, err := AppendTx(nil, sampleTx())
	if err != nil {
		t.Fatal(err)
	}
	syncReq := []byte{byte(TagGroupSyncReq), 0x06, 'p', 'e', 'e', 'r', '-', '3', 0x0a}
	syncAck := append(append([]byte{byte(TagGroupSyncAck), 0x0a, 0x01}, tx...), 0x03, 0x04, 0x04, 0x04)
	visEntry := append([]byte{byte(TagGroupVisEntry), 0x12}, tx...)
	return [][]byte{syncReq, syncAck, visEntry}
}

func goldenPath(name string) string {
	return filepath.Join("testdata", "golden_"+name+".hex")
}

// TestGoldenFrames pins the byte encoding of every wire message. Run with
// -update-golden after a deliberate protocol change (and bump the transport
// protocol version when you do).
func TestGoldenFrames(t *testing.T) {
	for name, msg := range goldenMessages() {
		t.Run(name, func(t *testing.T) {
			got, err := EncodeMessage(nil, msg)
			if err != nil {
				t.Fatalf("encode: %v", err)
			}
			path := goldenPath(name)
			if *updateGolden {
				if err := os.MkdirAll("testdata", 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, []byte(hex.EncodeToString(got)+"\n"), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			raw, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden file (run go test -update-golden): %v", err)
			}
			want, err := hex.DecodeString(strings.TrimSpace(string(raw)))
			if err != nil {
				t.Fatalf("bad golden file: %v", err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("encoding of %s changed:\n got %s\nwant %s",
					name, hex.EncodeToString(got), hex.EncodeToString(want))
			}
			// Goldens must themselves decode back to the source message.
			back, err := DecodeMessage(want)
			if err != nil {
				t.Fatalf("decode golden: %v", err)
			}
			assertMessagesEqual(t, msg, back)
		})
	}
}

// assertMessagesEqual compares messages for semantic equality: CRDT objects
// are compared via their canonical state bytes (decode yields fresh unsealed
// objects, so pointer-level DeepEqual cannot apply).
func assertMessagesEqual(t *testing.T, want, got Message) {
	t.Helper()
	nw := normalizeMessage(t, want)
	ng := normalizeMessage(t, got)
	if !reflect.DeepEqual(nw, ng) {
		t.Errorf("round trip mismatch:\n got %#v\nwant %#v", ng, nw)
	}
}

// normalizeMessage replaces embedded crdt.Objects with their canonical state
// encoding so DeepEqual compares semantics, not representation.
func normalizeMessage(t *testing.T, m Message) any {
	t.Helper()
	stateOf := func(o crdt.Object) string {
		b, err := crdt.MarshalState(nil, o)
		if err != nil {
			t.Fatalf("marshal state: %v", err)
		}
		return hex.EncodeToString(b)
	}
	switch v := m.(type) {
	case ObjectState:
		return fmt.Sprintf("%v|%d|%s|%v|%v|%v", v.ID, v.Kind, stateOf(v.Object), v.Vec, v.ViaDC, v.Folded)
	case SubscribeAck:
		parts := []string{fmt.Sprintf("%v", v.Stable)}
		for _, st := range v.Objects {
			parts = append(parts, normalizeMessage(t, st).(string))
		}
		return strings.Join(parts, "||")
	case BackfillResp:
		parts := []string{fmt.Sprintf("%s|%v|%v", v.Bucket, v.At, v.OK)}
		for _, st := range v.Objects {
			parts = append(parts, normalizeMessage(t, st).(string))
		}
		return strings.Join(parts, "||")
	default:
		return m
	}
}

// TestRoundTripAllMessages re-encodes decoded messages and requires
// byte-identical output: the codec is canonical (one encoding per value),
// which the golden scheme and frame dedup rely on.
func TestRoundTripAllMessages(t *testing.T) {
	for name, msg := range goldenMessages() {
		t.Run(name, func(t *testing.T) {
			b1, err := EncodeMessage(nil, msg)
			if err != nil {
				t.Fatalf("encode: %v", err)
			}
			m2, err := DecodeMessage(b1)
			if err != nil {
				t.Fatalf("decode: %v", err)
			}
			b2, err := EncodeMessage(nil, m2)
			if err != nil {
				t.Fatalf("re-encode: %v", err)
			}
			if !bytes.Equal(b1, b2) {
				t.Errorf("non-canonical encoding:\n b1 %x\n b2 %x", b1, b2)
			}
			if m2.Tag() != msg.Tag() {
				t.Errorf("tag changed: %d -> %d", msg.Tag(), m2.Tag())
			}
		})
	}
}

// TestEncodeNilAndEmpty covers the degenerate encodings: nil message (the
// "no reply" frame) and zero-valued messages.
func TestEncodeNilAndEmpty(t *testing.T) {
	b, err := EncodeMessage(nil, nil)
	if err != nil || len(b) != 1 || Tag(b[0]) != TagNone {
		t.Fatalf("nil message: %x, %v", b, err)
	}
	m, err := DecodeMessage(b)
	if err != nil || m != nil {
		t.Fatalf("decode nil message: %v, %v", m, err)
	}
	// Zero values of every type must round-trip too (heartbeats with nil
	// vectors, empty batches, acks with nil stamps...).
	for _, zero := range []Message{
		ReplBatch{}, ReplHeartbeat{}, EdgeCommit{}, EdgeCommitAck{},
		EdgeCommitNack{}, Subscribe{}, SubscribeAck{}, Unsubscribe{},
		ObjectState{}, FetchObject{}, PushTxs{}, MigratedTx{}, MigratedTxAck{},
		TreeAssign{}, TreePush{},
		GroupJoinReq{}, GroupJoinAck{}, GroupLeaveReq{}, GroupMemberEvent{},
		GroupPromote{},
		EPaxosPreAccept{}, EPaxosPreAcceptOK{}, EPaxosAccept{},
		EPaxosAcceptOK{}, EPaxosCommit{}, EPaxosCommitAck{},
		BucketVec{}, BackfillReq{}, BackfillResp{},
	} {
		b, err := EncodeMessage(nil, zero)
		if err != nil {
			t.Fatalf("encode zero %T: %v", zero, err)
		}
		if _, err := DecodeMessage(b); err != nil {
			t.Fatalf("decode zero %T: %v", zero, err)
		}
	}
}

// TestMigratedTxClosureNotEncodable pins the remaining documented hole in the
// protocol: a migrated transaction carrying a bare closure (no program name)
// cannot cross a process boundary, while the named form can.
func TestMigratedTxClosureNotEncodable(t *testing.T) {
	bare := MigratedTx{Origin: "edge-1", Fn: func(TxReader, TxUpdater) error { return nil }}
	if _, err := EncodeMessage(nil, bare); !errors.Is(err, ErrNotEncodable) {
		t.Fatalf("err = %v, want ErrNotEncodable", err)
	}
	// The same message with a program name encodes: the closure is dropped and
	// the far side resolves the name through the registry.
	bare.Name = "recount"
	b, err := EncodeMessage(nil, bare)
	if err != nil {
		t.Fatalf("named form: %v", err)
	}
	m, err := DecodeMessage(b)
	if err != nil {
		t.Fatalf("decode named form: %v", err)
	}
	if got := m.(MigratedTx); got.Name != "recount" || got.Fn != nil {
		t.Fatalf("decoded: %+v", got)
	}
}

// TestProgramRegistry covers the named-program resolution path MigratedTx's
// wire form relies on.
func TestProgramRegistry(t *testing.T) {
	if _, ok := LookupProgram("codec-test-nope"); ok {
		t.Fatal("unregistered program resolved")
	}
	called := false
	RegisterProgram("codec-test-prog", func(args []byte, read TxReader, update TxUpdater) error {
		called = len(args) == 1 && args[0] == 0x7f
		return nil
	})
	fn, ok := LookupProgram("codec-test-prog")
	if !ok {
		t.Fatal("registered program not found")
	}
	if err := fn([]byte{0x7f}, nil, nil); err != nil || !called {
		t.Fatalf("program not executed with its args: err=%v called=%v", err, called)
	}
}

// TestEPaxosPayloadNotEncodable pins the command payload contract: only nil
// and *txn.Transaction payloads have a wire form.
func TestEPaxosPayloadNotEncodable(t *testing.T) {
	msg := EPaxosPreAccept{
		Inst: EPaxosInstanceID{Replica: "peer-1", Slot: 1},
		Cmd:  EPaxosCommand{ID: "x", Payload: 42},
	}
	if _, err := EncodeMessage(nil, msg); !errors.Is(err, ErrNotEncodable) {
		t.Fatalf("err = %v, want ErrNotEncodable", err)
	}
}

// TestDecodeTruncatedAndCorrupt feeds every strict prefix of every golden
// frame, plus single-byte corruptions, to the decoder: none may panic, and
// truncations must be rejected.
func TestDecodeTruncatedAndCorrupt(t *testing.T) {
	for name, msg := range goldenMessages() {
		frame, err := EncodeMessage(nil, msg)
		if err != nil {
			t.Fatal(err)
		}
		// A flight's Next list and a push frame's Group bit are optional
		// trailing fields, so the frame cut just before one is the complete
		// message without it — the one strict prefix that must decode, and to
		// exactly that message.
		bare, bareLen := withoutTrailing(msg), -1
		if bare != nil {
			b, err := EncodeMessage(nil, bare)
			if err != nil {
				t.Fatal(err)
			}
			bareLen = len(b)
		}
		for cut := 0; cut < len(frame); cut++ {
			m, err := DecodeMessage(frame[:cut])
			if cut == bareLen {
				if err != nil {
					t.Errorf("%s: the frame without its trailing field failed to decode: %v", name, err)
				} else {
					assertMessagesEqual(t, bare, m)
				}
				continue
			}
			if err == nil {
				t.Errorf("%s: truncation at %d/%d decoded without error", name, cut, len(frame))
			}
		}
		// Bit flips may decode to a different valid message (flipping a
		// payload byte inside a string, say) — the requirement is no panic
		// and no error-free parse that still claims the original length is
		// wrong. DecodeMessage's Complete check plus bin.Reader's bounds
		// checks are what we are exercising.
		corrupt := make([]byte, len(frame))
		for i := range frame {
			copy(corrupt, frame)
			corrupt[i] ^= 0xff
			_, _ = DecodeMessage(corrupt) // must not panic
		}
	}
	if _, err := DecodeMessage(nil); err == nil {
		t.Error("empty input decoded without error")
	}
	if _, err := DecodeMessage([]byte{0xee}); !errors.Is(err, ErrUnknownTag) {
		t.Errorf("unknown tag: err = %v, want ErrUnknownTag", err)
	}
	// Tags 1, 17, 23–25 and 35–37 are retired: a frame carrying one — bare,
	// or with the body an old peer would have sent — is rejected, never
	// decoded into a zero-valued message or silently ignored.
	retired := [][]byte{
		{byte(TagReplTx)}, retiredReplTxFrame, {byte(TagTreeAck)}, retiredTreeAckFrame,
		{byte(TagBucketDrop)}, retiredBucketDropFrame, {byte(TagDropQuery)}, retiredDropQueryFrame,
		{byte(TagDropVote)}, retiredDropVoteFrame,
		{byte(TagGroupSyncReq)}, {byte(TagGroupSyncAck)}, {byte(TagGroupVisEntry)},
	}
	for _, frame := range append(retired, retiredGroupFrames(t)...) {
		if m, err := DecodeMessage(frame); !errors.Is(err, ErrUnknownTag) || m != nil {
			t.Errorf("retired tag frame %x: got %v, %v, want nil, ErrUnknownTag", frame, m, err)
		}
	}
}

// withoutTrailing returns msg with its optional trailing field (a flight's
// Next list, a push frame's Group bit) dropped, or nil when msg has none.
func withoutTrailing(msg Message) Message {
	switch v := msg.(type) {
	case PushTxs:
		if v.Group {
			v.Group = false
			return v
		}
	case EdgeCommit:
		if len(v.Next) > 0 {
			v.Next = nil
			return v
		}
	case EdgeCommitAck:
		if len(v.Next) > 0 {
			v.Next = nil
			return v
		}
	}
	return nil
}

// truncatedNextFrames are flight frames whose Next list is cut short or
// empty: a list cut inside its first or second element, a count with no
// elements behind it, and an explicit zero count (an encoder omits an empty
// list). Each must be rejected as malformed.
func truncatedNextFrames(t testing.TB) map[string][]byte {
	t.Helper()
	enc := func(m Message) []byte {
		b, err := EncodeMessage(nil, m)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	golden := goldenMessages()
	commit, ack := enc(golden["edge_commit_batch"]), enc(golden["edge_commit_ack_batch"])
	bareCommit, bareAck := enc(golden["edge_commit"]), enc(golden["edge_commit_ack"])
	firstTx, err := AppendTx(nil, sampleTxAt(43))
	if err != nil {
		t.Fatal(err)
	}
	withCount := func(frame []byte, n byte) []byte { return append(append([]byte(nil), frame...), n) }
	return map[string][]byte{
		"commit cut in first of Next":  commit[:len(bareCommit)+1+len(firstTx)/2],
		"commit cut in second of Next": commit[:len(bareCommit)+1+len(firstTx)+3],
		"commit count without Next":    withCount(bareCommit, 2),
		"commit empty Next":            withCount(bareCommit, 0),
		"ack cut in first of Next":     ack[:len(bareAck)+3],
		"ack cut in last of Next":      ack[:len(ack)-1],
		"ack count without Next":       withCount(bareAck, 1),
		"ack empty Next":               withCount(bareAck, 0),
	}
}

// TestDecodeTruncatedNext: a flight's Next list is read whenever bytes remain
// after the head, so a list that is cut short or present but empty is
// malformed — never a shorter flight.
func TestDecodeTruncatedNext(t *testing.T) {
	for name, frame := range truncatedNextFrames(t) {
		if m, err := DecodeMessage(frame); !errors.Is(err, ErrMalformed) {
			t.Errorf("%s: got %#v, %v, want ErrMalformed", name, m, err)
		}
	}
}

// malformedGroupFrames are group push frames whose trailing Group bit is
// not a set bit: an explicit false (an encoder omits it) and a byte that is
// no boolean. Each must be rejected as malformed.
func malformedGroupFrames(t testing.TB) map[string][]byte {
	t.Helper()
	group, err := EncodeMessage(nil, goldenMessages()["push_txs_group"])
	if err != nil {
		t.Fatal(err)
	}
	withLast := func(b byte) []byte {
		f := append([]byte(nil), group...)
		f[len(f)-1] = b
		return f
	}
	return map[string][]byte{
		"explicit false Group": withLast(0x00),
		"non-boolean Group":    withLast(0x02),
	}
}

// TestDecodeMalformedGroup: a push frame's Group bit is present only when
// set, so a present bit that is not a plain true is malformed — never a
// plain frame.
func TestDecodeMalformedGroup(t *testing.T) {
	for name, frame := range malformedGroupFrames(t) {
		if m, err := DecodeMessage(frame); !errors.Is(err, ErrMalformed) {
			t.Errorf("%s: got %#v, %v, want ErrMalformed", name, m, err)
		}
	}
}

// TestEncodeAppendsToBuffer verifies the pooled-buffer contract: encode
// appends to the caller's slice without clobbering existing bytes.
func TestEncodeAppendsToBuffer(t *testing.T) {
	prefix := []byte{0xaa, 0xbb}
	b, err := EncodeMessage(prefix, ReplHeartbeat{From: 3, State: vclock.Vector{1}})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b[:2], prefix) {
		t.Fatalf("prefix clobbered: %x", b[:2])
	}
	if m, err := DecodeMessage(b[2:]); err != nil || m.(ReplHeartbeat).From != 3 {
		t.Fatalf("decode after prefix: %v, %v", m, err)
	}
}

// TestDecodedMessageOwnsMemory verifies decoded messages never alias the
// input buffer — transports recycle frame buffers immediately after decode.
func TestDecodedMessageOwnsMemory(t *testing.T) {
	frame, err := EncodeMessage(nil, PushTxs{From: "dc0", Txs: []*txn.Transaction{sampleTx()}, Stable: vclock.Vector{9}})
	if err != nil {
		t.Fatal(err)
	}
	m, err := DecodeMessage(frame)
	if err != nil {
		t.Fatal(err)
	}
	for i := range frame {
		frame[i] = 0xff // scribble over the buffer
	}
	p := m.(PushTxs)
	if p.From != "dc0" || p.Txs[0].Actor != "alice" || p.Stable[0] != 9 {
		t.Fatalf("decoded message aliased the frame buffer: %+v", p)
	}
}
