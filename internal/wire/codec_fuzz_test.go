package wire

import (
	"bytes"
	"testing"
)

// FuzzDecodeMessage is the codec's robustness harness: arbitrary bytes must
// never panic the decoder, and anything that does decode must re-encode
// canonically (decode∘encode is the identity on the wire). Run it with
//
//	go test -fuzz=FuzzDecodeMessage ./internal/wire
//
// The seed corpus is every golden frame plus the degenerate frames, so even
// the non-fuzzing `go test` run exercises the full decode surface.
func FuzzDecodeMessage(f *testing.F) {
	for _, msg := range goldenMessages() {
		frame, err := EncodeMessage(nil, msg)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(frame)
	}
	f.Add([]byte{byte(TagNone)})
	f.Add([]byte{})
	f.Add([]byte{byte(TagReplBatch), 0x00, 0xff, 0xff, 0xff, 0xff, 0x0f})
	f.Add(retiredReplTxFrame)
	f.Add(retiredTreeAckFrame)
	// Receiver-cursor layouts: a resume with a hostile cursor, an ack cut off
	// after its objects, and sequenced frames whose range is truncated or
	// inverted.
	f.Add([]byte{byte(TagSubscribe), 0x01, 'e', 0x00, 0x01, 0x00, 0x01, 0x07, 0xff, 0xff, 0xff, 0xff, 0x0f})
	f.Add([]byte{byte(TagSubscribeAck), 0x01, 0x04, 0x00, 0x07})
	f.Add([]byte{byte(TagPushTxs), 0x03, 'd', 'c', '1', 0x00, 0x00, 0x07, 0x52})
	f.Add([]byte{byte(TagTreePush), 0x03, 'd', 'c', '1', 0x07, 0x03, 0x00, 0x00, 0x07, 0x58, 0x52})
	// Partial-replication frames: hostile counts and truncated bodies.
	f.Add([]byte{byte(TagBucketVec), 0x02, 0x01, 0xff, 0xff, 0xff, 0x0f})
	f.Add([]byte{byte(TagBackfillReq), 0x04, 'r', 'o', 'o', 'm'})
	f.Add([]byte{byte(TagBackfillResp), 0x00, 0x00, 0xff, 0xff, 0x0f})
	// The retired drop-protocol tags (35–37), truncated and as an old peer
	// sent them: the decoder must reject them.
	f.Add([]byte{byte(TagBucketDrop), 0x02, 0x03})
	f.Add([]byte{byte(TagDropQuery), 0x02, 0x01, 'b', 0x00})
	f.Add([]byte{byte(TagDropVote), 0x01, 'b', 0x01})
	f.Add(retiredBucketDropFrame)
	f.Add(retiredDropQueryFrame)
	f.Add(retiredDropVoteFrame)
	f.Add([]byte{byte(TagMigratedTx), 0x01, 'e', 0x00, 0x00, 0xff, 0xff, 0x0f})
	// Uplink flights whose Next list is cut short or present but empty.
	for _, frame := range truncatedNextFrames(f) {
		f.Add(frame)
	}
	// The retired group visibility-log tags (23–25) as an old parent sent
	// them, and group push frames with a Group bit that is not a set bit.
	for _, frame := range retiredGroupFrames(f) {
		f.Add(frame)
	}
	for _, frame := range malformedGroupFrames(f) {
		f.Add(frame)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := DecodeMessage(data)
		if err != nil {
			return // malformed input rejected: fine
		}
		// Valid parse: the decoded value must re-encode, and its encoding
		// must decode to the same bytes again (canonical fixed point).
		b1, err := EncodeMessage(nil, m)
		if err != nil {
			t.Fatalf("decoded message failed to encode: %v (input %x)", err, data)
		}
		m2, err := DecodeMessage(b1)
		if err != nil {
			t.Fatalf("re-decode failed: %v (input %x, encoded %x)", err, data, b1)
		}
		b2, err := EncodeMessage(nil, m2)
		if err != nil {
			t.Fatalf("second encode failed: %v", err)
		}
		if !bytes.Equal(b1, b2) {
			t.Fatalf("encoding not canonical:\n b1 %x\n b2 %x\n input %x", b1, b2, data)
		}
	})
}
