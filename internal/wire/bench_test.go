package wire

import (
	"testing"

	"colony/internal/crdt"
	"colony/internal/txn"
	"colony/internal/vclock"
)

// Transaction codec microbenchmarks. AppendTx/DecodeTx give a transaction
// its one byte form — the body of every frame that carries it and of every
// WAL record — so these are paid once per transaction per hop. Run with
//
//	make bench-wire

// benchTxs are the measured transactions: a one-counter-update write, and a
// chat post as the chat client commits it (the post appended to the
// channel's message sequence, an event to the poster's).
func benchTxs() []struct {
	name string
	tx   *txn.Transaction
} {
	counter := &txn.Transaction{
		Dot:      vclock.Dot{Node: "w7", Seq: 1041},
		Origin:   "w7",
		Actor:    "w7",
		Snapshot: vclock.Vector{1203, 988, 1117},
		Commit:   vclock.CommitStamps{0: 1204},
	}
	counter.AppendUpdate(txn.ObjectID{Bucket: "k", Key: "o3"}, crdt.KindCounter,
		crdt.Op{Counter: &crdt.CounterOp{Delta: 1}})

	post := &txn.Transaction{
		Dot:      vclock.Dot{Node: "edge-12", Seq: 87},
		Origin:   "edge-12",
		Actor:    "alice",
		Snapshot: vclock.Vector{1203, 988, 1117},
		Commit:   vclock.CommitStamps{1: 989},
	}
	last := crdt.Tag{Dot: vclock.Dot{Node: "edge-4", Seq: 86}}
	nested := func(key, value string) crdt.Op {
		return crdt.NewORMap().PrepareUpdate(key, crdt.KindRGA, crdt.NewRGA().PrepareInsertAfter(last, value))
	}
	post.AppendUpdate(txn.ObjectID{Bucket: "channels", Key: "ws1/general"}, crdt.KindORMap,
		nested("messages", "alice|1700000000|see you at the standup"))
	post.AppendUpdate(txn.ObjectID{Bucket: "users", Key: "alice"}, crdt.KindORMap,
		nested("events", "posted:ws1/general"))
	return []struct {
		name string
		tx   *txn.Transaction
	}{{"counter", counter}, {"chat_post", post}}
}

func BenchmarkTxEncode(b *testing.B) {
	for _, c := range benchTxs() {
		b.Run(c.name, func(b *testing.B) {
			buf, err := AppendTx(nil, c.tx)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if buf, err = AppendTx(buf[:0], c.tx); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(len(buf)), "B/tx")
		})
	}
}

// decodedTx keeps BenchmarkTxDecode's result alive.
var decodedTx *txn.Transaction

func BenchmarkTxDecode(b *testing.B) {
	for _, c := range benchTxs() {
		b.Run(c.name, func(b *testing.B) {
			enc, err := AppendTx(nil, c.tx)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if decodedTx, err = DecodeTx(enc); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
