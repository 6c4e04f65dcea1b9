package main

import (
	"strings"
	"testing"

	"colony/internal/txn"
	"colony/internal/vclock"
	"colony/internal/wire"
)

// The oracle's self-test: one reordered and one dropped delivery must both be
// flagged (the first as an anomaly, the second as a violation), and a
// redelivery (which repair frames legitimately cause) must not.
func TestOracleFlagsDropAndReorder(t *testing.T) {
	trk := newTracker(2)
	w := trk.addNamedWriter("w", nil, 0, -1)
	trk.seal()
	both := newRecvSet(2, []int{0, 1})
	var ops []*op
	for seq := uint64(1); seq <= 3; seq++ {
		o := trk.newOp(w, phPaced, 0, both, 0, false)
		trk.register(o, seq)
		trk.onAck(wire.EdgeCommitAck{Dot: vclock.Dot{Node: "w", Seq: seq}, DCIndex: 0, Ts: seq}, 1)
		ops = append(ops, o)
	}
	tx := func(seq uint64) *txn.Transaction { return &txn.Transaction{Dot: vclock.Dot{Node: "w", Seq: seq}} }

	// Receiver 0 sees everything in order, and the first one twice.
	for _, seq := range []uint64{1, 2, 1, 3} {
		trk.delivered(0, tx(seq), 2)
	}
	if trk.nviol != 0 || trk.nanom != 0 {
		t.Fatalf("in-order deliveries with a duplicate were flagged: %v %v", trk.violations, trk.anomalies)
	}
	// Receiver 1 sees 2 before 1 and never sees 3.
	trk.delivered(1, tx(2), 3)
	trk.delivered(1, tx(1), 4)
	checkDelivery(trk)

	var reorder, drop bool
	for _, v := range trk.anomalies {
		reorder = reorder || strings.HasPrefix(v, "order:") && strings.Contains(v, "w:1")
	}
	for _, v := range trk.violations {
		drop = drop || strings.HasPrefix(v, "delivery:") && strings.Contains(v, "w:3")
	}
	if !reorder || !drop || trk.nanom != 1 || trk.nviol != 1 {
		t.Fatalf("want exactly one reorder (w:1) and one drop (w:3), got %v and %v", trk.anomalies, trk.violations)
	}
	if ops[0].done.Load() == 0 || ops[1].done.Load() == 0 || ops[2].done.Load() != 0 {
		t.Fatalf("completion: ops 1 and 2 reached everyone, op 3 did not")
	}
}
