package wal

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"colony/internal/crdt"
	"colony/internal/txn"
	"colony/internal/vclock"
	"colony/internal/wire"
)

func sampleTx(seq uint64) *txn.Transaction {
	t := &txn.Transaction{
		Dot:      vclock.Dot{Node: "dc0", Seq: seq},
		Origin:   "dc0",
		Actor:    "alice",
		Snapshot: vclock.Vector{seq - 1, 0, 0},
		Commit:   vclock.CommitStamps{0: seq},
	}
	t.AppendUpdate(txn.ObjectID{Bucket: "b", Key: "x"}, crdt.KindCounter,
		crdt.Op{Counter: &crdt.CounterOp{Delta: int64(seq)}})
	t.AppendUpdate(txn.ObjectID{Bucket: "b", Key: "s"}, crdt.KindORSet,
		crdt.Op{Set: &crdt.ORSetOp{Elem: "e"}})
	return t
}

// record returns t's framed record, as the writer puts it in the file.
func record(t testing.TB, tx *txn.Transaction) []byte {
	t.Helper()
	body, err := wire.AppendTx(nil, tx)
	if err != nil {
		t.Fatal(err)
	}
	return appendRecord(nil, body)
}

// appendTorn appends the first half of tx's record to the file at path: an
// append cut short by a crash.
func appendTorn(t *testing.T, path string, tx *txn.Transaction) {
	t.Helper()
	rec := record(t, tx)
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(rec[:len(rec)/2]); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestAppendAndReplayRoundTrip(t *testing.T) {
	dir := t.TempDir()
	l, err := OpenWithOptions(dir, "test.wal", Options{})
	if err != nil {
		t.Fatal(err)
	}
	var want []*txn.Transaction
	for i := uint64(1); i <= 5; i++ {
		tx := sampleTx(i)
		want = append(want, tx)
		if err := l.Append(tx); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	var got []*txn.Transaction
	if err := Replay(dir, "test.wal", func(tx *txn.Transaction) error {
		got = append(got, tx)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("replayed %d, want %d", len(got), len(want))
	}
	for i := range want {
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Fatalf("record %d mismatch:\n got %+v\nwant %+v", i, got[i], want[i])
		}
	}
}

func TestReplayMissingFileIsEmpty(t *testing.T) {
	n := 0
	if err := Replay(t.TempDir(), "absent.wal", func(*txn.Transaction) error {
		n++
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if n != 0 {
		t.Fatalf("replayed %d from a missing log", n)
	}
}

func TestReplayToleratesTornTail(t *testing.T) {
	dir := t.TempDir()
	l, err := OpenWithOptions(dir, "torn.wal", Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Append(sampleTx(1)); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	// Simulate a crash mid-append: the first half of a record at the tail.
	appendTorn(t, filepath.Join(dir, "torn.wal"), sampleTx(2))

	n := 0
	if err := Replay(dir, "torn.wal", func(*txn.Transaction) error {
		n++
		return nil
	}); err != nil {
		t.Fatalf("torn tail must be tolerated: %v", err)
	}
	if n != 1 {
		t.Fatalf("replayed %d, want 1", n)
	}
}

func TestAppendAfterCloseFails(t *testing.T) {
	l, err := OpenWithOptions(t.TempDir(), "x.wal", Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if err := l.Append(sampleTx(1)); err == nil {
		t.Fatal("append after close succeeded")
	}
	if err := l.Close(); err != nil {
		t.Fatal("double close must be a no-op")
	}
}

func TestAppendOnExistingLogExtends(t *testing.T) {
	dir := t.TempDir()
	l1, _ := OpenWithOptions(dir, "ext.wal", Options{})
	_ = l1.Append(sampleTx(1))
	_ = l1.Close()
	l2, _ := OpenWithOptions(dir, "ext.wal", Options{})
	_ = l2.Append(sampleTx(2))
	_ = l2.Close()
	n := 0
	if err := Replay(dir, "ext.wal", func(*txn.Transaction) error { n++; return nil }); err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Fatalf("replayed %d, want 2", n)
	}
}
