package wal

import (
	"path/filepath"
	"sync"
	"testing"
	"time"

	"colony/internal/obs"
	"colony/internal/txn"
)

// TestGroupCommitSharesFsyncs stalls the writer on its lock while durable
// appends queue behind it: once released, the queued appends must share
// fsyncs instead of paying one each.
func TestGroupCommitSharesFsyncs(t *testing.T) {
	dir := t.TempDir()
	reg := obs.New()
	l, err := OpenWithOptions(dir, "gc.wal", Options{Obs: reg})
	if err != nil {
		t.Fatal(err)
	}
	const writers = 8
	l.mu.Lock()
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			if err := l.AppendWait(sampleTx(uint64(w + 1))); err != nil {
				t.Error(err)
			}
		}(w)
	}
	// The writer takes at most one request before it blocks on l.mu; the
	// rest wait in the queue.
	for len(l.reqCh) < writers-1 {
		time.Sleep(time.Millisecond)
	}
	l.mu.Unlock()
	wg.Wait()
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if appends := reg.Counter("wal.appends").Value(); appends != writers {
		t.Fatalf("appends = %d, want %d", appends, writers)
	}
	if fsyncs := reg.Counter("wal.fsyncs").Value(); fsyncs == 0 || fsyncs > 3 {
		t.Fatalf("fsyncs = %d for %d queued appends: group commit not batching", fsyncs, writers)
	}
	n := 0
	if err := Replay(dir, "gc.wal", func(*txn.Transaction) error { n++; return nil }); err != nil {
		t.Fatal(err)
	}
	if n != writers {
		t.Fatalf("replayed %d, want %d", n, writers)
	}
}

// TestGroupCommitAppendWaitDurableWithoutClose asserts the durability
// contract: once AppendWait returns, the record survives a crash — modelled
// by replaying the file with the log still open (nothing depends on Close's
// flush).
func TestGroupCommitAppendWaitDurableWithoutClose(t *testing.T) {
	dir := t.TempDir()
	l, err := OpenWithOptions(dir, "durable.wal", Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	for i := uint64(1); i <= 3; i++ {
		if err := l.AppendWait(sampleTx(i)); err != nil {
			t.Fatal(err)
		}
	}
	n := 0
	if err := Replay(dir, "durable.wal", func(*txn.Transaction) error { n++; return nil }); err != nil {
		t.Fatal(err)
	}
	if n != 3 {
		t.Fatalf("replayed %d before Close, want 3", n)
	}
}

// TestGroupCommitCrashMidBatchKeepsPrefix simulates a crash between a durable
// batch and a torn in-progress append: replay must recover exactly the
// fsynced prefix, in order.
func TestGroupCommitCrashMidBatchKeepsPrefix(t *testing.T) {
	dir := t.TempDir()
	l, err := OpenWithOptions(dir, "crash.wal", Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(1); i <= 4; i++ {
		if err := l.AppendWait(sampleTx(i)); err != nil {
			t.Fatal(err)
		}
	}
	// Crash mid-append of record 5: half of it hits the file with no fsync
	// and the process dies — no Close, no writer shutdown.
	appendTorn(t, filepath.Join(dir, "crash.wal"), sampleTx(5))
	var seqs []uint64
	if err := Replay(dir, "crash.wal", func(tx *txn.Transaction) error {
		seqs = append(seqs, tx.Dot.Seq)
		return nil
	}); err != nil {
		t.Fatalf("torn tail must be tolerated: %v", err)
	}
	if len(seqs) != 4 {
		t.Fatalf("replayed %d, want the 4-record durable prefix", len(seqs))
	}
	for i, s := range seqs {
		if s != uint64(i+1) {
			t.Fatalf("prefix out of order: %v", seqs)
		}
	}
	_ = l.Close()
}

// TestGroupCommitCloseDrainsAcceptedAppends: fire-and-forget appends accepted
// before Close must all reach the file.
func TestGroupCommitCloseDrainsAcceptedAppends(t *testing.T) {
	dir := t.TempDir()
	l, err := OpenWithOptions(dir, "drain.wal", Options{})
	if err != nil {
		t.Fatal(err)
	}
	const total = 100
	for i := uint64(1); i <= total; i++ {
		if err := l.Append(sampleTx(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	n := 0
	if err := Replay(dir, "drain.wal", func(*txn.Transaction) error { n++; return nil }); err != nil {
		t.Fatal(err)
	}
	if n != total {
		t.Fatalf("replayed %d, want %d", n, total)
	}
	if err := l.Append(sampleTx(total + 1)); err == nil {
		t.Fatal("append after close succeeded")
	}
	if err := l.AppendWait(sampleTx(total + 2)); err == nil {
		t.Fatal("append-wait after close succeeded")
	}
}

// TestGroupCommitSurfacesWriteErrors: an I/O failure inside the writer must
// reach the waiter, the sticky Err accessor, and the OnError observer.
func TestGroupCommitSurfacesWriteErrors(t *testing.T) {
	var (
		mu       sync.Mutex
		observed []error
	)
	l, err := OpenWithOptions(t.TempDir(), "err.wal", Options{
		OnError: func(e error) {
			mu.Lock()
			observed = append(observed, e)
			mu.Unlock()
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Sabotage the fd behind the writer's back: the next batch flush fails.
	if err := l.f.Close(); err != nil {
		t.Fatal(err)
	}
	if err := l.AppendWait(sampleTx(1)); err == nil {
		t.Fatal("append-wait on a broken file reported success")
	}
	if l.Err() == nil {
		t.Fatal("sticky error not recorded")
	}
	mu.Lock()
	n := len(observed)
	mu.Unlock()
	if n == 0 {
		t.Fatal("OnError observer never called")
	}
	_ = l.Close() // errors expected; just stop the writer
}
