package wal

import (
	"errors"
	"os"
	"path/filepath"
	"slices"
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

// completions collects AppendThen outcomes by the sequence number of the
// appended record.
type completions struct {
	mu   sync.Mutex
	seqs []uint64
	errs []error
}

func (c *completions) fn(seq uint64) func(error) {
	return func(err error) {
		c.mu.Lock()
		c.seqs = append(c.seqs, seq)
		c.errs = append(c.errs, err)
		c.mu.Unlock()
	}
}

func (c *completions) snapshot() ([]uint64, []error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]uint64(nil), c.seqs...), append([]error(nil), c.errs...)
}

// replayCopy replays a copy of the log at dir/name — what a crash at this
// instant would leave — and returns the sequence numbers it holds.
func replayCopy(t *testing.T, dir, name string) []uint64 {
	t.Helper()
	data, err := os.ReadFile(filepath.Join(dir, name))
	if err != nil {
		t.Error(err)
		return nil
	}
	cp := t.TempDir()
	if err := os.WriteFile(filepath.Join(cp, name), data, 0o644); err != nil {
		t.Error(err)
		return nil
	}
	var seqs []uint64
	if err := Replay(cp, name, func(tx *txn.Transaction) error {
		seqs = append(seqs, tx.Dot.Seq)
		return nil
	}); err != nil {
		t.Error(err)
	}
	return seqs
}

// TestAppendThenRunsOnceInAppendOrder: every completion runs exactly once,
// with no error, in the order the records were appended — across many
// batches, with Sync barriers between them.
func TestAppendThenRunsOnceInAppendOrder(t *testing.T) {
	dir := t.TempDir()
	l, err := OpenWithOptions(dir, "order.wal", Options{})
	if err != nil {
		t.Fatal(err)
	}
	var c completions
	const total = 300
	for i := uint64(1); i <= total; i++ {
		l.AppendThen(sampleTx(i), c.fn(i))
		if i%97 == 0 {
			if err := l.Sync(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	seqs, errs := c.snapshot()
	if len(seqs) != total {
		t.Fatalf("%d completions after Sync, want %d", len(seqs), total)
	}
	for i, s := range seqs {
		if s != uint64(i+1) || errs[i] != nil {
			t.Fatalf("completion %d: record %d, err %v; want record %d, no error", i, s, errs[i], i+1)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if seqs, _ := c.snapshot(); len(seqs) != total {
		t.Fatalf("%d completions after Close, want %d: one ran twice", len(seqs), total)
	}
}

// TestAppendThenSeesItsRecordInTheFile: when a completion runs, its record
// is already in the file — a crash then would replay it.
func TestAppendThenSeesItsRecordInTheFile(t *testing.T) {
	dir := t.TempDir()
	l, err := OpenWithOptions(dir, "seen.wal", Options{})
	if err != nil {
		t.Fatal(err)
	}
	const total = 20
	var wg sync.WaitGroup
	wg.Add(total)
	for i := uint64(1); i <= total; i++ {
		l.AppendThen(sampleTx(i), func(err error) {
			defer wg.Done()
			if err != nil {
				t.Errorf("record %d: %v", i, err)
				return
			}
			if seqs := replayCopy(t, dir, "seen.wal"); !slices.Contains(seqs, i) {
				t.Errorf("record %d completed, but the log holds only %v", i, seqs)
			}
		})
	}
	wg.Wait()
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestAppendThenGetsStickyError: the completions of a failed batch, and of
// every batch after it, receive the log's sticky error.
func TestAppendThenGetsStickyError(t *testing.T) {
	l, err := OpenWithOptions(t.TempDir(), "sticky.wal", Options{})
	if err != nil {
		t.Fatal(err)
	}
	var c completions
	// Stall the writer, queue a batch behind it, and break the file under it.
	l.mu.Lock()
	const failed = 5
	for i := uint64(1); i <= failed; i++ {
		l.AppendThen(sampleTx(i), c.fn(i))
	}
	for len(l.reqCh) < failed-1 {
		time.Sleep(time.Millisecond)
	}
	if err := l.f.Close(); err != nil {
		t.Fatal(err)
	}
	l.mu.Unlock()
	if err := l.Sync(); err == nil {
		t.Fatal("Sync after a failed batch reported success")
	}
	sticky := l.Err()
	if sticky == nil {
		t.Fatal("sticky error not recorded")
	}
	for i := uint64(failed + 1); i <= failed+3; i++ {
		l.AppendThen(sampleTx(i), c.fn(i))
		if err := l.Sync(); !errors.Is(err, sticky) {
			t.Fatalf("Sync after the failure = %v, want the sticky %v", err, sticky)
		}
	}
	seqs, errs := c.snapshot()
	if len(seqs) != failed+3 {
		t.Fatalf("%d completions, want %d", len(seqs), failed+3)
	}
	for i, err := range errs {
		if !errors.Is(err, sticky) {
			t.Fatalf("completion of record %d got %v, want the sticky %v", seqs[i], err, sticky)
		}
	}
	_ = l.Close() // the file is already closed under it
}

// TestAppendThenCompletesDuringClose: requests accepted before Close have
// their completions run before Close returns; one after Close gets the
// closed error before AppendThen returns.
func TestAppendThenCompletesDuringClose(t *testing.T) {
	dir := t.TempDir()
	l, err := OpenWithOptions(dir, "close.wal", Options{})
	if err != nil {
		t.Fatal(err)
	}
	var c completions
	// Stall the writer so the requests are still queued when Close starts.
	l.mu.Lock()
	const total = 10
	for i := uint64(1); i <= total; i++ {
		l.AppendThen(sampleTx(i), c.fn(i))
	}
	closed := make(chan error, 1)
	go func() { closed <- l.Close() }()
	for {
		l.closeMu.RLock()
		shut := l.closed
		l.closeMu.RUnlock()
		if shut {
			break
		}
		time.Sleep(time.Millisecond)
	}
	if seqs, _ := c.snapshot(); len(seqs) != 0 {
		t.Fatalf("%d completions ran with the writer stalled", len(seqs))
	}
	l.mu.Unlock()
	if err := <-closed; err != nil {
		t.Fatal(err)
	}
	seqs, errs := c.snapshot()
	if len(seqs) != total {
		t.Fatalf("%d completions ran by the time Close returned, want %d", len(seqs), total)
	}
	for i, err := range errs {
		if err != nil || seqs[i] != uint64(i+1) {
			t.Fatalf("completion %d: record %d, err %v", i, seqs[i], err)
		}
	}
	if got := replayCopy(t, dir, "close.wal"); len(got) != total {
		t.Fatalf("replayed %d records, want %d", len(got), total)
	}
	ran := false
	l.AppendThen(sampleTx(total+1), func(err error) { ran = err != nil })
	if !ran {
		t.Fatal("AppendThen after Close did not report the closed log before returning")
	}
}
