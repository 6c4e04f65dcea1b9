// Package wal provides the durable transaction log behind a data centre
// (paper §6.3: "Cloud nodes (DCs and PoPs) have secondary storage and
// persist their data to it"). On restart, the DC replays the log in order —
// which is a causal order, because transactions are appended as they are
// applied — and reconstructs its state. Far-edge nodes deliberately have no
// WAL (the paper assumes no disk at the far edge; they repopulate their
// caches from the group or the DC on reconnection).
//
// # File format
//
// A log file is an 8-byte magic followed by records, each
//
//	uvarint len | crc32c(body), 4 bytes little-endian | body (len bytes)
//
// where body is the transaction in the wire codec (wire.AppendTx), the same
// bytes it has on every socket. Replay reads a missing file, an empty one or
// a strict prefix of the magic as an empty log; a short or checksum-failed
// final record as a torn tail (a crash mid-append), which ends the replay;
// and a bad record with bytes after it as corruption, which is an error. A
// file that does not start with the magic — a JSON-lines log written by an
// older build — is refused with an error, never replayed as empty.
//
// # Writing
//
// One writer goroutine owns the file. Append, AppendThen, AppendWait and
// Sync queue requests for it; it takes whatever is queued (at most batchMax
// records), writes it with one write and one fsync, and then reports the
// outcome to each request of the batch in append order. That report is the
// request's completion: a callback for AppendThen, which runs on the writer
// goroutine, and a wake-up for AppendWait and Sync, which are AppendThen
// with a caller that blocks. So a caller that must not block — a DC
// sequencing edge commits on its dispatcher — queues its record and moves
// on, N durable appends in flight cost one fsync, and a crash loses at most
// a suffix of the log.
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"colony/internal/obs"
	"colony/internal/txn"
	"colony/internal/wire"
)

const (
	// magic opens every log file; its last byte is the format version.
	magic = "colnyWL\x01"
	// batchMax caps the records one write and fsync cover.
	batchMax = 64
)

var (
	castagnoli = crc32.MakeTable(crc32.Castagnoli)
	errClosed  = errors.New("wal: closed")
)

// Options configures a log.
type Options struct {
	// Deprecated: ignored. Every log group-commits.
	GroupCommit bool
	// OnError observes asynchronous write/fsync errors — the ones a
	// fire-and-forget Append cannot return to its caller. It is called from
	// the writer goroutine.
	OnError func(error)
	// Obs, when non-nil, records wal.fsyncs, wal.appends, wal.batch_txs and
	// wal.flush_ns.
	Obs *obs.Registry
}

// request is one operation queued for the writer: a record body to append
// (nil for a Sync barrier) and, unless it is fire-and-forget, the completion
// that receives the outcome of the fsync covering it.
type request struct {
	body []byte
	done func(error)
}

// Log is an append-only transaction log backed by one file.
type Log struct {
	// mu guards f and err. The writer holds it for a whole batch, so holding
	// it stalls the writer while requests queue behind it.
	mu  sync.Mutex
	f   *os.File
	err error // sticky: the first write/fsync failure; no batch is written after it

	onErr func(error)
	reqCh chan request
	// closeMu orders submissions against Close: a request is queued under
	// its read lock only while closed is unset, so every request accepted
	// before Close is in reqCh when the writer's shutdown drain runs.
	closeMu sync.RWMutex
	closed  bool
	stopCh  chan struct{}
	doneCh  chan struct{}

	// batch and buf are the writer's scratch, reused across batches.
	batch []request
	buf   []byte

	// Instrumentation handles (nil-safe no-ops without a registry).
	obsFsyncs  *obs.Counter
	obsAppends *obs.Counter
	obsBatch   *obs.Histogram
	obsFlushNs *obs.Histogram
}

// OpenWithOptions opens the log at dir/name for appending, creating it if
// needed, and starts its writer. A file holding none or only part of the
// magic is (re)initialised; a torn final record is cut off, so new records
// follow the last intact one.
func OpenWithOptions(dir, name string, opts Options) (*Log, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("wal: mkdir: %w", err)
	}
	path := filepath.Join(dir, name)
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("wal: open: %w", err)
	}
	if err := trimToIntact(f, path); err != nil {
		f.Close()
		return nil, err
	}
	l := &Log{
		f:     f,
		onErr: opts.OnError,
		// Room for four batches, so committers rarely block on a fsync.
		reqCh:  make(chan request, 4*batchMax),
		stopCh: make(chan struct{}),
		doneCh: make(chan struct{}),
	}
	l.obsFsyncs = opts.Obs.Counter("wal.fsyncs")
	l.obsAppends = opts.Obs.Counter("wal.appends")
	l.obsBatch = opts.Obs.Histogram("wal.batch_txs")
	l.obsFlushNs = opts.Obs.Histogram("wal.flush_ns")
	go l.writerLoop()
	return l, nil
}

// trimToIntact cuts f, the log at path, back to its intact prefix: the magic
// (written whole if the file holds none or only part of it) followed by
// every record before a torn tail. It does not fsync: the first batch's fsync
// makes the cut and the magic durable with it, and until then the file
// replays the same with or without them.
func trimToIntact(f *os.File, path string) error {
	data, err := io.ReadAll(f)
	if err != nil {
		return fmt.Errorf("wal: read %s: %w", path, err)
	}
	n, err := replay(path, data, nil)
	if err != nil || (n > 0 && n == len(data)) {
		return err
	}
	err = f.Truncate(int64(n))
	if err == nil && n == 0 {
		_, err = f.WriteString(magic)
	}
	if err != nil {
		return fmt.Errorf("wal: trim %s: %w", path, err)
	}
	return nil
}

// Append queues one transaction without waiting for durability. A write or
// fsync failure surfaces through OnError and Err.
func (l *Log) Append(t *txn.Transaction) error { return l.submit(t, nil) }

// AppendThen queues one transaction and calls fn exactly once with the
// outcome of the fsync that covers it. fn runs on the writer goroutine after
// the batch holding t is written and fsynced, in append order; it must not
// block on anything that waits for this log (an append, Sync, Close). If t
// cannot be queued — the log is closed, or t has no wire encoding — fn runs
// with that error before AppendThen returns.
func (l *Log) AppendThen(t *txn.Transaction, fn func(error)) {
	if err := l.submit(t, fn); err != nil {
		fn(err)
	}
}

// AppendWait appends one transaction and returns once the batch holding it
// is written and fsynced.
func (l *Log) AppendWait(t *txn.Transaction) error { return l.wait(t) }

// Sync returns once everything appended before it is durable.
func (l *Log) Sync() error { return l.wait(nil) }

// wait queues t's record — or, for a nil t, a barrier that writes nothing —
// and blocks on its completion.
func (l *Log) wait(t *txn.Transaction) error {
	done := make(chan error, 1)
	if err := l.submit(t, func(err error) { done <- err }); err != nil {
		return err
	}
	return <-done
}

// submit queues t's record (nil t: a barrier) with its completion for the
// writer. An accepted request's completion always runs: the writer's
// shutdown drain covers everything accepted before Close.
func (l *Log) submit(t *txn.Transaction, done func(error)) error {
	r := request{done: done}
	if t != nil {
		body, err := wire.AppendTx(nil, t)
		if err != nil {
			return fmt.Errorf("wal: %w", err)
		}
		r.body = body
	}
	l.closeMu.RLock()
	defer l.closeMu.RUnlock()
	if l.closed {
		return errClosed
	}
	if t != nil {
		l.obsAppends.Inc()
	}
	// The send may wait for room while holding the read lock: the writer
	// never takes closeMu, so it keeps draining until Close has the lock.
	l.reqCh <- r
	return nil
}

// Err returns the first write/fsync failure, if any — the errors a
// fire-and-forget Append cannot return. Once set it never clears, and no
// later batch is written: the file stays a readable prefix.
func (l *Log) Err() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.err
}

// writerLoop commits batches until Close, then drains the queue so every
// request accepted before Close reaches the file.
func (l *Log) writerLoop() {
	defer close(l.doneCh)
	for {
		select {
		case r := <-l.reqCh:
			l.commitBatch(r)
		case <-l.stopCh:
			select {
			case r := <-l.reqCh:
				l.commitBatch(r)
			default:
				return
			}
		}
	}
}

// drainPending appends every immediately queued request to batch, up to
// batchMax.
func (l *Log) drainPending(batch []request) []request {
	for len(batch) < batchMax {
		select {
		case r := <-l.reqCh:
			batch = append(batch, r)
		default:
			return batch
		}
	}
	return batch
}

// commitBatch writes first and whatever is queued behind it with one write
// and one fsync, then runs every completion in the batch, in append order. A
// batch of barriers only writes nothing: every earlier batch was fsynced
// before it.
func (l *Log) commitBatch(first request) {
	start := time.Now()
	l.mu.Lock()
	l.batch = l.drainPending(append(l.batch[:0], first))
	l.buf = l.buf[:0]
	records := 0
	for _, r := range l.batch {
		if r.body != nil {
			l.buf = appendRecord(l.buf, r.body)
			records++
		}
	}
	err := l.err
	if err == nil && records > 0 {
		if _, err = l.f.Write(l.buf); err != nil {
			err = fmt.Errorf("wal: write: %w", err)
		} else if err = l.f.Sync(); err != nil {
			err = fmt.Errorf("wal: fsync: %w", err)
		}
		l.err = err
	}
	l.mu.Unlock()
	if err != nil && l.onErr != nil {
		l.onErr(err)
	}
	if err == nil && records > 0 {
		l.obsFsyncs.Inc()
		l.obsBatch.Observe(int64(records))
		l.obsFlushNs.Observe(int64(time.Since(start)))
	}
	for _, r := range l.batch {
		if r.done != nil {
			r.done(err)
		}
	}
}

// Close stops the writer, which first commits everything already queued and
// runs its completions, then closes the file. A second Close is a no-op.
func (l *Log) Close() error {
	l.closeMu.Lock()
	stop := !l.closed
	l.closed = true
	l.closeMu.Unlock()
	if stop {
		close(l.stopCh)
	}
	<-l.doneCh
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.f == nil {
		return nil
	}
	err := l.f.Close()
	l.f = nil
	return err
}

// appendRecord frames one record body: uvarint length, CRC-32C, body.
func appendRecord(buf, body []byte) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(body)))
	buf = binary.LittleEndian.AppendUint32(buf, crc32.Checksum(body, castagnoli))
	return append(buf, body...)
}

// Replay streams the transactions recorded at dir/name, in append order, to
// fn. A missing file is an empty log; see the package comment for torn tails,
// corruption and logs from an older build.
func Replay(dir, name string, fn func(*txn.Transaction) error) error {
	path := filepath.Join(dir, name)
	data, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("wal: read for replay: %w", err)
	}
	_, err = replay(path, data, fn)
	return err
}

// replay walks the records in data, the contents of the log at path, and,
// unless fn is nil, decodes each one and passes it to fn. It returns the
// length of data's intact prefix: 0 for an empty log (no magic, or part of
// it), otherwise everything before a torn final record.
func replay(path string, data []byte, fn func(*txn.Transaction) error) (int, error) {
	if !strings.HasPrefix(magic, string(data[:min(len(data), len(magic))])) {
		return 0, fmt.Errorf("wal: %s does not start with the WAL magic "+
			"(a JSON-lines log written by an older build?); refusing to replay it", path)
	}
	if len(data) < len(magic) {
		return 0, nil
	}
	off := len(magic)
	for off < len(data) {
		n, k := binary.Uvarint(data[off:])
		if k < 0 {
			return off, fmt.Errorf("wal: %s: corrupt record length at offset %d", path, off)
		}
		start := off + k + 4
		if k == 0 || start > len(data) || n > uint64(len(data)-start) {
			return off, nil // short final record: torn tail
		}
		end := start + int(n)
		body := data[start:end]
		if crc32.Checksum(body, castagnoli) != binary.LittleEndian.Uint32(data[off+k:]) {
			if end == len(data) {
				return off, nil // checksum-failed final record: torn tail
			}
			return off, fmt.Errorf("wal: %s: corrupt record at offset %d (checksum mismatch)", path, off)
		}
		if fn != nil {
			t, err := wire.DecodeTx(body)
			if err != nil {
				return off, fmt.Errorf("wal: %s: record at offset %d: %w", path, off, err)
			}
			if err := fn(t); err != nil {
				return off, err
			}
		}
		off = end
	}
	return off, nil
}
