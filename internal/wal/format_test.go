package wal

import (
	"bytes"
	"encoding/binary"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"colony/internal/txn"
)

// legacyLog is a two-record log as the JSON-lines format of earlier builds
// wrote it.
const legacyLog = `{"node":"dc0","seq":1,"origin":"dc0","actor":"alice","snapshot":[0,0,0],"commit":{"0":1},"updates":[{"bucket":"b","key":"x","kind":1,"useq":0,"op":{"counter":{"delta":1}}},{"bucket":"b","key":"s","kind":4,"useq":1,"op":{"set":{"elem":"e"}}}]}
{"node":"dc0","seq":2,"origin":"dc0","actor":"alice","snapshot":[1,0,0],"commit":{"0":2},"updates":[{"bucket":"b","key":"x","kind":1,"useq":0,"op":{"counter":{"delta":2}}},{"bucket":"b","key":"s","kind":4,"useq":1,"op":{"set":{"elem":"e"}}}]}
`

// threeRecordLog returns the bytes of a log holding sampleTx(1..3), and the
// offset at which each record starts.
func threeRecordLog(t testing.TB) ([]byte, []int) {
	t.Helper()
	data := []byte(magic)
	var starts []int
	for i := uint64(1); i <= 3; i++ {
		starts = append(starts, len(data))
		data = append(data, record(t, sampleTx(i))...)
	}
	return data, starts
}

// replayFile writes data as a log file and replays it, returning the dots'
// sequence numbers it yields.
func replayFile(t *testing.T, data []byte) ([]uint64, error) {
	t.Helper()
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "f.wal"), data, 0o644); err != nil {
		t.Fatal(err)
	}
	var seqs []uint64
	err := Replay(dir, "f.wal", func(tx *txn.Transaction) error {
		seqs = append(seqs, tx.Dot.Seq)
		return nil
	})
	return seqs, err
}

// TestReplayTornTailAtEveryOffset cuts a three-record log at every byte
// inside its last record, and an empty log at every byte of its magic: each
// cut must replay as exactly the records before it, with no error.
func TestReplayTornTailAtEveryOffset(t *testing.T) {
	data, starts := threeRecordLog(t)
	for cut := starts[2]; cut < len(data); cut++ {
		seqs, err := replayFile(t, data[:cut])
		if err != nil {
			t.Fatalf("cut at %d: %v", cut, err)
		}
		if len(seqs) != 2 || seqs[0] != 1 || seqs[1] != 2 {
			t.Fatalf("cut at %d: replayed %v, want [1 2]", cut, seqs)
		}
	}
	for cut := 0; cut <= len(magic); cut++ {
		seqs, err := replayFile(t, []byte(magic)[:cut])
		if err != nil || len(seqs) != 0 {
			t.Fatalf("magic cut at %d: replayed %v, %v; want an empty log", cut, seqs, err)
		}
	}
}

// TestReplayRejectsCorruptRecord flips each byte of every record's checksum
// and body. In a record with bytes after it that is corruption and replay
// fails; in the final record it is a torn tail. (The length prefix is outside
// the checksum: a flip there reads as a record ending somewhere else.)
func TestReplayRejectsCorruptRecord(t *testing.T) {
	data, starts := threeRecordLog(t)
	ends := []int{starts[1], starts[2], len(data)}
	for r, start := range starts {
		_, k := binary.Uvarint(data[start:])
		for i := start + k; i < ends[r]; i++ {
			bad := bytes.Clone(data)
			bad[i] ^= 0xff
			seqs, err := replayFile(t, bad)
			if r < 2 {
				if err == nil {
					t.Fatalf("record %d, byte %d flipped: replay succeeded with %v", r+1, i, seqs)
				}
				continue
			}
			if err != nil || len(seqs) != 2 {
				t.Fatalf("final record, byte %d flipped: replayed %v, %v; want [1 2] as a torn tail", i, seqs, err)
			}
		}
	}
}

// TestReplayRejectsLegacyJSONLog: a log in the JSON-lines format of earlier
// builds must fail loudly, not replay as an empty log, and must not be
// opened for appending either.
func TestReplayRejectsLegacyJSONLog(t *testing.T) {
	seqs, err := replayFile(t, []byte(legacyLog))
	if err == nil || !strings.Contains(err.Error(), "magic") {
		t.Fatalf("legacy log replayed %v, err %v; want a format error", seqs, err)
	}
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "old.wal"), []byte(legacyLog), 0o644); err != nil {
		t.Fatal(err)
	}
	if l, err := OpenWithOptions(dir, "old.wal", Options{}); err == nil {
		l.Close()
		t.Fatal("opened a legacy log for appending")
	}
}

// formatOneLog is a one-record log as format 1 wrote it: the magic ending in
// \x01, then a record whose transaction (dc0/1, snapshot [0], stamp 1 at DC
// 0) carries its counter op as the JSON blob {"counter":{"delta":1}}.
func formatOneLog() []byte {
	body := append([]byte{0x01, 0x03, 'd', 'c', '0', 0x01, 0x03, 'd', 'c', '0', 0x00, 0x01, 0x00,
		0x01, 0x00, 0x01, 0x01, 0x01, 'b', 0x01, 'x', 0x01, 0x00, 0x17}, `{"counter":{"delta":1}}`...)
	return append([]byte("colnyWL\x01"), appendRecord(nil, body)...)
}

// TestReplayRejectsFormatOneLog: a log of the previous binary format must
// fail loudly, naming its format — not replay as an empty log, and not be
// opened for appending either.
func TestReplayRejectsFormatOneLog(t *testing.T) {
	seqs, err := replayFile(t, formatOneLog())
	if err == nil || !strings.Contains(err.Error(), "format-1") {
		t.Fatalf("format-1 log replayed %v, err %v; want an error naming format 1", seqs, err)
	}
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "v1.wal"), formatOneLog(), 0o644); err != nil {
		t.Fatal(err)
	}
	if l, err := OpenWithOptions(dir, "v1.wal", Options{}); err == nil {
		l.Close()
		t.Fatal("opened a format-1 log for appending")
	}
}

// TestAppendAfterTornTailReplays: after a crash leaves a torn record, the
// next incarnation's appends must follow the last intact record, so the log
// still replays in full.
func TestAppendAfterTornTailReplays(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "t.wal")
	data, starts := threeRecordLog(t)
	if err := os.WriteFile(path, data[:starts[2]+3], 0o644); err != nil {
		t.Fatal(err)
	}
	l, err := OpenWithOptions(dir, "t.wal", Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.AppendWait(sampleTx(4)); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	seqs, err := replayFile(t, got)
	if err != nil || len(seqs) != 3 || seqs[2] != 4 {
		t.Fatalf("replayed %v, %v; want [1 2 4]", seqs, err)
	}
}

// TestOpenRewritesPartialMagic: a crash while a log was being created leaves
// part of the magic; opening it must yield a well-formed log.
func TestOpenRewritesPartialMagic(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "p.wal"), []byte(magic[:3]), 0o644); err != nil {
		t.Fatal(err)
	}
	l, err := OpenWithOptions(dir, "p.wal", Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.AppendWait(sampleTx(1)); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(filepath.Join(dir, "p.wal"))
	if err != nil {
		t.Fatal(err)
	}
	if want := append([]byte(magic), record(t, sampleTx(1))...); !bytes.Equal(got, want) {
		t.Fatalf("file = %q, want magic + one record", got)
	}
}

// FuzzReplay: arbitrary file contents must never panic replay, and the
// records it does replay must re-encode to exactly the bytes they were read
// from — the intact prefix is the magic followed by those records. Run it
// with
//
//	go test -run='^$' -fuzz=FuzzReplay -fuzztime=60s ./internal/wal
func FuzzReplay(f *testing.F) {
	data, starts := threeRecordLog(f)
	f.Add(data)
	f.Add(data[:starts[2]+5])
	f.Add([]byte(magic[:5]))
	f.Add([]byte{})
	f.Add([]byte(legacyLog))
	f.Add(formatOneLog())
	flipped := bytes.Clone(data)
	flipped[starts[1]+9] ^= 0xff
	f.Add(flipped)
	f.Fuzz(func(t *testing.T, data []byte) {
		var txs []*txn.Transaction
		n, err := replay("fuzz.wal", data, func(tx *txn.Transaction) error {
			txs = append(txs, tx)
			return nil
		})
		if n > len(data) {
			t.Fatalf("intact prefix %d longer than the input (%d)", n, len(data))
		}
		if n == 0 {
			if len(txs) > 0 || (err == nil && len(data) > len(magic)) {
				t.Fatalf("empty prefix, yet %d records and err %v", len(txs), err)
			}
			return
		}
		again := []byte(magic)
		for _, tx := range txs {
			again = append(again, record(t, tx)...)
		}
		if !bytes.Equal(again, data[:n]) {
			t.Fatalf("replayed records re-encode to\n %x\nnot the intact prefix\n %x", again, data[:n])
		}
	})
}
