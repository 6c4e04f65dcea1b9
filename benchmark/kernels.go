package main

import (
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"time"

	"colony/internal/clocksi"
	"colony/internal/crdt"
	"colony/internal/epaxos"
	"colony/internal/replication"
	"colony/internal/store"
	"colony/internal/txn"
	"colony/internal/vclock"
	"colony/internal/wal"
	"colony/internal/wire"
)

// The kernels time each layer's public functions directly, on one goroutine,
// so the stage spans of dc.accept, dc.admit, edge.apply and tcp.* can be
// split into codec, WAL, ClockSI, store, CRDT and admission shares. Codec,
// WAL, ClockSI, store-apply, admission and clone kernels run on transactions
// and replication batches the decorator captured from the traced run; the
// CRDT, vector, read-path and EPaxos kernels run on inputs built from the
// seed, because the run does not expose them at a boundary.

const kernelTime = 30 * time.Millisecond

// perOp times prepare(n)() with growing n until the timed part takes
// kernelTime, and returns ns per op. prepare builds the inputs for n ops and
// returns the part to time.
func perOp(prepare func(n int) func()) float64 {
	for n := 64; ; n *= 2 {
		run := prepare(n)
		start := time.Now()
		run()
		if d := time.Since(start); d >= kernelTime || n >= 1<<18 {
			return float64(d.Nanoseconds()) / float64(n)
		}
	}
}

// loop is perOp's prepare for kernels with nothing to prepare.
func loop(body func(i int)) func(n int) func() {
	return func(n int) func() {
		return func() {
			for i := 0; i < n; i++ {
				body(i)
			}
		}
	}
}

var sink any // keeps kernel results alive

// everything is a cut above any timestamp the run produced.
var everything = vclock.Vector{1 << 40, 1 << 40, 1 << 40}

// kernelTxs returns the captured transactions, or synthetic single-update
// ones when the run was too short to capture any.
func kernelTxs(tr *tracer, rng *rand.Rand) []*txn.Transaction {
	tr.capMu.Lock()
	txs := append([]*txn.Transaction(nil), tr.capTxs...)
	tr.capMu.Unlock()
	for i := len(txs); i < 32; i++ {
		t := &txn.Transaction{
			Dot: vclock.Dot{Node: "kernel", Seq: uint64(i + 1)}, Origin: "kernel", Actor: "kernel",
			Snapshot: vclock.Vector{uint64(rng.Intn(100)), uint64(rng.Intn(100)), uint64(rng.Intn(100))},
		}
		t.AppendUpdate(txn.ObjectID{Bucket: "k", Key: fmt.Sprintf("o%d", i%8)}, crdt.KindCounter, crdt.Op{Counter: &crdt.CounterOp{Delta: 1}})
		txs = append(txs, t)
	}
	return txs
}

// stamped clones txs n times over with fresh dots and commit stamps, so a
// store, a log or a mesh accepts each as a new committed transaction.
func stamped(txs []*txn.Transaction, n int) []*txn.Transaction {
	out := make([]*txn.Transaction, n)
	for i := range out {
		t := txs[i%len(txs)].Clone()
		t.Dot.Seq += uint64(i/len(txs)) << 32
		t.Commit = vclock.CommitStamps{0: uint64(i + 1)}
		out[i] = t
	}
	return out
}

func runKernels(tr *tracer, seed int64) (map[string]float64, error) {
	rng := rand.New(rand.NewSource(seed))
	out := make(map[string]float64, len(kernelNames))
	txs := kernelTxs(tr, rng)

	// wire: the replication batches the DCs actually exchanged.
	tr.capMu.Lock()
	batches := append([]wire.ReplBatch(nil), tr.capRepl...)
	tr.capMu.Unlock()
	if len(batches) == 0 {
		batches = []wire.ReplBatch{{From: 0, Txs: stamped(txs, 16), State: everything}}
	}
	var encoded [][]byte
	batchTxs, batchBytes := 0, 0
	for _, b := range batches {
		buf, err := wire.EncodeMessage(nil, b)
		if err != nil {
			return nil, err
		}
		encoded = append(encoded, buf)
		batchTxs += len(b.Txs)
		batchBytes += len(buf)
	}
	perBatch := float64(batchTxs) / float64(len(batches))
	var buf []byte
	out["wire.encode_ns_per_tx"] = perOp(loop(func(i int) {
		buf, _ = wire.EncodeMessage(buf[:0], batches[i%len(batches)])
	})) / perBatch
	var ms [2]runtime.MemStats
	decoded := 0
	runtime.ReadMemStats(&ms[0])
	out["wire.decode_ns_per_tx"] = perOp(loop(func(i int) {
		sink, _ = wire.DecodeMessage(encoded[i%len(encoded)])
		decoded++
	})) / perBatch
	runtime.ReadMemStats(&ms[1])
	out["wire.decode_allocs_per_tx"] = float64(ms[1].Mallocs-ms[0].Mallocs) / (float64(decoded) * perBatch)
	out["wire.bytes_per_tx"] = float64(batchBytes) / float64(batchTxs)

	// wal: group-commit appends, then durable appends one at a time.
	dir, err := newScratchDir("kernel")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	log, err := wal.OpenWithOptions(dir, "kernel.wal", wal.Options{GroupCommit: true})
	if err != nil {
		return nil, err
	}
	var walErr error
	note := func(err error) {
		if err != nil && walErr == nil {
			walErr = err
		}
	}
	out["wal.append_ns_per_tx"] = perOp(func(n int) func() {
		in := stamped(txs, n)
		return func() {
			for _, t := range in {
				note(log.Append(t))
			}
			note(log.Sync())
		}
	})
	const waits = 32
	in := stamped(txs, waits)
	start := time.Now()
	for _, t := range in {
		note(log.AppendWait(t))
	}
	out["wal.appendwait_us"] = float64(time.Since(start).Microseconds()) / waits
	note(log.Close())
	if walErr != nil {
		return nil, fmt.Errorf("wal kernel: %w", walErr)
	}

	// Each call of fresh(n) returns n transactions no earlier call returned,
	// for the kernels whose subject refuses a dot it has already seen.
	issued := 0
	fresh := func(n int) []*txn.Transaction {
		in := stamped(txs, issued+n)[issued:]
		issued += n
		return in
	}

	// clocksi: 2PC over 4 shards with a local sequencer.
	shards := make([]*clocksi.Shard, dcShards)
	for i := range shards {
		shards[i] = clocksi.NewShard(fmt.Sprintf("kernel/shard%d", i), uint64(i))
	}
	coord, err := clocksi.NewCoordinator(shards, 64)
	if err != nil {
		return nil, err
	}
	var seq uint64
	assign := func(maxPrepare uint64) (int, uint64) {
		if maxPrepare > seq {
			seq = maxPrepare
		}
		seq++
		return 0, seq
	}
	out["clocksi.commit_ns_per_tx"] = perOp(func(n int) func() {
		in := fresh(n)
		for _, t := range in {
			t.Commit = nil
		}
		return func() {
			for _, t := range in {
				sink, _ = coord.Commit(t, assign)
			}
		}
	})

	// store: apply, cached read, and journal replay with the cache off.
	st := store.New("kernel")
	issued = 0
	out["store.apply_ns_per_tx"] = perOp(func(n int) func() {
		in := fresh(n)
		return func() {
			for _, t := range in {
				_ = st.Apply(t) // fresh dots: nothing to refuse
			}
		}
	})
	const journal = 64
	hot := txn.ObjectID{Bucket: "kernel", Key: "hot"}
	replay := store.New("kernel-replay")
	for i := 0; i < journal; i++ {
		t := &txn.Transaction{Dot: vclock.Dot{Node: "kernel", Seq: uint64(i + 1)}, Origin: "kernel", Commit: vclock.CommitStamps{0: uint64(i + 1)}}
		t.AppendUpdate(hot, crdt.KindCounter, crdt.Op{Counter: &crdt.CounterOp{Delta: 1}})
		if err := replay.Apply(t); err != nil {
			return nil, err
		}
	}
	read := loop(func(int) { sink, _ = replay.Read(hot, everything, store.ReadOptions{}) })
	out["store.read_cached_ns"] = perOp(read)
	replay.SetReadCache(false)
	out["store.read_replay_ns_per_entry"] = perOp(read) / journal

	// crdt: typing at the end of a sequence, and a chat post's nested update.
	doc := crdt.NewRGA()
	out["crdt.rga_insert_ns"] = perOp(loop(func(int) {
		_ = doc.Apply(crdt.Meta{Dot: vclock.Dot{Node: "kernel", Seq: uint64(doc.Len() + 1)}}, doc.PrepareInsertAt(doc.Len(), "x"))
	}))
	channel := crdt.NewORMap()
	posts := 0
	out["crdt.ormap_apply_ns"] = perOp(loop(func(int) {
		msgs, _ := channel.Get("messages").(*crdt.RGA)
		if msgs == nil {
			msgs = crdt.NewRGA()
		}
		posts++
		op := channel.PrepareUpdate("messages", crdt.KindRGA, msgs.PrepareInsertAt(msgs.Len(), "user|hello"))
		_ = channel.Apply(crdt.Meta{Dot: vclock.Dot{Node: "kernel", Seq: uint64(posts)}}, op)
	}))

	// replication: admission of ready transactions and the K-stable cut.
	mesh := replication.NewMesh(0, numDCs)
	for dc := 1; dc < numDCs; dc++ {
		mesh.ObservePeer(dc, vclock.Vector{uint64(100 * dc), uint64(50 * dc), 7})
	}
	mesh.ObserveSelf(vclock.Vector{300, 20, 9})
	out["replication.admit_ns_per_tx"] = perOp(func(n int) func() {
		in := stamped(txs, n)
		return func() {
			for i := 0; i < n; i += 16 {
				sink = mesh.AdmitBatch(in[i:min(i+16, n)], everything)
			}
		}
	})
	out["replication.kstable_ns"] = perOp(loop(func(int) { sink = mesh.KStable(kStability) }))
	a, b := vclock.Vector{5, 900, 33}, vclock.Vector{700, 2, 34}
	out["vclock.join_ns"] = perOp(loop(func(int) { sink = a.Join(b) }))
	out["txn.clone_ns"] = perOp(loop(func(i int) { sink = txs[i%len(txs)].Clone() }))

	out["epaxos.commit_noconflict_us"] = epaxosKernel(false) / 1e3
	out["epaxos.commit_conflict_us"] = epaxosKernel(true) / 1e3
	return out, nil
}

// epaxosKernel times one command from Propose to execution at every replica
// of a 3-replica group whose messages are delivered in process, in FIFO
// order, on the calling goroutine. With conflict, two replicas propose on the
// same key before either hears of the other, which forces the slow path.
func epaxosKernel(conflict bool) float64 {
	type envelope struct {
		from, to string
		msg      any
	}
	names := []string{"r0", "r1", "r2"}
	replicas := make(map[string]*epaxos.Replica, len(names))
	var queue []envelope
	for _, name := range names {
		name := name
		var peers []string
		for _, p := range names {
			if p != name {
				peers = append(peers, p)
			}
		}
		replicas[name] = epaxos.NewReplica(name, peers,
			func(to string, msg any) { queue = append(queue, envelope{name, to, msg}) },
			func(epaxos.Command) {})
	}
	pump := func() {
		for len(queue) > 0 {
			e := queue[0]
			queue = queue[1:]
			replicas[e.to].HandleMessage(e.from, e.msg)
		}
	}
	id := 0
	propose := func(r, key string) {
		id++
		replicas[r].Propose(epaxos.Command{ID: fmt.Sprint(id), Keys: []string{key}})
	}
	return perOp(loop(func(i int) {
		if conflict {
			// Two proposals count as two ops: every other call does both.
			if i%2 == 0 {
				propose("r0", "doc")
				propose("r1", "doc")
			}
		} else {
			propose(names[i%len(names)], fmt.Sprint("k", id))
		}
		pump()
	}))
}
