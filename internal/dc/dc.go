// Package dc implements a Colony data centre (paper §3.4, §3.6, §6.3).
//
// A DC is an SI zone: internally it runs transactions across multiple
// sharded servers under ClockSI, and externally it behaves as a single
// sequential node whose commits are numbered by one component of the global
// vector timestamp. DCs replicate to each other over a full mesh and act as
// tree roots for edge nodes: they accept asynchronously committed edge
// transactions, assign them concrete commit timestamps, and push K-stable
// updates back down to subscribed edge caches.
package dc

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"colony/internal/clocksi"
	"colony/internal/crdt"
	"colony/internal/obs"
	"colony/internal/replication"
	"colony/internal/store"
	"colony/internal/transport"
	"colony/internal/txn"
	"colony/internal/vclock"
	"colony/internal/wal"
	"colony/internal/wire"
)

// Errors returned by the DC API.
var (
	ErrIncompatible = errors.New("dc: snapshot depends on transactions this DC has not seen")
	ErrClosed       = errors.New("dc: closed")
)

// Config configures one DC.
type Config struct {
	// Index is the DC's position in vector timestamps.
	Index int
	// Name is the DC's node name on the network.
	Name string
	// NumDCs is the total number of DCs in the system.
	NumDCs int
	// Shards is the number of storage servers (default 4).
	Shards int
	// K is the K-stability visibility threshold for edge nodes (default 1;
	// the paper's experiments use 2 with 3 DCs).
	K int
	// Heartbeat is the state-vector gossip period; 0 disables heartbeats
	// (tests drive gossip through traffic instead).
	Heartbeat time.Duration
	// AutoAdvanceThreshold lets each storage shard advance its own base
	// versions (journal truncation, paper §4.1) in the background whenever an
	// object's journal outgrows this many entries, folding up to the DC's
	// K-stable cut. It bounds journal growth under sustained write load.
	// 0 disables.
	AutoAdvanceThreshold int
	// DataDir enables persistence (paper §6.3): committed transactions are
	// appended to a write-ahead log under this directory and replayed on
	// restart. Empty disables persistence (unit tests, far-edge nodes).
	DataDir string
	// SyncWrites makes a commit wait until its WAL record is durable
	// (written and fsynced) before it is recorded, visible or acknowledged:
	// acked ⇒ durable, visible ⇒ durable. The wait blocks no dispatcher. The
	// DC sequences the commit, queues its record and moves on; the
	// group-commit flush that covers the record completes it, so commits in
	// flight together share one fsync. After a WAL write or fsync failure
	// (LastWALError) commits still complete, so their acks are no longer
	// durable. Only meaningful with DataDir set.
	SyncWrites bool
	// PartialRepl enables interest-scoped replication (DESIGN §4h): the
	// DC holds only the buckets in its interest set, advertises that set to
	// peers via BucketVec gossip, and receives payload-stripped stubs for
	// everything else. Buckets are acquired on demand (backfill) and kept
	// for the DC's lifetime.
	PartialRepl bool
	// Buckets is the boot-time interest set (live immediately, no backfill —
	// at genesis every bucket is empty everywhere). Additional buckets join
	// on demand via EnsureBuckets. Ignored unless PartialRepl is set.
	Buckets []string
	// Obs, when non-nil, instruments the DC (edge commit acceptance, push
	// batch sizes, inter-DC propagation latency) and its storage shards.
	Obs *obs.Registry
}

// subscription tracks one edge node's (or group sync point's) interest set
// and where it sits in the fan-out. It holds no delivery state: the
// subscriber keeps its own cursor (wire.PushCursor) and reports it when it
// resumes.
type subscription struct {
	node string
	// interest is read and written only under d.mu.
	interest map[txn.ObjectID]bool

	// shard is the interest shard this subscription currently belongs to. It
	// changes only in place/remove, which run under d.mu and the fanout mutex.
	shard *pushShard

	// relay marks the subscriber as tree-multicast capable (it declared
	// wire.Subscribe.Relay): it may be grouped into a subtree and asked to
	// re-fan-out pushes. Sticky for the subscription's lifetime; written
	// under d.mu, read during shard placement (also under d.mu).
	relay bool
	// tree is the multicast subtree this subscription currently belongs to
	// (nil when direct). Guarded by the fanout mutex.
	tree *pushTree
}

// Sizing fixed at the values every deployment ran with while they were still
// configurable.
const (
	// vnodes is the consistent-hashing virtual node count per storage shard.
	vnodes = 64
	// replOutboxCap bounds each per-peer replication outbox. A full outbox
	// back-pressures committers rather than dropping, so replication never
	// silently relies on anti-entropy alone.
	replOutboxCap = 4096
	// replBatchMax caps how many transactions a per-peer sender coalesces
	// into one wire.ReplBatch.
	replBatchMax = 128
)

// replOutbox is one peer's bounded replication queue, drained by a dedicated
// sender goroutine that coalesces runs of transactions into wire.ReplBatch
// frames (one state-vector clone per batch instead of per transaction).
type replOutbox struct {
	peerIdx int
	peer    string
	ch      chan *txn.Transaction
}

// DC is one data centre.
type DC struct {
	cfg   Config
	node  transport.Conn
	coord *clocksi.Coordinator
	mesh  *replication.Mesh

	mu      sync.Mutex
	closed  bool
	lamport vclock.Lamport
	seq     uint64
	state   vclock.Vector
	peers   map[int]string
	// hist is the DC's history: every transaction it has recorded, once, in
	// record order, with visibility a mark on the record. The push stream's
	// [Lo, Hi) ranges are positions in it.
	hist []histRec
	// byDot maps a dot to its position in hist (the duplicate filter).
	byDot map[vclock.Dot]int
	// unrecorded holds the dots this DC has committed but not yet recorded
	// (their completion waits for durability): the replication receive path
	// must not record them a second time.
	unrecorded map[vclock.Dot]struct{}
	// own holds the positions of the records this DC stamped, ordered by that
	// stamp, so anti-entropy resumes at a peer's position instead of walking
	// the whole history.
	own  []int
	subs map[string]*subscription
	// visible decides whether a transaction may become visible (the ACL
	// check hook, paper §6.4); nil admits everything.
	visible func(*txn.Transaction) bool
	// maskRoots[i] holds the records the check itself masked that carry a
	// stamp in component i, sorted by that stamp; nMasked counts every
	// masked record.
	maskRoots [][]maskRoot
	nMasked   int

	journal *wal.Log // nil when persistence is off

	// completions carries durable commits from the WAL writer to the
	// completion goroutine (SyncWrites only); inflight counts commits
	// between their closed check and their completion, so Close waits for
	// them before it stops anything they use.
	completions completionQueue
	inflight    sync.WaitGroup

	// walMu guards the sticky WAL error (see LastWALError); WAL failures
	// must not take the DC down mid-protocol, but they must be observable.
	walMu  sync.Mutex
	walErr error

	// outboxes are the per-peer replication queues (created in SetPeers
	// under d.mu). replDepth/pushDepth mirror the queue depths for the obs
	// gauges without taking locks.
	outboxes  map[int]*replOutbox
	replDepth atomic.Int64
	pushDepth atomic.Int64
	// histLen mirrors len(hist) for the dc.history_len gauge.
	histLen atomic.Int64
	// pipeStop stops the replication senders; pipeWG waits for them and for
	// the shard workers (stopped via fan.stop).
	pipeStop chan struct{}
	pipeWG   sync.WaitGroup

	// fan is the interest-sharded fan-out engine; fanShards/fanDirty mirror
	// its shard count and dirty-queue depth for the obs gauges without taking
	// its lock.
	fan       *fanout
	fanShards atomic.Int64
	fanDirty  atomic.Int64

	// Interest-scoped replication state (see partial.go). bmu is a LEAF
	// lock: it is taken with d.mu, shard locks, or the fanout lock held, so
	// nothing may be acquired under it. partial mirrors cfg.PartialRepl;
	// buckets is the local bucket table; bucketSeq versions the interest set
	// (bumped on every change) and wantFloor records the seq of the latest
	// bucket ADDITION — incoming batches scoped against an older set are
	// refused (they may have stubbed a bucket we now hold).
	bmu       sync.Mutex
	partial   bool
	buckets   map[string]*bucketState
	bucketSeq uint64
	wantFloor uint64

	// Instrumentation handles (nil-safe no-ops when Config.Obs is unset).
	obsEdgeCommits  *obs.Counter
	obsEdgeNacks    *obs.Counter
	obsReplRx       *obs.Counter
	obsWALErrors    *obs.Counter
	obsFramesBuilt  *obs.Counter
	obsFramesShared *obs.Counter
	obsPushSends    *obs.Counter
	obsTreeAssigns  *obs.Counter
	obsTreeRepairs  *obs.Counter
	obsFullTxs      *obs.Counter
	obsStubTxs      *obs.Counter
	obsSkipped      *obs.Counter
	obsBackfills    *obs.Counter
	obsPushBatch    *obs.Histogram
	obsReplBatch    *obs.Histogram
	obsReplLat      *obs.Histogram
	obsShardFanout  *obs.Histogram

	stopHeartbeat chan struct{}
	heartbeatDone chan struct{}
}

// New creates a DC, registers it on the network, and starts its heartbeat
// worker (if configured). Call SetPeers once all DCs exist, then Close when
// done.
func New(net transport.Network, cfg Config) (*DC, error) {
	if cfg.Shards <= 0 {
		cfg.Shards = 4
	}
	if cfg.K <= 0 {
		cfg.K = 1
	}
	if cfg.NumDCs <= 0 {
		cfg.NumDCs = 1
	}
	shards := make([]*clocksi.Shard, cfg.Shards)
	for i := range shards {
		shards[i] = clocksi.NewShard(fmt.Sprintf("%s/shard%d", cfg.Name, i), uint64(i))
	}
	coord, err := clocksi.NewCoordinator(shards, vnodes)
	if err != nil {
		return nil, err
	}
	d := &DC{
		cfg:           cfg,
		coord:         coord,
		mesh:          replication.NewMesh(cfg.Index, cfg.NumDCs),
		state:         vclock.NewVector(cfg.NumDCs),
		peers:         make(map[int]string),
		byDot:         make(map[vclock.Dot]int),
		unrecorded:    make(map[vclock.Dot]struct{}),
		subs:          make(map[string]*subscription),
		outboxes:      make(map[int]*replOutbox),
		pipeStop:      make(chan struct{}),
		stopHeartbeat: make(chan struct{}),
		heartbeatDone: make(chan struct{}),
	}
	d.resetMaskLocked()
	if cfg.Obs != nil {
		d.obsEdgeCommits = cfg.Obs.Counter("dc.edge_commits")
		d.obsEdgeNacks = cfg.Obs.Counter("dc.edge_nacks")
		d.obsReplRx = cfg.Obs.Counter("dc.repl_rx")
		d.obsWALErrors = cfg.Obs.Counter("dc.wal_errors")
		d.obsFramesBuilt = cfg.Obs.Counter("dc.push_frames_built")
		d.obsFramesShared = cfg.Obs.Counter("dc.push_frames_shared")
		d.obsPushSends = cfg.Obs.Counter("dc.push_sends")
		d.obsTreeAssigns = cfg.Obs.Counter("dc.tree_assigns")
		d.obsTreeRepairs = cfg.Obs.Counter("dc.tree_repairs")
		d.obsFullTxs = cfg.Obs.Counter("dc.repl_full_txs")
		d.obsStubTxs = cfg.Obs.Counter("dc.repl_stub_txs")
		d.obsSkipped = cfg.Obs.Counter("dc.repl_skipped_buckets")
		d.obsBackfills = cfg.Obs.Counter("dc.backfills")
		d.obsPushBatch = cfg.Obs.Histogram("dc.push_batch_txs")
		d.obsReplBatch = cfg.Obs.Histogram("dc.repl_batch_txs")
		d.obsReplLat = cfg.Obs.Histogram("dc.repl_propagation_ns")
		d.obsShardFanout = cfg.Obs.Histogram("dc.push_shard_fanout")
		cfg.Obs.RegisterGauge("dc.repl_outbox_depth", obs.AggSum, func() int64 {
			return d.replDepth.Load()
		})
		cfg.Obs.RegisterGauge("dc.push_outbox_depth", obs.AggSum, func() int64 {
			return d.pushDepth.Load()
		})
		cfg.Obs.RegisterGauge("dc.history_len", obs.AggSum, func() int64 {
			return d.histLen.Load()
		})
		cfg.Obs.RegisterGauge("dc.push_shards", obs.AggSum, func() int64 {
			return d.fanShards.Load()
		})
		cfg.Obs.RegisterGauge("dc.push_dirty_shards", obs.AggSum, func() int64 {
			return d.fanDirty.Load()
		})
		coord.SetObs(cfg.Obs)
	}
	if cfg.AutoAdvanceThreshold > 0 {
		p := store.AdvancePolicy{
			JournalThreshold: cfg.AutoAdvanceThreshold,
			// Fold up to the K-stable cut; keep dots so migration-induced
			// re-delivery stays deduplicated.
			Cut:      d.Stable,
			KeepDots: true,
		}
		if cfg.PartialRepl {
			// Each bucket folds at its own K-stability frontier, computed
			// over only the replicas holding it (partial.go).
			p.Cut = nil
			p.CutFor = d.bucketCutFor
		}
		coord.SetAutoAdvance(p)
	}
	d.cfg = cfg
	if cfg.PartialRepl {
		d.initPartial()
	}
	if cfg.DataDir != "" {
		if err := d.recover(); err != nil {
			return nil, fmt.Errorf("dc: recover %s: %w", cfg.Name, err)
		}
		logFile, err := wal.OpenWithOptions(cfg.DataDir, cfg.Name+".wal", wal.Options{
			OnError: d.noteWALError,
			Obs:     cfg.Obs,
		})
		if err != nil {
			return nil, err
		}
		d.journal = logFile
	}
	d.fan = newFanout(d)
	if d.journal != nil && cfg.SyncWrites {
		d.completions.wake = make(chan struct{}, 1)
		d.pipeWG.Add(1)
		go d.runCompletions()
	}
	for i := 0; i < pushShardWorkers; i++ {
		d.pipeWG.Add(1)
		go d.runShardWorker()
	}
	d.node = net.AddNode(cfg.Name, d.handle)
	if cfg.Heartbeat > 0 {
		go d.heartbeatLoop()
	} else {
		close(d.heartbeatDone)
	}
	return d, nil
}

// SetPeers wires the other DCs (index → network node name) and creates one
// bounded outbox plus sender goroutine per peer; commitAt enqueues onto these
// and the senders coalesce runs of pending transactions into wire.ReplBatch
// frames.
func (d *DC) SetPeers(peers map[int]string) {
	d.mu.Lock()
	defer d.mu.Unlock()
	for idx, name := range peers {
		if idx == d.cfg.Index {
			continue
		}
		d.peers[idx] = name
		if d.outboxes[idx] != nil || d.closed {
			continue
		}
		o := &replOutbox{peerIdx: idx, peer: name, ch: make(chan *txn.Transaction, replOutboxCap)}
		d.outboxes[idx] = o
		d.pipeWG.Add(1)
		go d.runReplSender(o)
	}
}

// peerNamesLocked lists the peers' network names. Called with d.mu held.
func (d *DC) peerNamesLocked() []string {
	peers := make([]string, 0, len(d.peers))
	for _, p := range d.peers {
		peers = append(peers, p)
	}
	return peers
}

// runReplSender drains one peer's outbox: it blocks for the first pending
// transaction, greedily coalesces whatever else is queued (up to
// replBatchMax) into a single ReplBatch with one state-vector clone, and
// ships it. Per-peer FIFO (outbox order = commit order, simnet links are
// FIFO) preserves the causal order of this DC's own commits.
func (d *DC) runReplSender(o *replOutbox) {
	defer d.pipeWG.Done()
	for {
		select {
		case <-d.pipeStop:
			return
		case t := <-o.ch:
			batch := make([]*txn.Transaction, 1, replBatchMax)
			batch[0] = t
		fill:
			for len(batch) < replBatchMax {
				select {
				case t2 := <-o.ch:
					batch = append(batch, t2)
				default:
					break fill
				}
			}
			d.replDepth.Add(-int64(len(batch)))
			d.obsReplBatch.Observe(int64(len(batch)))
			txs, wantSeq := d.scopeBatch(o.peerIdx, batch)
			msg := wire.ReplBatch{From: d.cfg.Index, Txs: txs, State: d.State(), SentAt: time.Now(), WantSeq: wantSeq}
			_ = d.node.Send(o.peer, msg) // partitions heal via anti-entropy
		}
	}
}

// enqueueRepl fans a committed transaction out to every peer outbox. A full
// outbox back-pressures the committer (blocking send) instead of dropping.
// It runs only inside a commit's completion, and Close waits for those
// before it stops the senders, so a blocked send is always drained.
func (d *DC) enqueueRepl(outs []*replOutbox, cp *txn.Transaction) {
	for _, o := range outs {
		o.ch <- cp
		d.replDepth.Add(1)
	}
}

// SetVisibilityCheck installs the ACL hook: transactions for which check
// returns false are masked — withheld from subscribers and from reads at
// this DC's stable cut — together with every transaction that causally
// depends on them (paper §5.3, §6.4).
func (d *DC) SetVisibilityCheck(check func(*txn.Transaction) bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.visible = check
}

// Close refuses new commits, waits for the ones in flight to complete, stops
// the DC's background work (heartbeat, replication senders, shard workers,
// completions) and flushes the write-ahead log.
func (d *DC) Close() {
	d.mu.Lock()
	if d.closed {
		d.mu.Unlock()
		return
	}
	d.closed = true
	journal := d.journal
	d.mu.Unlock()
	d.inflight.Wait()
	close(d.stopHeartbeat)
	<-d.heartbeatDone
	close(d.pipeStop)
	d.fan.stop()
	d.pipeWG.Wait()
	if journal != nil {
		_ = journal.Close()
	}
}

// recover replays the write-ahead log: every recorded transaction is
// re-applied (the WAL was appended in causal order) and the sequencer and
// state vector are rebuilt.
func (d *DC) recover() error {
	return wal.Replay(d.cfg.DataDir, d.cfg.Name+".wal", func(t *txn.Transaction) error {
		if err := d.coord.ApplyCommitted(t); err != nil && !errors.Is(err, store.ErrDuplicate) {
			return err
		}
		d.mu.Lock()
		d.recordLocked(t)
		d.mu.Unlock()
		d.mesh.ObserveSelf(d.state)
		return nil
	})
}

// persist queues a replicated transaction for the write-ahead log without
// waiting: it is recoverable from its origin DC via anti-entropy, and the
// apply path calls this holding d.mu. I/O errors must not take the DC down
// mid-protocol: they are counted (dc.wal_errors) and kept via LastWALError
// instead of propagating.
func (d *DC) persist(t *txn.Transaction) {
	if d.journal != nil {
		d.noteWALError(d.journal.Append(t))
	}
}

// noteWALError counts a WAL failure and keeps the first one for
// LastWALError. It doubles as the journal's asynchronous OnError observer,
// so the same underlying failure may be counted more than once (once per
// observation); the counter signals trouble, the sticky error identifies it.
func (d *DC) noteWALError(err error) {
	if err == nil {
		return
	}
	d.obsWALErrors.Inc()
	d.walMu.Lock()
	if d.walErr == nil {
		d.walErr = err
	}
	d.walMu.Unlock()
}

// LastWALError reports the first write-ahead-log append/flush/fsync failure
// observed since the DC started, or nil. It is sticky: persistence errors
// are swallowed on the hot path (the DC keeps serving), so monitoring must
// be able to see that the log is no longer trustworthy.
func (d *DC) LastWALError() error {
	d.walMu.Lock()
	defer d.walMu.Unlock()
	return d.walErr
}

// Name returns the DC's network node name.
func (d *DC) Name() string { return d.cfg.Name }

// Index returns the DC's vector component index.
func (d *DC) Index() int { return d.cfg.Index }

// State returns a copy of the DC's current state vector.
func (d *DC) State() vclock.Vector {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.state.Clone()
}

// Stable returns the current K-stable cut (the edge-visible frontier) met
// with this DC's own applied state: K peers may hold a transaction this DC
// has not received, and a fold at a cut covering it would make the store
// skip it on arrival. Every cut the DC hands out or folds at comes from here.
func (d *DC) Stable() vclock.Vector {
	return vclock.GLB(d.mesh.KStable(d.cfg.K), d.mesh.Known(d.cfg.Index))
}

// heartbeatLoop gossips the state vector so stability advances during quiet
// periods.
func (d *DC) heartbeatLoop() {
	defer close(d.heartbeatDone)
	ticker := time.NewTicker(d.cfg.Heartbeat)
	defer ticker.Stop()
	ticks := 0
	for {
		select {
		case <-ticker.C:
			if d.partial {
				ticks++
				if ticks%32 == 1 {
					// Interest sets gossip on every change; the periodic
					// re-broadcast converges peers that booted later or missed
					// the change broadcast.
					d.gossipBuckets()
				}
			}
			d.mu.Lock()
			msg := wire.ReplHeartbeat{From: d.cfg.Index, State: d.state.Clone()}
			peers := d.peerNamesLocked()
			d.notifySubscribersLocked(true)
			d.mu.Unlock()
			for _, p := range peers {
				_ = d.node.Send(p, msg) // partitions surface elsewhere
			}
		case <-d.stopHeartbeat:
			return
		}
	}
}

// handle dispatches incoming network messages.
func (d *DC) handle(from string, msg any) any {
	switch m := msg.(type) {
	case wire.ReplBatch:
		d.receiveReplicated(m)
		return nil
	case wire.ReplHeartbeat:
		d.mesh.ObservePeer(m.From, m.State)
		d.mu.Lock()
		// A gossip receipt is a stability advance without local traffic:
		// broadcast it so quiet-bucket subscribers' cuts keep moving.
		d.notifySubscribersLocked(true)
		resend, peer := d.antiEntropyLocked(m)
		d.mu.Unlock()
		if len(resend.Txs) > 0 && peer != "" {
			_ = d.node.Send(peer, resend)
		}
		return nil
	case wire.EdgeCommit:
		return d.acceptEdgeTx(m.Tx)
	case wire.Subscribe:
		return d.subscribe(m)
	case wire.Unsubscribe:
		d.unsubscribe(m)
		return nil
	case wire.FetchObject:
		return d.fetchObject(from, m.ID, m.At)
	case wire.MigratedTx:
		return d.runMigrated(m)
	case wire.BucketVec:
		return d.handleBucketVec(m)
	case wire.BackfillReq:
		return d.serveBackfill(m)
	default:
		return nil
	}
}

// --- local (in-DC) transactions ---

// Tx is an interactive transaction executing at this DC (a cloud client, a
// migrated edge transaction, or a benchmark client in "no cache" mode).
type Tx struct {
	dc       *DC
	dot      vclock.Dot
	snapshot vclock.Vector
	actor    string
	updates  []txn.Update
	done     bool
}

// Begin starts an interactive transaction on the DC's current state (SI
// within the DC). The dot is minted up front so operations prepared against
// the transaction's own buffered updates carry the final tags.
func (d *DC) Begin(actor string) *Tx {
	d.mu.Lock()
	snap := d.state.Clone()
	dot := vclock.Dot{Node: d.cfg.Name, Seq: d.lamport.Next()}
	d.mu.Unlock()
	return &Tx{dc: d, dot: dot, snapshot: snap, actor: actor}
}

// Read returns the object at the transaction snapshot, including the
// transaction's own buffered updates. On a partially replicating DC the
// object's bucket is made live first (backfill), so a read never observes a
// half-resident bucket.
func (t *Tx) Read(id txn.ObjectID) (crdt.Object, error) {
	if err := t.dc.EnsureBuckets(id.Bucket); err != nil {
		return nil, err
	}
	obj, err := t.dc.coord.Read(id, t.snapshot, store.ReadOptions{})
	if errors.Is(err, store.ErrNotFound) {
		var kind crdt.Kind
		for _, u := range t.updates {
			if u.Object == id {
				kind = u.Kind
				break
			}
		}
		if kind == 0 {
			return nil, err
		}
		obj, err = crdt.New(kind)
	}
	if err != nil {
		return nil, err
	}
	for _, u := range t.updates {
		if u.Object != id {
			continue
		}
		// Reads may be shared sealed snapshots; fork before the first
		// buffered update.
		if obj.Sealed() {
			obj = obj.Fork()
		}
		if err := obj.Apply(u.Meta(t.dot), u.Op); err != nil {
			return nil, err
		}
	}
	return obj, nil
}

// Update buffers one CRDT operation.
func (t *Tx) Update(id txn.ObjectID, kind crdt.Kind, op crdt.Op) {
	t.updates = append(t.updates, txn.Update{Object: id, Kind: kind, Op: op, Seq: len(t.updates)})
}

// Commit runs the ClockSI 2PC and replicates the transaction; under
// SyncWrites it returns once the transaction is durable. Read-only
// transactions commit trivially. The returned stamps are the concrete commit
// descriptor.
func (t *Tx) Commit() (vclock.CommitStamps, error) {
	if t.done {
		return nil, errors.New("dc: transaction already finished")
	}
	t.done = true
	if len(t.updates) == 0 {
		return nil, nil
	}
	tx := &txn.Transaction{
		Dot:      t.dot,
		Origin:   t.dc.cfg.Name,
		Actor:    t.actor,
		Snapshot: t.snapshot,
		Updates:  t.updates,
	}
	return t.dc.commitLocal(tx)
}

// commitLocal publishes a transaction originated at this DC.
func (d *DC) commitLocal(t *txn.Transaction) (vclock.CommitStamps, error) {
	d.mu.Lock()
	if d.closed {
		d.mu.Unlock()
		return nil, ErrClosed
	}
	if t.Dot.IsZero() {
		t.Dot = vclock.Dot{Node: d.cfg.Name, Seq: d.lamport.Next()}
	}
	d.mu.Unlock()
	if err := d.EnsureBuckets(bucketsOf(t.Updates)...); err != nil {
		return nil, err
	}
	type result struct {
		stamps vclock.CommitStamps
		err    error
	}
	res := make(chan result, 1)
	d.commitAt(t, func(stamps vclock.CommitStamps, err error) { res <- result{stamps, err} })
	r := <-res
	return r.stamps, r.err
}

// pendingCommit is one commit between its stamp and its completion.
type pendingCommit struct {
	t *txn.Transaction
	// done receives the commit's stamps once it is recorded.
	done func(vclock.CommitStamps, error)
	// walErr is the outcome of the fsync that covers the commit's record.
	walErr error
}

// commitAt commits a transaction (local or edge-originated) and calls done
// with its stamps once it is recorded — never with d.mu held. It runs in two
// halves. The first, on the caller's goroutine, is the ClockSI 2PC: after
// the prepare, one d.mu section draws the stamp from the DC sequencer, runs
// the commit phase and, once that has succeeded, queues the transaction's
// WAL record — so the log holds exactly the commits that took effect, in
// stamp order. The second, the completion (complete), records the
// transaction, replicates it, pushes it and calls done. Under SyncWrites the
// completion waits for the fsync that covers the record, and commitAt
// returns without waiting: the WAL writer hands the commit to the
// completion goroutine, which completes commits in WAL order — so in stamp
// order — and a dispatcher that sequenced one is free for the next, which
// shares its fsync. Otherwise the completion runs inline, before commitAt
// returns. A commit that fails is reported to done at once.
func (d *DC) commitAt(t *txn.Transaction, done func(vclock.CommitStamps, error)) {
	d.mu.Lock()
	if d.closed {
		d.mu.Unlock()
		done(nil, ErrClosed)
		return
	}
	d.inflight.Add(1)
	d.mu.Unlock()
	fail := func(err error) {
		done(nil, err)
		d.inflight.Done()
	}
	prep, err := d.coord.Prepare(t)
	if err != nil {
		fail(err)
		return
	}
	d.mu.Lock()
	d.seq = max(d.seq, prep.MaxPrepare) + 1
	t.Commit = vclock.CommitStamps{d.cfg.Index: d.seq}
	if err := prep.Commit(t.Commit); err != nil {
		d.mu.Unlock()
		fail(err)
		return
	}
	p := &pendingCommit{t: t, done: done}
	d.unrecorded[t.Dot] = struct{}{}
	durable := d.journal != nil && d.cfg.SyncWrites
	switch {
	case durable:
		d.journal.AppendThen(t, func(err error) {
			p.walErr = err
			d.completions.push(p)
		})
	case d.journal != nil:
		d.noteWALError(d.journal.Append(t))
	}
	d.mu.Unlock()
	if !durable {
		d.complete([]*pendingCommit{p})
	}
}

// complete is the second half of commitAt for a run of commits, in stamp
// order: one d.mu section records them, observes the new state and routes
// the newly stable suffix to the push shards; then each is cloned into the
// peers' replication outboxes and reported to its caller.
func (d *DC) complete(run []*pendingCommit) {
	d.mu.Lock()
	// The outboxes are collected under d.mu so a concurrent SetPeers cannot
	// race the map.
	outs := make([]*replOutbox, 0, len(d.outboxes))
	for _, o := range d.outboxes {
		outs = append(outs, o)
	}
	// One clone per commit, shared by every peer's batch (the wire contract
	// treats in-flight transactions as immutable).
	clones := make([]*txn.Transaction, len(run))
	for i, p := range run {
		delete(d.unrecorded, p.t.Dot)
		d.recordLocked(p.t)
		if len(outs) > 0 {
			clones[i] = p.t.Clone()
		}
	}
	d.mesh.ObserveSelf(d.state)
	d.notifySubscribersLocked(false)
	d.mu.Unlock()
	for i, p := range run {
		d.noteWALError(p.walErr)
		d.enqueueRepl(outs, clones[i])
		p.done(p.t.Commit.Clone(), nil)
		d.inflight.Done()
	}
}

// completionQueue is the unbounded FIFO from the WAL writer to the
// completion goroutine. push never blocks: a writer that waited on the
// completion goroutine, which takes d.mu, could deadlock against
// receiveReplicated, which appends to the WAL under d.mu.
type completionQueue struct {
	mu   sync.Mutex
	q    []*pendingCommit
	wake chan struct{} // capacity 1: one wake-up covers everything queued
}

func (c *completionQueue) push(p *pendingCommit) {
	c.mu.Lock()
	c.q = append(c.q, p)
	c.mu.Unlock()
	select {
	case c.wake <- struct{}{}:
	default:
	}
}

// take removes and returns everything queued.
func (c *completionQueue) take() []*pendingCommit {
	c.mu.Lock()
	defer c.mu.Unlock()
	q := c.q
	c.q = nil
	return q
}

// runCompletions completes durable commits in the order the WAL made them
// durable, each run under one d.mu section. A commit reaches the queue once
// its record is fsynced. Close waits for every commit in flight before it
// stops this goroutine.
func (d *DC) runCompletions() {
	defer d.pipeWG.Done()
	for {
		select {
		case <-d.pipeStop:
			return
		case <-d.completions.wake:
		}
		for run := d.completions.take(); len(run) > 0; run = d.completions.take() {
			d.complete(run)
		}
	}
}

// histRec is one record of the DC's history: a transaction and whether the
// masking rule withholds it from subscribers.
type histRec struct {
	t      *txn.Transaction
	masked bool
}

// recordLocked is how a committed transaction enters the DC (commit,
// replication, WAL replay): it witnesses the dot, joins the state vector,
// appends the transaction to the history, marked by the masking rule, and
// indexes the record by dot and, when this DC stamped it, by stamp — moving
// the sequencer up to that stamp.
func (d *DC) recordLocked(t *txn.Transaction) {
	d.lamport.Witness(t.Dot.Seq)
	d.state = t.Commit.JoinInto(d.state, t.Snapshot)
	pos := len(d.hist)
	d.byDot[t.Dot] = pos
	if ts, ours := t.Commit[d.cfg.Index]; ours {
		d.seq = max(d.seq, ts)
		// Records arrive nearly in stamp order — this DC's commits complete
		// in stamp order under SyncWrites, but concurrent inline completions
		// can swap neighbours, and anti-entropy and replay feed any order —
		// so the insertion point is found from the tail.
		i := len(d.own)
		for i > 0 && d.ownStampLocked(i-1) > ts {
			i--
		}
		d.own = slices.Insert(d.own, i, pos)
	}
	d.hist = append(d.hist, histRec{t: t, masked: d.maskLocked(t)})
	d.histLen.Store(int64(len(d.hist)))
}

// ownStampLocked is this DC's stamp on the i-th record of d.own.
func (d *DC) ownStampLocked(i int) uint64 {
	return d.hist[d.own[i]].t.Commit[d.cfg.Index]
}

// maskRoot is a record the visibility check masked, with its stamp in the
// component whose list holds it.
type maskRoot struct {
	ts uint64
	t  *txn.Transaction
}

// maskLocked applies the masking rule to t, given every record before it: t
// is masked if it fails the visibility check or depends on a masked record.
// Every masked record depends on a root (one the check masked), so only roots
// are tested, per component in stamp order, stopping at the first stamped
// above t's snapshot: with no root at or below the snapshot the test costs
// O(NumDCs), however many records are masked. A root at or below it is tested
// whole — a DC's state can cover an edge commit's stamp before a lower stamp
// whose dependencies it lacks — but the first is normally t's ancestor.
func (d *DC) maskLocked(t *txn.Transaction) bool {
	if d.visible != nil && !d.visible(t) {
		d.nMasked++
		for i, ts := range t.Commit {
			roots := d.maskRoots[i]
			j := len(roots)
			for j > 0 && roots[j-1].ts > ts {
				j--
			}
			d.maskRoots[i] = slices.Insert(roots, j, maskRoot{ts: ts, t: t})
		}
		return true
	}
	for i, roots := range d.maskRoots {
		for _, r := range roots {
			if r.ts > t.Snapshot.Get(i) {
				break
			}
			if r.t.VisibleAt(t.Snapshot) {
				d.nMasked++
				return true
			}
		}
	}
	return false
}

// resetMaskLocked forgets every mask: no record is masked.
func (d *DC) resetMaskLocked() {
	d.nMasked = 0
	d.maskRoots = make([][]maskRoot, d.cfg.NumDCs)
}

// antiEntropyMax bounds one anti-entropy round; the next heartbeat continues.
const antiEntropyMax = 256

// antiEntropyLocked finds own-accepted transactions the heartbeat sender is
// missing, so commits broadcast into a partition are retransmitted after the
// partition heals. Duplicates on the receiving side are filtered by dot. The
// search starts at the sender's position in d.own, so a round costs
// O(log history + resent), not O(history). The resends ride one ReplBatch:
// the state vector and send stamp are built once per round.
func (d *DC) antiEntropyLocked(m wire.ReplHeartbeat) (wire.ReplBatch, string) {
	peer := d.peers[m.From]
	if peer == "" {
		return wire.ReplBatch{}, ""
	}
	known := m.State.Get(d.cfg.Index)
	i := sort.Search(len(d.own), func(i int) bool { return d.ownStampLocked(i) > known })
	missing := d.own[i:min(len(d.own), i+antiEntropyMax)]
	if len(missing) == 0 {
		return wire.ReplBatch{}, peer
	}
	// Masked records go too: each peer applies its own visibility.
	txs := make([]*txn.Transaction, len(missing))
	for j, pos := range missing {
		txs[j] = d.hist[pos].t.Clone()
	}
	// Anti-entropy resends are scoped like the live stream: the receiver's
	// WantSeq guard plus the next round's resend make dropped batches
	// self-healing.
	txs, wantSeq := d.scopeBatch(m.From, txs)
	return wire.ReplBatch{From: d.cfg.Index, Txs: txs, State: d.state.Clone(), SentAt: time.Now(), WantSeq: wantSeq}, peer
}

// --- edge transaction acceptance (paper §3.7) ---

// stampOf picks the concrete commit coordinate advertised in an
// EdgeCommitAck: the stamp of the lowest DC index present. A committed
// transaction normally carries exactly one concrete stamp, but when it
// carries several (snapshot joins folded in), map iteration order must not
// decide — re-acking the same dot twice has to name the same coordinate.
func stampOf(stamps vclock.CommitStamps) (dc int, ts uint64) {
	dc = -1
	for idx, t := range stamps {
		if dc < 0 || idx < dc {
			dc, ts = idx, t
		}
	}
	return max(dc, 0), ts
}

// acceptEdgeTx handles an asynchronously committed edge transaction.
func (d *DC) acceptEdgeTx(t *txn.Transaction) any {
	if err := d.EnsureBuckets(bucketsOf(t.Updates)...); err != nil {
		// No replica could serve a backfill for a touched bucket; the edge
		// retries against this DC or migrates to another.
		d.obsEdgeNacks.Inc()
		return wire.EdgeCommitNack{Dot: t.Dot}
	}
	d.mu.Lock()
	if d.closed {
		d.mu.Unlock()
		d.obsEdgeNacks.Inc()
		return wire.EdgeCommitNack{Dot: t.Dot}
	}
	// Duplicate (e.g. re-sent after migration): re-ack with the stamps this
	// DC already knows; the dot filter keeps effects exactly-once.
	if ack, ok := d.recordedAckLocked(t.Dot); ok {
		d.mu.Unlock()
		return ack
	}
	// Causal compatibility: the edge's dependencies must all be visible
	// here, otherwise the edge node is incompatible with this DC (§3.8).
	if !t.Snapshot.LEQ(d.state) {
		missing := d.state.Clone()
		d.mu.Unlock()
		d.obsEdgeNacks.Inc()
		return wire.EdgeCommitNack{Dot: t.Dot, Missing: missing}
	}
	d.lamport.Witness(t.Dot.Seq)
	d.mu.Unlock()

	// The reply is sent when the commit completes; the dispatcher moves on.
	reply := transport.NewDeferred()
	d.commitAt(t.Clone(), func(stamps vclock.CommitStamps, err error) {
		reply.Resolve(d.edgeCommitReply(t.Dot, stamps, err))
	})
	return reply
}

// edgeCommitReply answers an edge commit once commitAt has completed it.
func (d *DC) edgeCommitReply(dot vclock.Dot, stamps vclock.CommitStamps, err error) any {
	if errors.Is(err, store.ErrDuplicate) {
		// The dot is already in the store: replication of the same dot got
		// there first (re-ack with its stamps), or an earlier copy of this
		// commit is still waiting for durability (nack; the edge retries and
		// is then re-acked).
		d.mu.Lock()
		ack, ok := d.recordedAckLocked(dot)
		d.mu.Unlock()
		if ok {
			return ack
		}
	}
	if err != nil {
		d.obsEdgeNacks.Inc()
		return wire.EdgeCommitNack{Dot: dot}
	}
	d.obsEdgeCommits.Inc()
	ack := wire.EdgeCommitAck{Dot: dot, Stable: d.Stable()}
	ack.DCIndex, ack.Ts = stampOf(stamps)
	return ack
}

// recordedAckLocked re-acks a dot this DC has recorded, naming the stamp it
// was recorded with.
func (d *DC) recordedAckLocked(dot vclock.Dot) (wire.EdgeCommitAck, bool) {
	pos, ok := d.byDot[dot]
	if !ok {
		return wire.EdgeCommitAck{}, false
	}
	ack := wire.EdgeCommitAck{Dot: dot, Stable: d.Stable()}
	ack.DCIndex, ack.Ts = stampOf(d.hist[pos].t.Commit)
	return ack, true
}

// --- replication receive path ---

// receiveReplicated applies a batch of transactions replicated from a peer
// DC once their causal dependencies are satisfied. The whole batch is
// admitted in one mesh call and applied under one d.mu acquisition, so a
// coalesced batch of N transactions pays the lock/mesh overhead once.
func (d *DC) receiveReplicated(m wire.ReplBatch) {
	d.obsReplRx.Add(int64(len(m.Txs)))
	if !m.SentAt.IsZero() {
		d.obsReplLat.Observe(int64(time.Since(m.SentAt)))
	}
	d.mesh.ObservePeer(m.From, m.State)
	if d.dropStale(m) {
		// Scoped against an interest set older than our latest bucket
		// addition: the batch may stub a bucket we now hold. Refuse it whole
		// (the peer's state was still observed above); anti-entropy re-sends
		// the content with a fresher scope.
		return
	}
	d.mu.Lock()
	if d.closed {
		d.mu.Unlock()
		return
	}
	// Clone non-duplicates: the sender's record (and other recipients') must
	// not share mutable state with this DC's history. Duplicate or partially
	// overlapping batches (anti-entropy rounds racing the live stream) are
	// filtered by dot here and again after admission.
	incoming := make([]*txn.Transaction, 0, len(m.Txs))
	for _, t := range m.Txs {
		if t == nil || d.knownLocked(t.Dot) {
			continue
		}
		incoming = append(incoming, t.Clone())
	}
	ready := d.mesh.AdmitBatch(incoming, d.state)
	for _, t := range ready {
		if d.knownLocked(t.Dot) {
			continue
		}
		if err := d.coord.ApplyCommitted(t); err != nil && !errors.Is(err, store.ErrDuplicate) {
			continue // skip malformed transaction, keep the DC alive
		}
		d.persist(t)
		d.recordLocked(t)
	}
	d.mesh.ObserveSelf(d.state)
	d.notifySubscribersLocked(false)
	ackTo, ack := d.peers[m.From], wire.ReplHeartbeat{From: d.cfg.Index, State: d.state.Clone()}
	d.mu.Unlock()
	// Acknowledge with our new state vector so the sender's K-stability
	// frontier advances promptly even without further traffic.
	if len(ready) > 0 && ackTo != "" {
		_ = d.node.Send(ackTo, ack)
	}
}

// knownLocked reports whether this DC has recorded dot, or committed it and
// is waiting to record it.
func (d *DC) knownLocked(dot vclock.Dot) bool {
	_, recorded := d.byDot[dot]
	_, committed := d.unrecorded[dot]
	return recorded || committed
}

// --- edge subscriptions and pushes ---

// subscribe registers or extends an interest set and returns base versions
// of the requested objects at the subscriber's stable cut.
func (d *DC) subscribe(m wire.Subscribe) any {
	// In partial mode the requested buckets must be live here before
	// interest registers: serving a seed for a bucket this DC does not hold
	// would hand the subscriber "empty at cut" for state that exists
	// elsewhere. A live bucket stays live, so nothing can undo the ensure
	// before the registration below. A failed backfill fails the subscribe;
	// the edge retries.
	if err := d.EnsureBuckets(bucketsOfIDs(m.Objects)...); err != nil {
		return nil
	}
	// Registration is one d.mu section: install or extend the subscription,
	// register interest, place it in its interest shard, decide where its
	// push stream continues (resumeLocked — which also serves a resume's
	// range reply) and materialise the seeds.
	d.mu.Lock()
	defer d.mu.Unlock()
	sub := d.subs[m.Node]
	if sub == nil {
		sub = &subscription{node: m.Node, interest: make(map[txn.ObjectID]bool)}
		d.subs[m.Node] = sub
	}
	if m.Relay {
		sub.relay = true // sticky for the subscription's lifetime
	}
	for _, id := range m.Objects {
		sub.interest[id] = true
	}
	// Seeds are materialised at the *current* stable cut, and the scan is
	// brought up to that cut first: the position handed back is then the
	// frontier the seeds cover, and everything past it reaches the subscriber
	// as frames.
	seedCut := d.Stable()
	var ack wire.SubscribeAck
	if !d.closed {
		// (Re)place in the interest shard matching the possibly-extended
		// signature.
		d.fan.place(sub)
		d.fan.scan(seedCut, false)
		ack.Gen, ack.Cursor = d.resumeLocked(sub, m)
	}
	if !m.Resume && m.Gen != ack.Gen {
		// A subscriber with no position in this generation adopts the one the
		// ack carries — the frontier — and may adopt the frontier's cut with
		// it. Any other learns cuts only from the in-order frames that carry
		// them: the DC does not know what it has integrated.
		ack.Stable = seedCut
	}
	for _, id := range m.Objects {
		// Per bucket, the seed cut is lifted to at least the bucket's
		// seed/advance floor: a backfilled or per-bucket-advanced base may
		// hold effects above the global stable cut, and the advertised vector
		// must cover everything the state contains.
		ack.Objects = append(ack.Objects, d.materialize(id, d.seedCutFor(id.Bucket, seedCut)))
	}
	return ack
}

// dropSubLocked removes a subscription from the DC and from its interest
// shard. Called with d.mu held.
func (d *DC) dropSubLocked(sub *subscription) {
	delete(d.subs, sub.node)
	d.fan.remove(sub)
}

// unsubscribe shrinks an interest set (or drops the subscription entirely
// when no objects remain).
func (d *DC) unsubscribe(m wire.Unsubscribe) {
	d.mu.Lock()
	defer d.mu.Unlock()
	sub := d.subs[m.Node]
	if sub == nil {
		return
	}
	if len(m.Objects) == 0 {
		d.dropSubLocked(sub)
		return
	}
	for _, id := range m.Objects {
		delete(sub.interest, id)
	}
	if len(sub.interest) == 0 {
		d.dropSubLocked(sub)
	} else if !d.closed {
		// The signature may have shrunk: move to the narrower shard so
		// shared frames stop carrying the dropped buckets.
		d.fan.place(sub)
	}
}

// fetchObject serves a cache miss. When the requester supplies its
// transaction snapshot (At), the object is materialised at exactly that cut
// so the read joins the transaction's snapshot atomically; when the push
// stream is already past that cut, the updates above it are sent again as a
// direct range frame — duplicates are filtered by dot and base vectors.
// Without a usable At the DC serves its stable cut.
func (d *DC) fetchObject(requester string, id txn.ObjectID, at vclock.Vector) any {
	if err := d.EnsureBuckets(id.Bucket); err != nil {
		// Serving "empty at cut" for a bucket this DC cannot backfill would
		// poison the requester's cache; fail the fetch instead.
		return nil
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	cut := d.Stable()
	if at.LEQ(d.state) {
		// An empty At (a client with no state yet) correctly gets the
		// initial cut: serving anything newer could tear the client's
		// first transaction.
		cut = at.Clone()
	}
	// Lift to the bucket's seed/advance floor (partial mode): the base may
	// hold effects above the requested cut, and the advertised vector must
	// cover them. A cut above the requester's snapshot resolves downstream
	// exactly like a stable-cut serve would (retry against a fresher
	// snapshot).
	cut = d.seedCutFor(id.Bucket, cut)
	if sub := d.subs[requester]; sub != nil {
		// Register interest under the same lock that serves the state:
		// otherwise the push stream could pass a transaction touching this
		// object between the fetch and the (asynchronous) subscription,
		// losing it for good.
		sub.interest[id] = true
		if !d.closed {
			// The fetched bucket joins the signature. What the stream has
			// already routed above the served cut — to a shard the requester
			// was not in, or to a cache that did not hold the object yet —
			// goes out again for the new signature; a requester whose cursor
			// is behind the range refuses it and resumes, which covers it too.
			d.fan.place(sub)
			if idx, stable := d.fan.frontier(); !stable.LEQ(cut) {
				d.sendRangeLocked(sub, min(d.logIdxAtLocked(cut), idx), idx, stable, false)
			}
		}
	}
	return d.materialize(id, cut)
}

// materialize materialises the object state at the given cut. It reads only
// the coordinator, so the caller need not hold d.mu. The store hands back a
// sealed snapshot shared with its materialisation cache, so fanning the same
// state out to many subscribers costs no copies; the receiving side seeds
// its own store from it (Seed clones) or reads it immutably.
func (d *DC) materialize(id txn.ObjectID, at vclock.Vector) wire.ObjectState {
	obj, err := d.coord.Read(id, at, store.ReadOptions{})
	if err != nil {
		return wire.ObjectState{ID: id, Vec: at.Clone()}
	}
	return wire.ObjectState{ID: id, Kind: obj.Kind(), Object: obj, Vec: at.Clone()}
}

// notifySubscribersLocked propagates the newly K-stable visible suffix of the
// history to subscribers, in causal (record) order. The scan stops at the
// first not-yet-stable visible transaction so pushes never reorder causally
// related updates.
//
// The whole subscriber population costs one fanout scan: each new
// transaction is routed to the interest shards whose bucket set it touches,
// and the bounded shard-worker pool filters, seals and ships one frame per
// shard outside d.mu. broadcast marks stability-only triggers (heartbeat
// tick, gossip receipt): only then is a pure cut advance fanned to every
// shard — between broadcasts, subscribers learn new cuts from the frames that
// carry their transactions.
func (d *DC) notifySubscribersLocked(broadcast bool) {
	if len(d.subs) == 0 {
		return
	}
	d.fan.scan(d.Stable(), broadcast)
}

// --- migrated transactions (paper §3.9) ---

// runMigrated executes a transaction shipped from an edge node against this
// DC, at the client's own snapshot. The transaction body arrives either as a
// local closure (simnet) or as a registered program name plus arguments (the
// wire form); Touches carries the migrating user's interest set so a partial
// DC backfills exactly those buckets before the body runs.
func (d *DC) runMigrated(m wire.MigratedTx) any {
	fn := m.Fn
	if fn == nil {
		prog, ok := wire.LookupProgram(m.Name)
		if !ok {
			return wire.MigratedTxAck{Err: fmt.Sprintf("dc: unknown migrated program %q", m.Name)}
		}
		args := m.Args
		fn = func(read wire.TxReader, update wire.TxUpdater) error {
			return prog(args, read, update)
		}
	}
	if err := d.EnsureBuckets(bucketsOfIDs(m.Touches)...); err != nil {
		return wire.MigratedTxAck{Err: err.Error()}
	}
	d.mu.Lock()
	snap := m.Snapshot.Clone()
	if snap == nil {
		// A cloud client without local state reads the DC's current state.
		snap = d.state.Clone()
	} else if !m.Snapshot.LEQ(d.state) {
		d.mu.Unlock()
		return wire.MigratedTxAck{Err: ErrIncompatible.Error()}
	}
	dot := vclock.Dot{Node: d.cfg.Name, Seq: d.lamport.Next()}
	d.mu.Unlock()

	t := &Tx{dc: d, dot: dot, snapshot: snap, actor: m.Actor}
	read := func(id txn.ObjectID) (crdt.Object, error) { return t.Read(id) }
	update := func(id txn.ObjectID, kind crdt.Kind, op crdt.Op) error {
		t.Update(id, kind, op)
		return nil
	}
	if err := fn(read, update); err != nil {
		return wire.MigratedTxAck{Err: err.Error()}
	}
	stamps, err := t.Commit()
	if err != nil {
		return wire.MigratedTxAck{Err: err.Error()}
	}
	return wire.MigratedTxAck{Commit: stamps}
}

// --- maintenance ---

// RecheckVisibility re-evaluates the visibility of every recorded
// transaction against the current check — called after a security-policy
// change, since ACL updates can retroactively mask (or unmask) versions
// (paper §5.3: the policy exposes "a variable-size window" of the TCC+
// store). Records are re-marked in place, in record order, and the push
// stream starts a new generation.
func (d *DC) RecheckVisibility() {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.resetMaskLocked()
	for i := range d.hist {
		d.hist[i].masked = d.maskLocked(d.hist[i].t)
	}
	// Retroactively unmasked transactions were never delivered, and queued
	// shard segments may hold transactions the new policy masks: the fan-out
	// starts a new generation from position zero and the rescan below
	// re-routes everything still visible. Every subscriber refuses the new
	// generation's frames, resumes, and is replayed the history from the
	// start (it deduplicates by dot).
	d.fan.reset()
	d.notifySubscribersLocked(false)
}

// Compact folds journal entries below the current stable cut into base
// versions on every shard (paper §4.1). Dots are retained so duplicate
// filtering keeps working across migrations. Partial mode folds per bucket,
// each at its own K-stability frontier.
func (d *DC) Compact() error {
	if d.partial {
		return d.coord.AdvanceBuckets(d.bucketCutFor)
	}
	return d.coord.Advance(d.Stable(), true)
}

// MaxJournalLen reports the longest object journal across the DC's storage
// shards — the figure AutoAdvanceThreshold bounds (exposed for tests and
// monitoring).
func (d *DC) MaxJournalLen() int {
	return d.coord.MaxJournalLen()
}

// LogLen reports the number of visible transactions recorded at this DC
// (exposed for tests and monitoring).
func (d *DC) LogLen() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return len(d.hist) - d.nMasked
}

// MaskedCount reports how many transactions the visibility check has masked.
func (d *DC) MaskedCount() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.nMasked
}

// ReadAt materialises an object at an arbitrary cut (used by tests and the
// benchmark harness).
func (d *DC) ReadAt(id txn.ObjectID, at vclock.Vector) (crdt.Object, error) {
	return d.coord.Read(id, at, store.ReadOptions{})
}
