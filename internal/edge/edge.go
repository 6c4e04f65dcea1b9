// Package edge implements a Colony far-edge node (paper §3.7, §3.8, §4.2):
// a client device that caches its interest set locally, commits transactions
// asynchronously — immediately and locally, with the concrete commit vector
// assigned later by the connected DC — works offline, and can migrate
// between DCs without losing the TCC+ guarantees.
package edge

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"colony/internal/crdt"
	"colony/internal/obs"
	"colony/internal/store"
	"colony/internal/transport"
	"colony/internal/txn"
	"colony/internal/vclock"
	"colony/internal/wire"
)

// Errors returned by the edge API.
var (
	ErrClosed      = errors.New("edge: node closed")
	ErrUnavailable = errors.New("edge: object not cached and the connected DC is unreachable")
	ErrDone        = errors.New("edge: transaction already finished")
)

// ReadSource classifies where a read was served from — the hit classes the
// paper's Figures 5–7 plot.
type ReadSource int

// The read sources.
const (
	SourceCache ReadSource = iota + 1 // local cache hit
	SourceGroup                       // peer group collaborative cache
	SourceDC                          // remote fetch from the connected DC
)

// String names the source.
func (s ReadSource) String() string {
	switch s {
	case SourceCache:
		return "cache"
	case SourceGroup:
		return "group"
	case SourceDC:
		return "dc"
	default:
		return fmt.Sprintf("source(%d)", int(s))
	}
}

// Fetcher resolves a cache miss at (or compatibly near) the given snapshot
// cut. The default fetcher asks the connected DC; peer groups install one
// that tries the collaborative cache first.
type Fetcher func(id txn.ObjectID, at vclock.Vector) (wire.ObjectState, ReadSource, error)

// CommitHook intercepts locally committed transactions. The default pipeline
// queues them for the connected DC; a peer group redirects them through
// EPaxos and its sync point.
type CommitHook func(t *txn.Transaction)

// Config configures an edge node.
type Config struct {
	// Name is the node's network name (unique; also the dot namespace).
	Name string
	// Actor is the authenticated user, stamped on transactions for ACL
	// checks.
	Actor string
	// DC is the connected DC's node name.
	DC string
	// CallTimeout bounds each RPC to the DC (default 2s).
	CallTimeout time.Duration
	// RetryInterval paces the commit sender's retries while the DC is
	// unreachable (default 50ms).
	RetryInterval time.Duration
	// MaxUnacked bounds the asynchronous commit pipeline: Commit blocks
	// while this many local transactions await their DC acknowledgement
	// (0 = unbounded). The bound models a device's finite commit-log buffer
	// and creates back-pressure when the DC falls behind.
	MaxUnacked int
	// AutoAdvanceThreshold lets the local store fold journal entries below
	// the node's stable vector into its base versions in the background
	// whenever an object's journal outgrows this many entries, bounding
	// memory on long-lived cache entries. 0 disables.
	AutoAdvanceThreshold int
	// Obs attaches the deployment's observability registry: the node records
	// edge.* counters, commit→ack and commit→K-stable latency histograms,
	// and lifecycle events, and its store records store.* metrics. Nil
	// disables instrumentation at near-zero cost.
	Obs *obs.Registry
}

// Hooks bundles every interception point of an edge node. The group layer
// (and tests) install them in one call instead of through six separate
// setters; unset fields select the default behaviour. SetHooks replaces the
// whole set atomically, so a caller that wants to change one hook while
// keeping others must pass the full desired set (read the current set with
// Hooks first if needed).
type Hooks struct {
	// Commit intercepts locally committed transactions; the default
	// pipeline queues them for the connected DC, a peer group redirects
	// them through EPaxos and its sync point.
	Commit CommitHook
	// Fetch overrides cache-miss resolution (collaborative cache); the
	// default asks the connected DC.
	Fetch Fetcher
	// Extra handles messages the edge layer does not understand
	// (peer-group and consensus traffic addressed to this node).
	Extra func(from string, msg any) any
	// Push runs after every integrated push batch, once per frame and in the
	// order the frames were integrated (integration is serialised around it,
	// so it must not call ApplyPush); a group parent forwards stable updates
	// to its members with it.
	Push func(wire.PushTxs)
	// Ack runs after every DC commit acknowledgement; a group parent (sync
	// point) distributes concrete commit descriptors with it.
	Ack func(wire.EdgeCommitAck)
	// ReadFilter masks transactions from this node's reads — the edge's
	// local ACL check (paper §6.4).
	ReadFilter func(*txn.Transaction) bool
}

// Stats are cumulative counters exposed for experiments.
type Stats struct {
	Reads       int64
	CacheHits   int64
	GroupHits   int64
	DCFetches   int64
	TxCommitted int64
	TxAcked     int64
	TxNacked    int64
}

// nodeCounters are the node's live counters. They are atomics — read paths
// bump them without taking the node lock, and Stats() assembles a consistent
// enough snapshot from racing readers without data races.
type nodeCounters struct {
	reads       atomic.Int64
	cacheHits   atomic.Int64
	groupHits   atomic.Int64
	dcFetches   atomic.Int64
	txCommitted atomic.Int64
	txAcked     atomic.Int64
	txNacked    atomic.Int64
}

// commitTrack follows one locally committed transaction through the
// lifecycle the paper measures: local commit → DC acknowledgement (concrete
// commit vector cv) → K-stability (cv below the node's stable cut).
type commitTrack struct {
	at    time.Time
	cv    vclock.Vector
	acked bool
}

// maxTracked bounds the latency-tracking map; commits beyond the bound are
// simply not measured (the histograms sample, they do not need every tx).
const maxTracked = 4096

// resyncAfter is how long a node with interest lets its DC's push stream stay
// silent before it asks for everything after its cursor — a frame that never
// arrived leaves no gap to notice — and the pause it keeps between two
// resumes that made no progress.
const resyncAfter = 2 * time.Second

// Node is one edge device.
type Node struct {
	cfg  Config
	node transport.Conn

	mu      sync.Mutex
	closed  bool
	lamport vclock.Lamport
	st      *store.Store
	state   vclock.Vector // LUB of received stable cuts and acked local commits
	// stateSnap is the epoch snapshot Begin hands to transactions: a clone
	// of state taken lazily once per state change instead of once per
	// transaction. It is shared (read-only) by every Tx begun in the epoch
	// and invalidated by joinState.
	stateSnap vclock.Vector
	stable    vclock.Vector // K-stable cut received from the DC
	acked     vclock.Vector // LUB of concrete commit vectors of own acked txs
	interest  map[txn.ObjectID]bool
	unacked   []*txn.Transaction
	connected string
	// push is this node's position in the connected DC's push stream
	// (paper §4.2: the edge carries its own position). A sequenced frame is
	// integrated only when it connects to it; heard is when the stream last
	// gave a sign of life. resync marks that a frame did not connect;
	// resyncAt/resyncFrom record the last resume, to pace futile ones.
	push       wire.PushCursor
	heard      time.Time
	resync     bool
	resyncAt   time.Time
	resyncFrom wire.PushCursor
	hooks      Hooks
	listeners  map[txn.ObjectID][]func(txn.ObjectID)
	stats      nodeCounters
	// tracked follows in-flight local commits for the latency histograms;
	// nil when no registry is attached (the commit path then skips it).
	tracked map[vclock.Dot]*commitTrack
	// failStreak/nextTry implement the commit pipeline's backoff.
	failStreak int
	nextTry    time.Time

	// Instrumentation handles (nil-safe no-ops without a registry).
	obsReads     *obs.Counter
	obsCacheHits *obs.Counter
	obsGroupHits *obs.Counter
	obsDCFetches *obs.Counter
	obsCommitted *obs.Counter
	obsAcked     *obs.Counter
	obsNacked    *obs.Counter
	obsFetchMiss *obs.Counter
	ackLat       *obs.Histogram
	kstableLat   *obs.Histogram
	bus          *obs.Bus

	// relays are the tree-multicast child tables installed by the DC
	// (wire.TreeAssign): on a TreePush for a (DC, shard) pair at the
	// matching epoch, this node re-fans the frame out to the listed
	// children. Guarded by relayMu (not n.mu: forwarding must not contend
	// with the local apply path).
	relayMu sync.Mutex
	relays  map[relayKey]relayEntry

	obsRelayFwd  *obs.Counter
	obsRelayDrop *obs.Counter
	obsResyncs   *obs.Counter

	// applyMu serialises push integration, so frames are applied and
	// Hooks.Push runs in stream order even when a relayed and a direct frame
	// arrive on different links at once. Taken before mu.
	applyMu sync.Mutex

	kick chan struct{}
	stop chan struct{}
	done chan struct{}
}

// relayKey names one subtree this node roots: the owning DC and its compact
// shard id.
type relayKey struct {
	from  string
	shard uint64
}

// relayEntry is the child table for one subtree at one epoch.
type relayEntry struct {
	epoch    uint64
	children []string
}

// New creates an edge node and registers it on the network. Call Connect to
// attach it to its DC, and Close when done.
func New(net transport.Network, cfg Config) *Node {
	if cfg.CallTimeout <= 0 {
		cfg.CallTimeout = 2 * time.Second
	}
	if cfg.RetryInterval <= 0 {
		cfg.RetryInterval = 50 * time.Millisecond
	}
	st := store.New(cfg.Name)
	st.SetCacheMode(true)
	n := &Node{
		cfg:       cfg,
		st:        st,
		interest:  make(map[txn.ObjectID]bool),
		connected: cfg.DC,
		listeners: make(map[txn.ObjectID][]func(txn.ObjectID)),
		relays:    make(map[relayKey]relayEntry),
		kick:      make(chan struct{}, 1),
		stop:      make(chan struct{}),
		done:      make(chan struct{}),
	}
	n.obsReads = cfg.Obs.Counter("edge.reads")
	n.obsCacheHits = cfg.Obs.Counter("edge.cache_hits")
	n.obsGroupHits = cfg.Obs.Counter("edge.group_hits")
	n.obsDCFetches = cfg.Obs.Counter("edge.dc_fetches")
	n.obsCommitted = cfg.Obs.Counter("edge.tx_committed")
	n.obsAcked = cfg.Obs.Counter("edge.tx_acked")
	n.obsNacked = cfg.Obs.Counter("edge.tx_nacked")
	n.obsFetchMiss = cfg.Obs.Counter("edge.fetch_miss")
	n.obsRelayFwd = cfg.Obs.Counter("edge.relay_forwards")
	n.obsRelayDrop = cfg.Obs.Counter("edge.relay_drops")
	n.obsResyncs = cfg.Obs.Counter("edge.push_resyncs")
	n.ackLat = cfg.Obs.Histogram("edge.commit_to_ack_ns")
	n.kstableLat = cfg.Obs.Histogram("edge.commit_to_kstable_ns")
	n.bus = cfg.Obs.Events()
	if cfg.Obs != nil {
		n.tracked = make(map[vclock.Dot]*commitTrack)
		cfg.Obs.RegisterGauge("edge.unacked", obs.AggSum, func() int64 {
			return int64(n.UnackedCount())
		})
		st.SetObs(cfg.Obs)
	}
	if cfg.AutoAdvanceThreshold > 0 {
		st.SetAutoAdvance(store.AdvancePolicy{
			JournalThreshold: cfg.AutoAdvanceThreshold,
			// Fold up to the node's stable cut; keep dots so resumed or
			// migrated deliveries stay deduplicated.
			Cut:      n.StableVector,
			KeepDots: true,
		})
	}
	n.node = net.AddNode(cfg.Name, n.handle)
	go n.senderLoop()
	return n
}

// Close stops the node's background sender.
func (n *Node) Close() {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return
	}
	n.closed = true
	n.mu.Unlock()
	close(n.stop)
	<-n.done
}

// Name returns the node's network name.
func (n *Node) Name() string { return n.cfg.Name }

// Actor returns the node's authenticated user.
func (n *Node) Actor() string { return n.cfg.Actor }

// Store exposes the node's versioned store to the group layer.
func (n *Node) Store() *store.Store { return n.st }

// Send transmits an arbitrary message from this node (used by the group
// layer for peer-to-peer and consensus traffic).
func (n *Node) Send(to string, msg any) error { return n.node.Send(to, msg) }

// Call performs a request/response exchange from this node.
func (n *Node) Call(ctx context.Context, to string, msg any) (any, error) {
	return n.node.Call(ctx, to, msg)
}

// State returns the node's state vector (paper §4.2: the LUB of the state
// received from the connected DC and the commit vectors of local
// transactions).
func (n *Node) State() vclock.Vector {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.state.Clone()
}

// joinState folds v into the node's state vector and invalidates the Begin
// epoch snapshot (transactions begun before the change keep reading the old
// epoch's shared clone). Callers hold n.mu.
func (n *Node) joinState(v vclock.Vector) {
	n.state = n.state.Join(v)
	n.stateSnap = nil
}

// StableVector returns the K-stable cut last received.
func (n *Node) StableVector() vclock.Vector {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.stable.Clone()
}

// MaxJournalLen reports the longest object journal in the local cache — the
// figure Config.AutoAdvanceThreshold bounds (exposed for tests and
// monitoring).
func (n *Node) MaxJournalLen() int { return n.st.MaxJournalLen() }

// ConnectedDC returns the currently connected DC's node name.
func (n *Node) ConnectedDC() string {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.connected
}

// Stats returns a snapshot of the node's counters. Counters are atomics, so
// the snapshot is race-clean even against concurrent readers and committers.
func (n *Node) Stats() Stats {
	return Stats{
		Reads:       n.stats.reads.Load(),
		CacheHits:   n.stats.cacheHits.Load(),
		GroupHits:   n.stats.groupHits.Load(),
		DCFetches:   n.stats.dcFetches.Load(),
		TxCommitted: n.stats.txCommitted.Load(),
		TxAcked:     n.stats.txAcked.Load(),
		TxNacked:    n.stats.txNacked.Load(),
	}
}

// Obs returns the node's observability registry (nil when none attached).
func (n *Node) Obs() *obs.Registry { return n.cfg.Obs }

// UnackedCount reports how many local transactions still await a concrete
// commit vector.
func (n *Node) UnackedCount() int {
	n.mu.Lock()
	defer n.mu.Unlock()
	return len(n.unacked)
}

// SetHooks atomically replaces the node's entire hook set. Unset fields fall
// back to the default behaviour; to clear every customisation pass the zero
// Hooks. This is the single installation point
// for hooks; the group layer installs its whole set in one call.
func (n *Node) SetHooks(h Hooks) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.hooks = h
}

// Hooks returns the currently installed hook set (for read-modify-write
// updates of a single field).
func (n *Node) Hooks() Hooks {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.hooks
}

// EnqueueForDC queues an externally managed transaction (a group-visible
// transaction at the sync point) for the asynchronous DC commit pipeline.
// The transaction must already be applied to this node's store.
func (n *Node) EnqueueForDC(t *txn.Transaction) {
	n.mu.Lock()
	n.unacked = append(n.unacked, t)
	n.mu.Unlock()
	n.kickSender()
}

// ApplyGroupTx integrates a transaction ordered by the group's consensus:
// the store journals it and marks it group-visible in one step, so from here
// on every read at this node sees it in addition to the snapshot cut, for as
// long as the store holds it — also after the node leaves the group (paper
// §5.1.4; rollback freedom, §5.2). Idempotent: a dot the store already holds
// is only marked (and its commit stamps absorbed). The store skips updates
// to objects this cache does not hold; update listeners fire for the rest.
func (n *Node) ApplyGroupTx(shared *txn.Transaction) {
	t := shared.Clone() // the caller's record fans out to many stores
	n.mu.Lock()
	n.lamport.Witness(t.Dot.Seq)
	var fns []boundListener
	if err := n.st.ApplyGroupVisible(t); err == nil {
		touched := make(map[txn.ObjectID]bool)
		for _, id := range t.Objects() {
			touched[id] = true
		}
		fns = n.listenersFor(touched)
	}
	n.mu.Unlock()
	for _, fn := range fns {
		fn.fn(fn.id)
	}
}

// Promote records a concrete commit descriptor decided by a DC for a
// transaction in this node's store (distributed by the sync point), and
// advances the node's vectors.
func (n *Node) Promote(dot vclock.Dot, dcIdx int, ts uint64, stable vclock.Vector) {
	n.mu.Lock()
	defer n.mu.Unlock()
	_ = n.st.Promote(dot, dcIdx, ts)
	if t, ok := n.st.Transaction(dot); ok {
		if cv, ok := t.CommitVector(); ok {
			n.joinState(cv)
			if t.Origin == n.cfg.Name {
				n.acked = n.acked.Join(cv)
				n.observeAckLocked(dot, cv)
			}
		}
	}
	n.stable = n.stable.Join(stable)
	n.joinState(n.stable)
	n.sweepStableLocked()
}

// observeAckLocked records the commit→acknowledgement latency for a tracked
// local commit: the moment its concrete commit vector cv became known
// (directly from the DC ack, or distributed by a group sync point). The
// vector is kept so the K-stability sweep can tell when the transaction
// drops below the stable cut. Caller holds n.mu.
func (n *Node) observeAckLocked(dot vclock.Dot, cv vclock.Vector) {
	tr := n.tracked[dot]
	if tr == nil || tr.acked {
		return
	}
	tr.acked = true
	tr.cv = cv.Clone()
	d := time.Since(tr.at)
	n.ackLat.Observe(int64(d))
	if n.bus.Active() {
		n.bus.Publish(obs.Event{Type: obs.EvTxPromoted, Node: n.cfg.Name, Dur: d})
	}
}

// sweepStableLocked completes the lifecycle of tracked commits whose concrete
// commit vector sits below the (freshly advanced) stable cut: they are now
// K-stable, so their commit→K-stable latency lands in the histogram. Called
// everywhere n.stable advances; caller holds n.mu.
func (n *Node) sweepStableLocked() {
	if len(n.tracked) == 0 {
		return
	}
	for dot, tr := range n.tracked {
		if tr.cv == nil || !tr.cv.LEQ(n.stable) {
			continue
		}
		d := time.Since(tr.at)
		n.kstableLat.Observe(int64(d))
		delete(n.tracked, dot)
		if n.bus.Active() {
			n.bus.Publish(obs.Event{Type: obs.EvTxKStable, Node: n.cfg.Name, Dur: d})
		}
	}
}

// OnUpdate subscribes a callback fired whenever the object changes (local
// commit or remote update) — the reactive-programming hook of the paper's
// API (§6.1).
func (n *Node) OnUpdate(id txn.ObjectID, fn func(txn.ObjectID)) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.listeners[id] = append(n.listeners[id], fn)
}

// Connect subscribes the node to its configured DC and initialises the
// stability cut. It is also used to re-attach after a disconnection.
func (n *Node) Connect() error {
	n.mu.Lock()
	dc := n.connected
	ids := make([]txn.ObjectID, 0, len(n.interest))
	for id := range n.interest {
		ids = append(ids, id)
	}
	since := n.stable.Clone()
	n.mu.Unlock()
	return n.subscribe(dc, ids, true, since, 3)
}

// Migrate detaches the node from its current DC and attaches it to newDC
// (paper §3.8). Unacknowledged transactions are re-sent to the new DC; dots
// filter the duplicates if the old DC had already accepted them.
func (n *Node) Migrate(newDC string) error {
	n.mu.Lock()
	old, oldPush := n.connected, n.push
	// The cursor belongs to the DC it came from; at the new one the resume
	// goes by Since and the ack says where the stream continues.
	n.connected, n.push = newDC, wire.PushCursor{}
	ids := make([]txn.ObjectID, 0, len(n.interest))
	for id := range n.interest {
		ids = append(ids, id)
	}
	since := n.stable.Clone()
	n.mu.Unlock()
	if n.bus.Active() {
		n.bus.Publish(obs.Event{Type: obs.EvMigrationStarted, Node: n.cfg.Name, Peer: newDC})
	}
	if err := n.subscribe(newDC, ids, true, since, 3); err != nil {
		// Roll back to the previous DC on failure; the caller may retry.
		n.mu.Lock()
		n.connected, n.push = old, oldPush
		n.mu.Unlock()
		return fmt.Errorf("edge: migrate to %s: %w", newDC, err)
	}
	if n.bus.Active() {
		n.bus.Publish(obs.Event{Type: obs.EvMigrationFinished, Node: n.cfg.Name, Peer: newDC})
	}
	n.kickSender()
	return nil
}

// AddInterest declares interest in objects, pulling them into the cache
// (paper §4.2). kind seeds fresh objects the system has never stored.
func (n *Node) AddInterest(ids ...txn.ObjectID) error {
	n.mu.Lock()
	dc := n.connected
	since := n.stable.Clone()
	n.mu.Unlock()
	return n.subscribe(dc, ids, true, since, 3)
}

// RemoveInterest evicts objects from the cache and unsubscribes them.
func (n *Node) RemoveInterest(ids ...txn.ObjectID) {
	n.mu.Lock()
	dc := n.connected
	for _, id := range ids {
		delete(n.interest, id)
		n.st.Evict(id)
	}
	n.mu.Unlock()
	_ = n.node.Send(dc, wire.Unsubscribe{Node: n.cfg.Name, Objects: ids})
}

// subscribe declares interest in ids at dc and, with resume, reports this
// node's position in the DC's push stream so that everything after it is
// sent. When the ack puts the node in another generation of the stream — a
// restarted or different DC, a rebuilt log, none of which can be relied on to
// know this node — the node adopts the position the ack derived from since
// and resumes once more from there, exactly, declaring the rest of its
// interest as it does.
func (n *Node) subscribe(dc string, ids []txn.ObjectID, resume bool, since vclock.Vector, attempts int) error {
	// A resume without any previous cut is just a fresh subscription; an
	// empty Since would anchor the subscription (and this node's stable
	// baseline) at the empty cut.
	resume = resume && len(since) > 0
	rebased, err := n.subscribeOnce(dc, ids, resume, since, attempts)
	if err != nil || !rebased || !resume {
		return err
	}
	declared := make(map[txn.ObjectID]bool, len(ids))
	for _, id := range ids {
		declared[id] = true
	}
	n.mu.Lock()
	var rest []txn.ObjectID
	for id := range n.interest {
		if !declared[id] {
			rest = append(rest, id)
		}
	}
	n.mu.Unlock()
	_, err = n.subscribeOnce(dc, rest, true, since, attempts)
	return err
}

// subscribeOnce performs one Subscribe RPC and integrates the reply; rebased
// reports that the ack moved this node to another generation of a sequenced
// stream. A timed-out call is retried up to attempts times in all:
// subscriptions are idempotent, and a momentarily overloaded DC should not
// fail session setup.
func (n *Node) subscribeOnce(dc string, ids []txn.ObjectID, resume bool, since vclock.Vector, attempts int) (rebased bool, err error) {
	n.mu.Lock()
	req := wire.Subscribe{
		Node: n.cfg.Name, Objects: ids, Resume: resume, Since: since,
		Gen: n.push.Gen, Cursor: n.push.Idx,
		// Edge nodes understand the tree frames and volunteer as relays.
		Relay: true,
	}
	n.mu.Unlock()
	var reply any
	for attempt := 0; attempt < attempts; attempt++ {
		ctx, cancel := context.WithTimeout(context.Background(), n.cfg.CallTimeout)
		reply, err = n.node.Call(ctx, dc, req)
		cancel()
		if err == nil || !errors.Is(err, context.DeadlineExceeded) {
			break
		}
	}
	if err != nil {
		return false, fmt.Errorf("edge: subscribe to %s: %w", dc, err)
	}
	ack, ok := reply.(wire.SubscribeAck)
	if !ok {
		return false, fmt.Errorf("edge: unexpected subscribe reply %T", reply)
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	for _, id := range ids {
		n.interest[id] = true
	}
	for _, st := range ack.Objects {
		if st.Object != nil && !n.st.Has(st.ID) {
			n.st.Seed(st.ID, st.Object, st.Vec, st.Folded...)
			// The node's cut must cover every base it holds, or a
			// transaction could read one object's base (which bakes in a
			// commit) while another object's journal entry for the same
			// commit is still below the snapshot — a torn, non-atomic read.
			n.joinState(st.Vec)
		}
	}
	n.stable = n.stable.Join(ack.Stable)
	n.joinState(n.stable)
	n.sweepStableLocked()
	if dc != n.connected {
		return false, nil
	}
	n.heard = time.Now()
	if ack.Gen == n.push.Gen {
		return false, nil // this node's own cursor is the authority
	}
	n.push = wire.PushCursor{Gen: ack.Gen, Idx: ack.Cursor}
	return ack.Gen != 0, nil
}

// --- message handling ---

func (n *Node) handle(from string, msg any) any {
	switch m := msg.(type) {
	case wire.PushTxs:
		n.ApplyPush(m)
		return nil
	case wire.TreeAssign:
		n.relayMu.Lock()
		key := relayKey{from: m.From, shard: m.Shard}
		if len(m.Children) == 0 {
			delete(n.relays, key)
		} else {
			n.relays[key] = relayEntry{epoch: m.Epoch, children: m.Children}
		}
		n.relayMu.Unlock()
		return nil
	case wire.TreePush:
		n.relayPush(m)
		return nil
	default:
		n.mu.Lock()
		extra := n.hooks.Extra
		n.mu.Unlock()
		if extra != nil {
			return extra(from, msg)
		}
		return nil
	}
}

// relayPush is the subtree-root half of tree multicast (paper §3.4): the DC
// sent the sealed shard frame here once, and this node re-fans it out to the
// children its current wire.TreeAssign table names, then applies the frame
// locally. It forwards and forgets: the frame goes out *before* and
// independently of this node's own cursor check, so the children's latency
// does not stack behind this node's store work and a relay that is itself
// behind still serves them; it is forwarded as a plain PushTxs
// (TreePush.Inner, sharing the sealed transaction run — no copies), so
// children need no tree awareness; and nothing is reported back — a child the
// forward did not reach notices at its own cursor. A missing or
// differently-versioned child table means a membership change is in flight:
// forwarding to a guessed set could skip a newly added sibling, so the node
// forwards nothing and the children resume from the DC.
func (n *Node) relayPush(m wire.TreePush) {
	n.relayMu.Lock()
	ent, ok := n.relays[relayKey{from: m.From, shard: m.Shard}]
	n.relayMu.Unlock()
	inner := m.Inner()
	if !ok || ent.epoch != m.Epoch {
		n.obsRelayDrop.Inc()
	} else {
		sent := len(ent.children)
		for _, err := range n.node.SendMulti(ent.children, inner) {
			if err != nil {
				sent--
			}
		}
		n.obsRelayFwd.Add(int64(sent))
	}
	n.ApplyPush(inner)
}

// ApplyPush integrates a batch of stable transactions (from the connected DC
// or, in a peer group, relayed by the sync point). Duplicates are filtered
// by dot.
//
// A sequenced frame (Gen != 0) is integrated only if it comes from the
// connected DC and connects to this node's cursor. One that does not — a gap
// (a frame was lost, or a direct frame overtook one still queued at a relay)
// or another log generation — is refused whole: not applied, its stable cut
// not adopted, Hooks.Push not called; the sender loop resumes from the
// cursor. So transactions are integrated in log order, and a stable cut only
// ever together with the in-order frame that carries it.
func (n *Node) ApplyPush(m wire.PushTxs) {
	n.applyMu.Lock()
	touched := make(map[txn.ObjectID]bool)
	n.mu.Lock()
	if m.Gen != 0 {
		ours := m.From == n.connected // else: the stream of a DC this node has left
		if ours {
			n.heard = time.Now()
		}
		if !ours || !n.push.Admit(m.Gen, m.Lo, m.Hi) {
			n.resync = n.resync || ours
			n.mu.Unlock()
			n.applyMu.Unlock()
			n.wake()
			return
		}
	}
	for _, shared := range m.Txs {
		// Clone before storing: the same message (and transaction pointer)
		// fans out to many receivers, and each store mutates its record's
		// commit stamps independently.
		t := shared.Clone()
		n.lamport.Witness(t.Dot.Seq)
		if err := n.st.Apply(t); err != nil {
			continue // duplicate or malformed
		}
		// Fire events for every touched object with a listener, cached or
		// not: the listener's read pulls an uncached object into the cache.
		for _, id := range t.Objects() {
			touched[id] = true
		}
	}
	n.stable = n.stable.Join(m.Stable)
	n.joinState(n.stable)
	n.sweepStableLocked()
	fns := n.listenersFor(touched)
	hook := n.hooks.Push
	n.mu.Unlock()
	if n.bus.Active() {
		n.bus.Publish(obs.Event{Type: obs.EvPushApplied, Node: n.cfg.Name, N: int64(len(m.Txs))})
	}
	if hook != nil {
		hook(m)
	}
	n.applyMu.Unlock()
	for _, fn := range fns {
		fn.fn(fn.id)
	}
}

// listener invocation plumbing: callbacks run outside the node lock.
type boundListener struct {
	id txn.ObjectID
	fn func(txn.ObjectID)
}

func (n *Node) listenersFor(touched map[txn.ObjectID]bool) []boundListener {
	var out []boundListener
	for id := range touched {
		for _, fn := range n.listeners[id] {
			out = append(out, boundListener{id: id, fn: fn})
		}
	}
	return out
}

// --- transactions ---

// Tx is an interactive transaction on the edge node. Reads come from the
// snapshot taken at Begin (plus the transaction's own updates); the commit
// is local and immediate, with the DC round-trip happening asynchronously.
type Tx struct {
	n        *Node
	dot      vclock.Dot
	snapshot vclock.Vector
	updates  []txn.Update
	done     bool
}

// Begin starts a transaction on the node's current state vector. The
// transaction's dot is minted here so that operations prepared against the
// transaction's own buffered updates (an RGA insert anchored on an element
// inserted earlier in the same transaction, for instance) reference the
// final update tags.
//
// The snapshot is the shared epoch clone of the state vector — one clone
// per state change rather than one per transaction. Transactions treat it
// as read-only (Commit clones it lazily, only when the transaction turns
// out to have writes).
func (n *Node) Begin() *Tx {
	n.mu.Lock()
	if n.stateSnap == nil {
		n.stateSnap = n.state.Clone()
	}
	snap := n.stateSnap
	dot := vclock.Dot{Node: n.cfg.Name, Seq: n.lamport.Next()}
	n.mu.Unlock()
	return &Tx{n: n, dot: dot, snapshot: snap}
}

// Read returns the object, resolving cache misses through the group/DC
// fetch path.
func (t *Tx) Read(id txn.ObjectID, kind crdt.Kind) (crdt.Object, error) {
	obj, _, err := t.ReadTracked(id, kind)
	return obj, err
}

// ReadTracked is Read plus the hit class, for experiments.
func (t *Tx) ReadTracked(id txn.ObjectID, kind crdt.Kind) (crdt.Object, ReadSource, error) {
	if t.done {
		return nil, 0, ErrDone
	}
	t.n.stats.reads.Add(1)
	t.n.obsReads.Inc()

	t.n.mu.Lock()
	mask := t.n.hooks.ReadFilter
	t.n.mu.Unlock()
	opts := store.ReadOptions{SelfVisible: true, Reject: mask}
	source := SourceCache
	obj, err := t.n.st.Read(id, t.snapshot, opts)
	if errors.Is(err, store.ErrNotFound) {
		obj, source, err = t.n.fetchMiss(id, kind, t.snapshot)
	}
	if err != nil {
		return nil, 0, err
	}
	switch source {
	case SourceCache:
		t.n.stats.cacheHits.Add(1)
		t.n.obsCacheHits.Inc()
	case SourceGroup:
		t.n.stats.groupHits.Add(1)
		t.n.obsGroupHits.Inc()
	case SourceDC:
		t.n.stats.dcFetches.Add(1)
		t.n.obsDCFetches.Inc()
	}
	// Read-your-writes within the transaction, under the final update tags.
	// The store hands out shared sealed snapshots; the first buffered update
	// forks one into a private copy-on-write view.
	for _, u := range t.updates {
		if u.Object != id {
			continue
		}
		if obj.Sealed() {
			obj = obj.Fork()
		}
		if err := obj.Apply(u.Meta(t.dot), u.Op); err != nil {
			return nil, 0, err
		}
	}
	return obj, source, nil
}

// fetchMiss pulls an object into the cache through the fetcher (group cache
// or connected DC) and registers interest in it. The transaction's snapshot
// travels with the fetch so the served version joins the snapshot without
// tearing it.
func (n *Node) fetchMiss(id txn.ObjectID, kind crdt.Kind, at vclock.Vector) (crdt.Object, ReadSource, error) {
	n.obsFetchMiss.Inc()
	n.mu.Lock()
	fetch := n.hooks.Fetch
	n.mu.Unlock()
	if fetch == nil {
		fetch = n.fetchFromDC
	}
	st, source, err := fetch(id, at)
	if err != nil {
		return nil, 0, fmt.Errorf("%w: %v", ErrUnavailable, err)
	}
	obj := st.Object
	if obj == nil {
		// The object has no state anywhere yet: it starts from the initial
		// state of its type.
		fresh, err := crdt.New(kind)
		if err != nil {
			return nil, 0, err
		}
		obj = fresh
	}
	n.mu.Lock()
	if !n.st.Has(id) {
		n.st.Seed(id, obj, st.Vec, st.Folded...)
		n.joinState(st.Vec) // see subscribe: bases stay ≤ state
	}
	n.interest[id] = true
	dc := n.connected
	name := n.cfg.Name
	n.mu.Unlock()
	// Register the subscription upstream; best-effort, the seed already
	// serves this transaction. Not a resume: the fetch itself registered the
	// interest at a DC and had the updates above the served cut sent again.
	_ = n.node.Send(dc, wire.Subscribe{Node: name, Objects: []txn.ObjectID{id}, Relay: true})
	// No clone: Seed stored its own sealed copy, and a sealed obj (served
	// from a shared snapshot) is read-safe — ReadTracked forks before any
	// buffered-update replay.
	return obj, source, nil
}

// fetchFromDC is the default cache-miss fetcher.
func (n *Node) fetchFromDC(id txn.ObjectID, at vclock.Vector) (wire.ObjectState, ReadSource, error) {
	n.mu.Lock()
	dc := n.connected
	n.mu.Unlock()
	ctx, cancel := context.WithTimeout(context.Background(), n.cfg.CallTimeout)
	defer cancel()
	reply, err := n.node.Call(ctx, dc, wire.FetchObject{ID: id, At: at})
	if err != nil {
		return wire.ObjectState{}, 0, err
	}
	st, ok := reply.(wire.ObjectState)
	if !ok {
		return wire.ObjectState{}, 0, fmt.Errorf("edge: unexpected fetch reply %T", reply)
	}
	return st, SourceDC, nil
}

// Update buffers one CRDT operation.
func (t *Tx) Update(id txn.ObjectID, kind crdt.Kind, op crdt.Op) {
	t.updates = append(t.updates, txn.Update{Object: id, Kind: kind, Op: op, Seq: len(t.updates)})
}

// Commit commits the transaction locally — immediately, without waiting for
// the DC (paper §3.7) — and schedules the asynchronous DC commit. It returns
// the transaction record (nil for read-only transactions).
func (t *Tx) Commit() (*txn.Transaction, error) {
	if t.done {
		return nil, ErrDone
	}
	t.done = true
	if len(t.updates) == 0 {
		return nil, nil
	}
	n := t.n
	// Back-pressure: bound the async pipeline (ignored in group mode, where
	// the group layer applies its own pending bound).
	if n.cfg.MaxUnacked > 0 {
		for {
			n.mu.Lock()
			if n.closed || n.hooks.Commit != nil || len(n.unacked) < n.cfg.MaxUnacked {
				break
			}
			n.mu.Unlock()
			time.Sleep(n.cfg.RetryInterval)
		}
		n.mu.Unlock()
	}
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return nil, ErrClosed
	}
	tx := &txn.Transaction{
		Dot:      t.dot,
		Origin:   n.cfg.Name,
		Actor:    n.cfg.Actor,
		Snapshot: t.snapshot.Clone(),
		Updates:  t.updates,
	}
	if err := n.st.Apply(tx); err != nil {
		n.mu.Unlock()
		return nil, err
	}
	n.stats.txCommitted.Add(1)
	n.obsCommitted.Inc()
	if n.tracked != nil && len(n.tracked) < maxTracked {
		n.tracked[tx.Dot] = &commitTrack{at: time.Now()}
	}
	hook := n.hooks.Commit
	touched := make(map[txn.ObjectID]bool, len(tx.Updates))
	for _, id := range tx.Objects() {
		n.interest[id] = true
		touched[id] = true
	}
	var fns []boundListener
	if hook == nil {
		n.unacked = append(n.unacked, tx)
	}
	fns = n.listenersFor(touched)
	// The canonical record stays in the store (its commit stamps and
	// snapshot keep evolving under the store lock); callers and the commit
	// hook get an independent snapshot of it.
	cp := tx.Clone()
	n.mu.Unlock()

	if n.bus.Active() {
		n.bus.Publish(obs.Event{Type: obs.EvTxCommitted, Node: n.cfg.Name})
	}
	if hook != nil {
		hook(cp)
	} else {
		n.kickSender()
	}
	for _, fn := range fns {
		fn.fn(fn.id)
	}
	return cp, nil
}

// --- asynchronous commit sender ---

func (n *Node) kickSender() {
	n.mu.Lock()
	n.failStreak = 0
	n.nextTry = time.Time{}
	n.mu.Unlock()
	n.wake()
}

// wake nudges the sender loop without touching the commit pipeline's backoff.
func (n *Node) wake() {
	select {
	case n.kick <- struct{}{}:
	default:
	}
}

// maybeResync is the push stream's one repair path, run from the sender loop:
// when a frame did not connect to the cursor, or the node holds interest and
// its DC's stream has been silent for resyncAfter, it resumes — a Subscribe
// reporting the cursor (and the stable cut, for a DC in another generation),
// answered by a range frame from there. At most one resume goes out per
// resyncAfter unless the last one moved the cursor (a bounded reply: ask on
// from the new position).
func (n *Node) maybeResync() {
	n.mu.Lock()
	now := time.Now()
	due := n.resync || (n.push.Gen != 0 && len(n.interest) > 0 && now.Sub(n.heard) >= resyncAfter)
	if !due || n.closed || (n.push == n.resyncFrom && now.Sub(n.resyncAt) < resyncAfter) {
		n.mu.Unlock()
		return
	}
	n.resync = false
	n.resyncAt, n.resyncFrom = now, n.push
	dc, since := n.connected, n.stable.Clone()
	n.mu.Unlock()
	n.obsResyncs.Inc()
	// One attempt: the check itself comes round again.
	if err := n.subscribe(dc, nil, true, since, 1); err != nil {
		n.mu.Lock()
		n.resync = true // unreachable: ask again once the pause is over
		n.mu.Unlock()
	}
}

// senderLoop ships locally committed transactions to the connected DC in
// order, resolving each transaction's symbolic snapshot with the concrete
// commit vectors of its predecessors just before sending. Unreachable DCs
// pause the pipeline; the retry ticker resumes it. The same wake-ups drive
// the push stream's resume check.
func (n *Node) senderLoop() {
	defer close(n.done)
	ticker := time.NewTicker(n.cfg.RetryInterval)
	defer ticker.Stop()
	for {
		select {
		case <-n.stop:
			return
		case <-n.kick:
		case <-ticker.C:
		}
		n.maybeResync()
		n.drainUnacked()
	}
}

// drainUnacked sends queued transactions until the queue empties or the DC
// stops answering. Failures back off exponentially (up to 64× the retry
// interval) so an unreachable DC is probed, not hammered.
func (n *Node) drainUnacked() {
	n.mu.Lock()
	wait := n.nextTry
	n.mu.Unlock()
	if time.Now().Before(wait) {
		return
	}
	for {
		n.maybeResync() // a long drain must not starve the push stream's repair
		n.mu.Lock()
		if n.closed || len(n.unacked) == 0 {
			n.mu.Unlock()
			return
		}
		head := n.unacked[0]
		dcName := n.connected
		acked := n.acked.Clone()
		n.mu.Unlock()

		cp, err := n.st.ResolveSnapshot(head.Dot, acked)
		if err != nil {
			// The transaction vanished from the store (compaction bug);
			// drop it rather than wedging the pipeline.
			n.mu.Lock()
			n.unacked = n.unacked[1:]
			n.mu.Unlock()
			continue
		}
		ctx, cancel := context.WithTimeout(context.Background(), n.cfg.CallTimeout)
		reply, err := n.node.Call(ctx, dcName, wire.EdgeCommit{Tx: cp})
		cancel()
		if err != nil {
			n.recordFailure()
			return // offline; retry after backoff
		}
		switch ack := reply.(type) {
		case wire.EdgeCommitAck:
			n.mu.Lock()
			n.failStreak = 0
			n.nextTry = time.Time{}
			ackHook := n.hooks.Ack
			if err := n.st.Promote(ack.Dot, ack.DCIndex, ack.Ts); err == nil {
				n.stats.txAcked.Add(1)
				n.obsAcked.Inc()
			}
			if t, ok := n.st.Transaction(ack.Dot); ok {
				if cv, ok := t.CommitVector(); ok {
					n.acked = n.acked.Join(cv)
					n.joinState(cv)
					n.observeAckLocked(ack.Dot, cv)
				}
			}
			n.stable = n.stable.Join(ack.Stable)
			n.joinState(n.stable)
			n.sweepStableLocked()
			if len(n.unacked) > 0 && n.unacked[0].Dot == ack.Dot {
				n.unacked = n.unacked[1:]
			}
			n.mu.Unlock()
			if ackHook != nil {
				ackHook(ack)
			}
		case wire.EdgeCommitNack:
			// Causal incompatibility with this DC (paper §3.8): the node is
			// effectively disconnected until it migrates or the DC catches
			// up. Keep the transaction queued and back off.
			n.stats.txNacked.Add(1)
			n.obsNacked.Inc()
			n.recordFailure()
			return
		default:
			return
		}
	}
}

// recordFailure grows the commit pipeline's backoff window.
func (n *Node) recordFailure() {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.failStreak < 6 {
		n.failStreak++
	}
	delay := n.cfg.RetryInterval << n.failStreak // up to 64× the interval
	n.nextTry = time.Now().Add(delay)
}

// Value reads an object's query value outside a transaction, at the node's
// current state (convenience for tests and examples).
func (n *Node) Value(id txn.ObjectID, kind crdt.Kind) (any, error) {
	tx := n.Begin()
	obj, err := tx.Read(id, kind)
	if err != nil {
		return nil, err
	}
	_, _ = tx.Commit()
	return obj.Value(), nil
}

// RunAtDC migrates a resource-hungry transaction to the connected DC for
// execution (paper §3.9). The DC executes fn at this node's state vector, so
// the effect is as if it ran locally; only performance differs. The closure
// form works only over transports that pass Go values (simnet); across real
// links use RunAtDCNamed.
func (n *Node) RunAtDC(fn func(read wire.TxReader, update wire.TxUpdater) error) (vclock.CommitStamps, error) {
	return n.migrate(wire.MigratedTx{Fn: fn})
}

// RunAtDCNamed migrates a transaction by program name: the DC resolves name
// in its wire.RegisterProgram registry and runs it with args. touches lists
// the object ids the program will access — the migrating user's interest set
// — so a partially replicating DC backfills exactly those buckets before the
// program runs. This is the wire-encodable migration form (works across the
// TCP mesh, satellite of ROADMAP item 4's interest-scoped migration).
func (n *Node) RunAtDCNamed(name string, args []byte, touches []txn.ObjectID) (vclock.CommitStamps, error) {
	return n.migrate(wire.MigratedTx{Name: name, Args: args, Touches: touches})
}

// migrate flushes the local pipeline, stamps the migration envelope with this
// node's snapshot, and ships it to the connected DC.
func (n *Node) migrate(m wire.MigratedTx) (vclock.CommitStamps, error) {
	n.mu.Lock()
	dcName := n.connected
	snap := n.state.Clone()
	unsent := len(n.unacked)
	n.mu.Unlock()
	// The DC must have received our local transactions first (§3.9); flush
	// the pipeline before shipping the code.
	if unsent > 0 {
		n.kickSender()
		deadline := time.Now().Add(n.cfg.CallTimeout)
		for time.Now().Before(deadline) {
			if n.UnackedCount() == 0 {
				break
			}
			time.Sleep(time.Millisecond)
		}
		if n.UnackedCount() > 0 {
			return nil, fmt.Errorf("edge: %w: local transactions not yet acknowledged", ErrUnavailable)
		}
		n.mu.Lock()
		snap = n.state.Clone()
		n.mu.Unlock()
	}
	ctx, cancel := context.WithTimeout(context.Background(), n.cfg.CallTimeout)
	defer cancel()
	m.Origin, m.Actor, m.Snapshot = n.cfg.Name, n.cfg.Actor, snap
	reply, err := n.node.Call(ctx, dcName, m)
	if err != nil {
		return nil, err
	}
	ack, ok := reply.(wire.MigratedTxAck)
	if !ok {
		return nil, fmt.Errorf("edge: unexpected reply %T", reply)
	}
	if ack.Err != "" {
		return nil, errors.New(ack.Err)
	}
	return ack.Commit, nil
}
