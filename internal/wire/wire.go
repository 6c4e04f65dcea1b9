// Package wire defines the messages exchanged between Colony nodes over the
// network substrate: DC↔DC replication, edge↔DC commits and subscriptions,
// and peer-group traffic. In the paper these ride RabbitMQ (between DCs) and
// WebRTC data channels (between peers); here every message has a stable binary
// encoding (codec.go) carried by the TCP mesh, and the same Go values are
// handed over in-process by simnet.
//
// Transactions inside messages are treated as immutable; senders clone
// before sending when they retain a mutable reference.
package wire

import (
	"time"

	"colony/internal/crdt"
	"colony/internal/txn"
	"colony/internal/vclock"
)

// --- DC ↔ DC replication ---

// ReplBatch replicates a run of committed transactions between DCs in one
// message. Txs are in the sender's commit (causal) order; State piggybacks
// the sender's current state vector for K-stability tracking (paper §3.8),
// once for the whole batch, so coalescing N transactions costs one vector
// clone instead of N. SentAt stamps the send time so the receiver can observe
// inter-DC propagation latency; the zero value disables the measurement. The
// per-peer sender goroutines (dc package) coalesce their outbox into these;
// anti-entropy retransmissions reuse the same type.
type ReplBatch struct {
	From   int // sender's DC index
	Txs    []*txn.Transaction
	State  vclock.Vector
	SentAt time.Time
	// WantSeq is the version of the *destination's* bucket interest set the
	// sender scoped this batch with (see BucketVec.Seq). Zero means the batch
	// was not scoped at all — every transaction carries its full update
	// payload — which is always safe to admit. A partially-replicating
	// receiver drops batches whose WantSeq predates its latest bucket
	// addition: such a batch may have stubbed a bucket that is now wanted,
	// and admitting it would advance the state vector past effects the
	// receiver never gets. Anti-entropy re-covers dropped batches once the
	// sender learns the new interest set.
	WantSeq uint64
}

// Units reports the number of logical messages the batch stands for, for the
// network substrate's batch-delivery accounting. Under partial replication
// stubs — transactions whose update payload was stripped because the
// destination does not hold their buckets — cost no WAN units beyond the
// batch itself: only payload-bearing transactions count, with a floor of one
// for the frame.
func (b ReplBatch) Units() int {
	n := 0
	for _, t := range b.Txs {
		if t != nil && len(t.Updates) > 0 {
			n++
		}
	}
	if n == 0 {
		return 1
	}
	return n
}

// ReplHeartbeat advertises a DC's state vector when there is no traffic, so
// K-stability keeps advancing.
type ReplHeartbeat struct {
	From  int
	State vclock.Vector
}

// BucketVec advertises a DC's bucket interest set for partial replication:
// which buckets it holds live (serving reads, counting toward per-bucket
// stability), which it is still backfilling (pending — peers should already
// send full payloads, but the bucket does not serve reads or count toward
// stability yet), and its current state vector. Seq versions the set: it is
// bumped on every change, and peers keep only the highest-Seq view per DC.
// Broadcast on every change and periodically from the heartbeat loop; also
// used as the Call reply to a BucketVec probe, so a joining DC can learn a
// peer's true interest set before deciding where to backfill from. A DC from
// which no BucketVec has ever been seen is treated as universal (holding every
// bucket): over-sending payloads to it is safe, merely unscoped.
type BucketVec struct {
	From    int
	Seq     uint64
	Live    []string
	Pending []string
	State   vclock.Vector
}

// BackfillReq asks a peer DC to materialise every object of one bucket at a
// consistent cut covering at least At (the requester's state when it marked
// the bucket pending). Sent as a Call; the reply is BackfillResp. The serving
// replica answers at its *own* current state — any consistent cut ≥ At works,
// because the requester journals concurrent full-payload transactions while
// pending and re-attaches them above the seeded base.
type BackfillReq struct {
	Bucket string
	At     vclock.Vector
}

// BackfillResp returns the materialised contents of one bucket. At is the
// consistent cut the objects were materialised at (the server's state vector
// at serve time). OK is false when the server cannot serve — it does not hold
// the bucket live, or its state does not yet cover the requested cut — and
// the requester should retry elsewhere or later.
type BackfillResp struct {
	Bucket  string
	At      vclock.Vector
	Objects []ObjectState
	OK      bool
	// NotLive distinguishes the two refusals: true means the serving DC does
	// not hold the bucket live at all (a requester hearing this from every
	// replica candidate may treat the bucket as genesis-empty); false with
	// OK unset means the server merely hasn't caught up to the requested
	// cut yet — a transient refusal worth retrying.
	NotLive bool
}

// --- edge ↔ DC ---

// EdgeCommit asks the connected DC to assign concrete commit timestamps to
// locally committed edge transactions (paper §3.7): Tx, then each of Next,
// in the edge's commit order — one uplink flight. The DC sequences them in
// that order and stops at the first it cannot accept. Sent as a Call; the
// reply is EdgeCommitAck or EdgeCommitNack.
type EdgeCommit struct {
	Tx   *txn.Transaction
	Next []*txn.Transaction
}

// Units implements Message: one per transaction of the flight.
func (m EdgeCommit) Units() int { return 1 + len(m.Next) }

// EdgeCommitAck carries the concrete commit descriptor back to the edge.
type EdgeCommitAck struct {
	Dot     vclock.Dot
	DCIndex int
	Ts      uint64
	// Stable is the DC's current K-stable vector, letting the edge advance
	// its visibility immediately.
	Stable vclock.Vector
	// Next acknowledges the flight's transactions after Tx that the DC
	// sequenced, in order: a prefix of EdgeCommit.Next. Its entries carry
	// Dot, DCIndex and Ts only; Stable above covers them all.
	Next []EdgeCommitAck
}

// Units implements Message: one per acknowledged transaction.
func (a EdgeCommitAck) Units() int { return 1 + len(a.Next) }

// EdgeCommitNack reports that the DC cannot accept the transaction because
// its snapshot depends on transactions the DC has not seen (causal
// incompatibility after migration, paper §3.8).
type EdgeCommitNack struct {
	Dot     vclock.Dot
	Missing vclock.Vector // the DC's state vector, for diagnostics
}

// Subscribe declares (or extends) an edge node's interest set. Sent as a
// Call; the reply is SubscribeAck.
type Subscribe struct {
	Node    string
	Objects []txn.ObjectID
	// Resume reports the subscriber's position in the push stream and asks
	// for everything after it — the one repair path, used on a gap, after
	// silence, after a disconnection or a migration. (Gen, Cursor) is the
	// position itself: the log generation and index the subscriber has
	// integrated through, exact and free to serve. Since, the subscriber's
	// stable cut, is the fallback when Gen is not the sender's current
	// generation (restart, visibility recheck, another DC): the DC then
	// replays what Since does not cover and the subscriber deduplicates the
	// overlap by dot.
	Resume bool
	Since  vclock.Vector
	Gen    uint64
	Cursor int
	// Relay declares that this subscriber understands the tree-multicast
	// frames (TreeAssign/TreePush) and is willing to re-fan-out pushes to
	// sibling subscribers on the DC's behalf. Edge nodes and group sync
	// points set it; bare handlers that only speak PushTxs leave it false
	// and always receive direct frames. The capability is sticky for the
	// lifetime of the subscription.
	Relay bool
}

// SubscribeAck returns materialised base versions for the newly subscribed
// objects at the DC's stable cut, and the position (Gen, Cursor) in the DC's
// push stream the subscription continues from. A subscriber holding another
// generation adopts the pair; one already in Gen keeps its own cursor, which
// is the authority. Stable is set only for a subscriber that starts at
// Cursor — one that holds no position in Gen and is not resuming; otherwise
// cuts arrive with the in-order frames that carry them.
type SubscribeAck struct {
	Stable  vclock.Vector
	Objects []ObjectState
	Gen     uint64
	Cursor  int
}

// Unsubscribe removes objects from the interest set (cache eviction).
type Unsubscribe struct {
	Node    string
	Objects []txn.ObjectID
}

// ObjectState is one materialised object shipped to a cache.
type ObjectState struct {
	ID   txn.ObjectID
	Kind crdt.Kind
	// Object is the state materialised at Vec — typically a sealed snapshot
	// shared with the sender's materialisation cache, so receivers must
	// treat it as immutable (Seed it, Clone it, or Fork it before any
	// Apply); nil when the DC has no state for the id (the object starts
	// from its initial state).
	Object crdt.Object
	Vec    vclock.Vector
	// ViaDC marks that a group parent had to fall through to the DC to
	// serve this state (latency classification in the experiments).
	ViaDC bool
	// Folded lists group-visible transactions whose effects are included in
	// Object beyond the Vec cut (they have no concrete commit yet); the
	// receiving cache must not re-apply them to this object.
	Folded []vclock.Dot
}

// FetchObject pulls one object on a cache miss. Sent as a Call; the reply is
// ObjectState. At is the requesting transaction's snapshot: the DC serves
// the object *at that cut* (it keeps journals above base versions), so a
// mid-transaction miss cannot tear the snapshot — exactly SwiftCloud's
// versioned read. A nil or uncovered At falls back to the stable cut.
type FetchObject struct {
	ID txn.ObjectID
	At vclock.Vector
}

// PushTxs streams newly K-stable transactions (filtered to the receiver's
// interest set) plus the sender's stable vector, in causal order.
//
// Frames are sequenced: a DC's Txs holds every visible transaction of its
// history positions [Lo, Hi) (generation Gen, a non-zero boot nonce) that
// touches the receiver's buckets, and the receiver integrates the frame only
// when it connects to its PushCursor. A group parent serves its members the
// same protocol over its own log: the DC frames it integrated and the
// group's executions, in the order it logged them.
//
// Group marks a frame of transactions the peer group's consensus ordered:
// the receiver makes them group-visible (readable at any cut) as it applies
// them. A DC never sets it.
type PushTxs struct {
	From   string
	Txs    []*txn.Transaction
	Stable vclock.Vector
	Gen    uint64
	Lo, Hi int
	Group  bool
}

// PushCursor is a receiver's position in one DC's sequenced push stream: the
// log generation and the index it has integrated through. The receiver, not
// the DC, owns it; a frame that does not connect is refused and the receiver
// resumes (Subscribe.Resume) from here.
type PushCursor struct {
	Gen uint64
	Idx int
}

// Admit reports whether a frame covering [lo, hi) of generation gen connects
// to the cursor — same generation, no gap — and advances the cursor past it
// if so. Overlap below the cursor is fine: the transactions deduplicate by
// dot. Generation 0 is no stream's: a cursor that holds none admits nothing.
func (c *PushCursor) Admit(gen uint64, lo, hi int) bool {
	if gen == 0 || gen != c.Gen || lo > c.Idx {
		return false
	}
	c.Idx = max(c.Idx, hi)
	return true
}

// Units reports the number of logical messages the push batch stands for,
// for the network substrate's batch-delivery accounting. A pure stability
// advance (no transactions) still counts as one message.
func (p PushTxs) Units() int {
	if len(p.Txs) == 0 {
		return 1
	}
	return len(p.Txs)
}

// PushFrame is a sealed PushTxs: one frame built once and then shared,
// unmodified, across every subscriber of an interest shard. Sealing is a
// contract, not a mechanism — after SealPushFrame returns, neither the
// sender nor any receiver may mutate the frame:
//
//   - Txs and every *Transaction in it (including Snapshot and Commit) are
//     frozen; receivers that need mutable state must Clone the transaction
//     (edge.ApplyPush already does).
//   - Stable is frozen; receivers fold it with v.Join(frame.Stable), which
//     never mutates its argument.
//
// The payoff is the fan-out cost model the DC push path relies on: one
// filter pass and one frame per shard, O(1) allocations regardless of how
// many subscribers share the shard.
type PushFrame = PushTxs

// SealPushFrame builds a PushFrame over an already-filtered transaction run,
// the log range [lo, hi) of generation gen it covers, and a stable cut,
// clipping the slice capacity so no later append through a retained
// reference can alias into the shared backing array.
func SealPushFrame(from string, txs []*txn.Transaction, stable vclock.Vector, gen uint64, lo, hi int) PushFrame {
	return PushFrame{From: from, Txs: txs[:len(txs):len(txs)], Stable: stable, Gen: gen, Lo: lo, Hi: hi}
}

// --- tree multicast (paper §3.4: dissemination trees rooted at a DC) ---

// TreeAssign installs (or replaces) a relay subscriber's child table for one
// interest shard: on receiving a TreePush for (From, Shard) at Epoch, the
// relay re-fans the frame out to Children. An empty Children demotes the
// relay. Assigns ride the same FIFO link as the pushes they govern, so a
// relay always sees the table before the first frame that needs it.
type TreeAssign struct {
	From     string // the DC that owns the tree
	Shard    uint64 // compact per-DC shard id
	Epoch    uint64 // bumped on every reassignment; stale frames are dropped
	Children []string
}

// TreePush is a sealed push frame addressed to a subtree root: the same
// filtered transaction run, log range and stable cut a PushFrame carries,
// plus the routing envelope (shard, epoch) the relay needs to re-fan it out
// to its children. The relay forwards and forgets — nothing goes back to the
// DC; a child the forward did not reach notices the gap at its own cursor.
// Leaf children apply it exactly like a PushTxs. The sealed-frame contract of
// PushFrame applies: neither relays nor leaves may mutate Txs or Stable.
type TreePush struct {
	From   string
	Shard  uint64
	Epoch  uint64
	Txs    []*txn.Transaction
	Stable vclock.Vector
	Gen    uint64
	Lo, Hi int
}

// SealTreeFrame wraps a sealed PushFrame in the routing envelope of one
// subtree; the transaction run and stable cut are shared, not copied.
func SealTreeFrame(shard, epoch uint64, f PushFrame) TreePush {
	return TreePush{From: f.From, Shard: shard, Epoch: epoch, Txs: f.Txs, Stable: f.Stable, Gen: f.Gen, Lo: f.Lo, Hi: f.Hi}
}

// Inner returns the plain push frame a relay forwards and applies locally.
func (p TreePush) Inner() PushTxs {
	return PushTxs{From: p.From, Txs: p.Txs, Stable: p.Stable, Gen: p.Gen, Lo: p.Lo, Hi: p.Hi}
}

// TxReader reads an object inside a transaction running at a DC.
type TxReader func(id txn.ObjectID) (crdt.Object, error)

// TxUpdater buffers an update inside a transaction running at a DC.
type TxUpdater func(id txn.ObjectID, kind crdt.Kind, op crdt.Op) error

// MigratedTx ships a resource-hungry transaction to the core cloud for
// execution (paper §3.9). Snapshot primes the transaction with the client's
// state vector; the DC must have received the client's own transactions
// first.
//
// Two program forms exist. The in-process form sets Fn directly — a closure
// standing in for the paper's mobile code — and cannot cross a real wire.
// The named form sets Name (+ opaque Args), resolved at the executing DC via
// the program registry (RegisterProgram); it has a binary encoding and works
// across the TCP mesh. Touches lists the objects the program will access, so
// a partially-replicating DC can backfill those buckets before running it —
// the migrating user's interest set travels with the transaction. A message
// with both set prefers Fn locally but encodes only the named form.
type MigratedTx struct {
	Origin   string
	Actor    string
	Snapshot vclock.Vector
	Fn       func(read TxReader, update TxUpdater) error
	Name     string
	Args     []byte
	Touches  []txn.ObjectID
}

// MigratedTxAck reports the outcome of a migrated transaction.
type MigratedTxAck struct {
	Commit vclock.CommitStamps
	Err    string
}
