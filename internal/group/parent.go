package group

import (
	"crypto/rand"
	"sync"
	"time"

	"colony/internal/edge"
	"colony/internal/obs"
	"colony/internal/transport"
	"colony/internal/txn"
	"colony/internal/vclock"
	"colony/internal/wire"
)

// ParentConfig configures a group parent.
type ParentConfig struct {
	// Name is the parent's network node name (a PoP server, a DC frontend,
	// or a designated member device).
	Name string
	// Actor identifies the parent for transactions it relays (rarely used).
	Actor string
	// DC is the connected DC the parent synchronises with.
	DC string
	// RetryInterval paces consensus retries and DC reconnection attempts.
	RetryInterval time.Duration
	// AutoAdvanceThreshold bounds the collaborative cache's journals (see
	// edge.Config.AutoAdvanceThreshold). 0 disables.
	AutoAdvanceThreshold int
	// Obs attaches the deployment's observability registry to the parent's
	// edge node and EPaxos counters. Nil disables instrumentation.
	Obs *obs.Registry
}

// Parent seeds and manages a peer group (paper §5.1.1), maintains the
// group's collaborative cache and DC subscription (§5.1.2–5.1.3), acts as
// the group's default sync point, and participates in the group's EPaxos.
type Parent struct {
	node      *edge.Node
	consensus *driver

	mu         sync.Mutex
	members    map[string]bool
	interest   map[string]map[txn.ObjectID]bool // member → declared interest
	vislog     []vclock.Dot                     // group visibility order; the transactions are in the node's store
	remoteLog  []*txn.Transaction               // stable remote txs, for member resume (bounded)
	sessionKey []byte
}

// NewParent creates a group parent on net, attaches its DC-facing edge node,
// and starts its consensus. Call Connect once, then Close when done.
func NewParent(netw transport.Network, cfg ParentConfig) *Parent {
	if cfg.RetryInterval <= 0 {
		cfg.RetryInterval = 25 * time.Millisecond
	}
	key := make([]byte, 32)
	_, _ = rand.Read(key)
	p := &Parent{
		members:    make(map[string]bool),
		interest:   make(map[string]map[txn.ObjectID]bool),
		sessionKey: key,
	}
	p.node = edge.New(netw, edge.Config{
		Name: cfg.Name, Actor: cfg.Actor, DC: cfg.DC,
		RetryInterval:        cfg.RetryInterval,
		AutoAdvanceThreshold: cfg.AutoAdvanceThreshold,
		Obs:                  cfg.Obs,
	})
	p.consensus = newDriver(p.node, cfg.RetryInterval, p.onExecute)
	p.node.SetHooks(edge.Hooks{
		Extra: p.handle,
		Push:  p.onPush,
		Ack:   p.onAck,
	})
	return p
}

// Connect attaches the parent to its DC.
func (p *Parent) Connect() error { return p.node.Connect() }

// Close stops the parent.
func (p *Parent) Close() {
	p.consensus.close()
	p.node.Close()
}

// Name returns the parent's node name.
func (p *Parent) Name() string { return p.node.Name() }

// Node exposes the parent's DC-facing edge node.
func (p *Parent) Node() *edge.Node { return p.node }

// Members returns the current member list (excluding the parent).
func (p *Parent) Members() []string {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([]string, 0, len(p.members))
	for m := range p.members {
		out = append(out, m)
	}
	return out
}

// VisibilityLogLen reports the length of the group's visibility log.
func (p *Parent) VisibilityLogLen() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.vislog)
}

// handle processes group traffic addressed to the parent.
func (p *Parent) handle(from string, msg any) any {
	if p.consensus.handle(from, msg) {
		return nil
	}
	switch m := msg.(type) {
	case JoinReq:
		return p.onJoin(m)
	case LeaveReq:
		p.onLeave(m)
		return nil
	case SyncReq:
		return p.onSync(m)
	case wire.Subscribe:
		return p.onMemberSubscribe(m)
	case wire.Unsubscribe:
		p.onMemberUnsubscribe(m)
		return nil
	case wire.FetchObject:
		return p.onMemberFetch(m)
	default:
		return nil
	}
}

// onJoin admits a node and broadcasts the membership change.
func (p *Parent) onJoin(m JoinReq) any {
	p.mu.Lock()
	p.members[m.Node] = true
	if p.interest[m.Node] == nil {
		p.interest[m.Node] = make(map[txn.ObjectID]bool)
	}
	members, all := p.membershipLocked()
	key := p.sessionKey
	p.mu.Unlock()

	p.consensus.setPeers(members)
	ev := MemberEvent{Members: all}
	for _, peer := range members {
		if peer != m.Node {
			_ = p.node.Send(peer, ev)
		}
	}
	return JoinAck{Members: all, Parent: p.node.Name(), SessionKey: key}
}

// onLeave removes a node and broadcasts the change.
func (p *Parent) onLeave(m LeaveReq) {
	p.mu.Lock()
	delete(p.members, m.Node)
	delete(p.interest, m.Node)
	members, all := p.membershipLocked()
	p.mu.Unlock()
	p.consensus.setPeers(members)
	ev := MemberEvent{Members: all}
	for _, peer := range members {
		_ = p.node.Send(peer, ev)
	}
}

// membershipLocked returns (member list, member list + parent).
func (p *Parent) membershipLocked() (members []string, all []string) {
	members = make([]string, 0, len(p.members))
	for m := range p.members {
		members = append(members, m)
	}
	all = append(append([]string(nil), members...), p.node.Name())
	return members, all
}

// onMemberSubscribe registers a member's interest, extends the parent's own
// DC subscription to the union (§5.1.2), and returns materialised states
// from the collaborative cache.
func (p *Parent) onMemberSubscribe(m wire.Subscribe) any {
	p.mu.Lock()
	set := p.interest[m.Node]
	if set == nil {
		set = make(map[txn.ObjectID]bool)
		p.interest[m.Node] = set
	}
	for _, id := range m.Objects {
		set[id] = true
	}
	p.mu.Unlock()
	// Register the union interest upstream and pull anything the group
	// cache lacks (best effort — if the DC is offline the member gets what
	// the group holds).
	if len(m.Objects) > 0 {
		_ = p.node.AddInterest(m.Objects...)
	}

	ack := wire.SubscribeAck{Stable: p.node.StableVector()}
	for _, id := range m.Objects {
		ack.Objects = append(ack.Objects, p.materializeForMember(id, nil))
	}
	if m.Resume && !p.node.StableVector().LEQ(m.Since) {
		p.replayRemote(m.Node, m.Since)
	}
	return ack
}

// onMemberUnsubscribe shrinks a member's declared interest. The parent keeps
// its own cache (other members may still want the objects).
func (p *Parent) onMemberUnsubscribe(m wire.Unsubscribe) {
	p.mu.Lock()
	defer p.mu.Unlock()
	set := p.interest[m.Node]
	for _, id := range m.Objects {
		delete(set, id)
	}
}

// materializeForMember materialises an object for a member seed: the
// parent's state cut plus the group-visible transactions (the member's reads
// include them, so the seed must too). The store reports the state, its
// coverage and the group-visible transactions beyond that coverage in one
// atomic read, so Folded names exactly the transactions whose re-delivery the
// member's store must skip.
func (p *Parent) materializeForMember(id txn.ObjectID, reqAt vclock.Vector) wire.ObjectState {
	at := p.node.State()
	// Serve at the member's snapshot when the group cache covers it; a cut
	// above the member's snapshot could tear the member's transaction.
	// (materializeForMember is also called with nil for push/replay paths,
	// which want the parent's full state.)
	if reqAt != nil && reqAt.LEQ(at) {
		at = reqAt.Clone()
	}
	obj, vec, folded, err := p.node.Store().ReadSeed(id, at)
	if err != nil {
		// The group cache does not hold the object. Unlike a DC, the parent
		// is a partial replica: it must not claim the object is empty at its
		// state cut — the honest cut for "no knowledge" is the empty vector.
		return wire.ObjectState{ID: id}
	}
	return wire.ObjectState{ID: id, Kind: obj.Kind(), Object: obj, Vec: vec, Folded: folded}
}

// onMemberFetch serves a member cache miss from the collaborative cache,
// falling through to the DC when the group does not hold the object.
func (p *Parent) onMemberFetch(m wire.FetchObject) any {
	if p.node.Store().Has(m.ID) {
		return p.materializeForMember(m.ID, m.At)
	}
	if err := p.node.AddInterest(m.ID); err != nil {
		// DC unreachable: serve whatever the group holds (nothing).
		return p.materializeForMember(m.ID, m.At)
	}
	st := p.materializeForMember(m.ID, m.At)
	st.ViaDC = true
	return st
}

// onSync serves a member's visibility-log recovery request.
func (p *Parent) onSync(m SyncReq) any {
	p.mu.Lock()
	from := m.From
	if from < 0 {
		from = 0
	}
	if from > len(p.vislog) {
		from = len(p.vislog)
	}
	entries := make([]*txn.Transaction, 0, len(p.vislog)-from)
	suffix := p.vislog[from:]
	p.mu.Unlock()
	for _, dot := range suffix {
		// The store serves the freshest commit stamps it knows.
		cur, ok := p.node.Store().Transaction(dot)
		if !ok {
			break // the member's cursor counts entries: never serve past a gap
		}
		entries = append(entries, cur)
	}
	return SyncAck{From: from, Entries: entries, Stable: p.node.StableVector()}
}

// replayRemote re-sends stable remote transactions a reconnecting member may
// have missed.
func (p *Parent) replayRemote(member string, since vclock.Vector) {
	p.mu.Lock()
	var batch []*txn.Transaction
	for _, t := range p.remoteLog {
		if !t.VisibleAt(since) {
			batch = append(batch, t)
		}
	}
	p.mu.Unlock()
	if len(batch) > 0 {
		_ = p.node.Send(member, wire.PushTxs{From: p.node.Name(), Txs: batch, Stable: p.node.StableVector()})
	}
}

// onPush forwards stable remote updates from the DC to every member
// (§5.1.2: the parent subscribes on behalf of its members) and records them
// for resume replay.
func (p *Parent) onPush(m wire.PushTxs) {
	p.mu.Lock()
	p.remoteLog = append(p.remoteLog, m.Txs...)
	// Bound the resume buffer: a member further behind than this re-syncs
	// through fresh seeds (which are cut at or above anything dropped).
	const remoteLogCap = 8192
	if len(p.remoteLog) > remoteLogCap {
		p.remoteLog = append([]*txn.Transaction(nil), p.remoteLog[len(p.remoteLog)-remoteLogCap:]...)
	}
	members, _ := p.membershipLocked()
	p.mu.Unlock()
	fwd := wire.PushTxs{From: p.node.Name(), Txs: m.Txs, Stable: m.Stable}
	for _, member := range members {
		_ = p.node.Send(member, fwd)
	}
}

// onAck distributes a DC commit descriptor for a group transaction to the
// members (the sync point's second half of §5.1.3).
func (p *Parent) onAck(ack wire.EdgeCommitAck) {
	msg := PromoteMsg{Dot: ack.Dot, DCIndex: ack.DCIndex, Ts: ack.Ts, Stable: ack.Stable}
	p.mu.Lock()
	members, _ := p.membershipLocked()
	p.mu.Unlock()
	for _, member := range members {
		_ = p.node.Send(member, msg)
	}
}

// onExecute consumes the EPaxos visibility order: the transaction becomes
// group-visible at the parent, is appended to the visibility log, and — if
// it does not yet have a concrete commit — queued for the DC in visibility
// order (§5.1.3–5.1.4).
func (p *Parent) onExecute(src *txn.Transaction) {
	p.node.ApplyGroupTx(src)
	// Read it back from the store: a concurrent redelivery may already have
	// contributed commit stamps.
	t, ok := p.node.Store().Transaction(src.Dot)
	if !ok {
		return // the store refused it (kind mismatch): not visible here, so not logged
	}
	p.mu.Lock()
	p.vislog = append(p.vislog, t.Dot)
	idx := len(p.vislog) - 1
	members, _ := p.membershipLocked()
	p.mu.Unlock()
	// Push the new visibility entry to the members (best effort; SyncReq
	// recovers anything lost).
	ev := VisEntry{Index: idx, Tx: t}
	for _, member := range members {
		_ = p.node.Send(member, ev)
	}
	if t.Symbolic() {
		p.node.EnqueueForDC(t)
	}
}

// Submit lets the parent itself (when co-located with an application)
// propose a transaction to the group's consensus.
func (p *Parent) Submit(t *txn.Transaction) {
	p.consensus.propose(t, 0)
}
