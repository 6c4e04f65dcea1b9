package group

import (
	"context"
	"fmt"
	"sync"
	"time"

	"colony/internal/edge"
	"colony/internal/txn"
	"colony/internal/vclock"
	"colony/internal/wire"
)

// psiTimeout bounds a PSI-variant commit's wait for consensus.
const psiTimeout = 5 * time.Second

// MemberConfig configures a member's group attachment.
type MemberConfig struct {
	// Parent is the group parent's node name.
	Parent string
	// Variant selects the commit variant (default VariantAsync).
	Variant CommitVariant
	// CallTimeout bounds RPCs to the parent (default 2s).
	CallTimeout time.Duration
	// SyncInterval paces the consensus driver's retry ticks (default 25ms);
	// a commit held back by MaxPending re-checks at the same pace.
	SyncInterval time.Duration
	// MaxPending bounds the member's transactions awaiting a concrete DC
	// commit (0 = unbounded); commits block when the bound is reached —
	// back-pressure mirroring edge.Config.MaxUnacked.
	MaxPending int
}

// Member attaches an edge node to a peer group: commits flow through the
// group's EPaxos, cache misses through the collaborative cache, and the
// member's reads see every transaction the group made visible (§5.1.4) —
// executed by its own consensus replica or received in the parent's stream,
// which the node follows with its push cursor like a DC's.
type Member struct {
	node *edge.Node
	cfg  MemberConfig

	consensus *driver

	mu         sync.Mutex
	sessionKey []byte
	// pendingOwn tracks this node's transactions without a concrete commit
	// yet, in order; they are re-proposed after migrating to another group.
	pendingOwn []*txn.Transaction
	memberEvs  []func([]string)

	stop chan struct{}
}

// Join attaches node to the peer group managed by parent. The node's commit
// pipeline, cache-miss path and read visibility are redirected to the group,
// and the node's subscription moves from its DC to the parent (the parent
// subscribes upstream on the group's behalf, §5.1.2–5.1.3). Transactions a
// previous group made visible at this node stay visible: the marks live in
// the node's store (rollback freedom, §5.2).
func Join(node *edge.Node, cfg MemberConfig) (*Member, error) {
	if cfg.Variant == 0 {
		cfg.Variant = VariantAsync
	}
	if cfg.CallTimeout <= 0 {
		cfg.CallTimeout = 2 * time.Second
	}
	if cfg.SyncInterval <= 0 {
		cfg.SyncInterval = 25 * time.Millisecond
	}
	m := &Member{
		node: node,
		cfg:  cfg,
		stop: make(chan struct{}),
	}
	m.consensus = newDriver(node, cfg.SyncInterval, node.ApplyGroupTx)
	node.SetHooks(edge.Hooks{
		Extra:  m.handle,
		Commit: m.onLocalCommit,
		Fetch:  m.fetch,
		Push:   m.onPush,
	})

	ack, err := m.join(cfg.Parent)
	if err != nil {
		m.detach()
		return nil, err
	}
	m.applyMembership(ack.Members)
	m.mu.Lock()
	m.sessionKey = ack.SessionKey
	m.mu.Unlock()
	// Re-point the node's subscription at the parent: interest-set
	// subscriptions and the push stream, with its resumes, now flow through
	// the group.
	if err := node.Migrate(cfg.Parent); err != nil {
		m.detach()
		return nil, err
	}
	return m, nil
}

// join performs the membership handshake (§5.1.1).
func (m *Member) join(parent string) (JoinAck, error) {
	ctx, cancel := context.WithTimeout(context.Background(), m.cfg.CallTimeout)
	defer cancel()
	reply, err := m.node.Call(ctx, parent, JoinReq{Node: m.node.Name(), Actor: m.node.Actor()})
	if err != nil {
		return JoinAck{}, fmt.Errorf("%w: %v", ErrUnreachable, err)
	}
	ack, ok := reply.(JoinAck)
	if !ok {
		return JoinAck{}, fmt.Errorf("group: unexpected join reply %T", reply)
	}
	return ack, nil
}

// Leave detaches the member from its group. The node reverts to a plain
// edge node; transactions without a concrete commit are re-queued on the
// direct DC pipeline. The caller normally follows with node.Migrate(dcName)
// to re-attach the subscription to a DC.
func (m *Member) Leave() {
	m.leave(true)
}

// leave implements Leave; requeue controls whether pending transactions are
// handed to the node's direct DC pipeline (MigrateTo re-proposes them in the
// next group instead).
func (m *Member) leave(requeue bool) {
	select {
	case <-m.stop:
	default:
		close(m.stop)
	}
	// Synchronous, best-effort: the node "contacts the group's parent" to
	// leave (§5.1.1); an unreachable parent learns of the departure when the
	// membership layer next hears from the node.
	ctx, cancel := context.WithTimeout(context.Background(), m.cfg.CallTimeout)
	_, _ = m.node.Call(ctx, m.cfg.Parent, LeaveReq{Node: m.node.Name()})
	cancel()
	m.detach()
	if !requeue {
		return
	}
	m.mu.Lock()
	pending := m.pendingLocked()
	m.mu.Unlock()
	for _, t := range pending {
		m.node.EnqueueForDC(t)
	}
}

// detach restores the plain edge-node behaviour and stops consensus.
// Transactions that became group-visible remain readable — the store keeps
// their marks (rollback freedom).
func (m *Member) detach() {
	m.node.SetHooks(edge.Hooks{})
	m.consensus.close()
}

// Node returns the underlying edge node.
func (m *Member) Node() *edge.Node { return m.node }

// SessionKey returns the group session key received from the parent.
func (m *Member) SessionKey() []byte {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.sessionKey
}

// OnMembershipChange registers a callback fired with the full member list
// whenever it changes (the group-event notification of §6.1).
func (m *Member) OnMembershipChange(fn func([]string)) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.memberEvs = append(m.memberEvs, fn)
}

// handle processes group traffic addressed to this member.
func (m *Member) handle(from string, msg any) any {
	if m.consensus.handle(from, msg) {
		return nil
	}
	switch ev := msg.(type) {
	case MemberEvent:
		m.applyMembership(ev.Members)
		return nil
	case PromoteMsg:
		m.node.Promote(ev.Dot, ev.DCIndex, ev.Ts, ev.Stable)
		m.clearPending(ev.Dot)
		return nil
	default:
		return nil
	}
}

// onPush completes, from the parent's stream, the ack of an own transaction
// whose PromoteMsg was lost: the frame's commit stamps are already in the
// store, and promoting with them is a no-op for a commit already acked.
func (m *Member) onPush(f wire.PushTxs) {
	for _, t := range f.Txs {
		if t.Dot.Node != m.node.Name() || t.Symbolic() {
			continue
		}
		for dc, ts := range t.Commit {
			m.node.Promote(t.Dot, dc, ts, nil)
		}
		m.clearPending(t.Dot)
	}
}

// applyMembership installs a new member list.
func (m *Member) applyMembership(all []string) {
	var peers []string
	for _, name := range all {
		if name != m.node.Name() {
			peers = append(peers, name)
		}
	}
	m.consensus.setPeers(peers)
	m.mu.Lock()
	evs := make([]func([]string), len(m.memberEvs))
	copy(evs, m.memberEvs)
	m.mu.Unlock()
	for _, fn := range evs {
		fn(all)
	}
}

// onLocalCommit is the group commit pipeline (§5.1.4): the locally committed
// transaction is submitted to EPaxos. In the PSI variant the call blocks
// until the group's visibility order includes the transaction.
func (m *Member) onLocalCommit(t *txn.Transaction) {
	if m.cfg.MaxPending > 0 {
		for {
			m.mu.Lock()
			n := len(m.pendingLocked())
			m.mu.Unlock()
			if n < m.cfg.MaxPending {
				break
			}
			select {
			case <-m.stop:
				return
			case <-time.After(m.cfg.SyncInterval):
			}
		}
	}
	m.mu.Lock()
	m.pendingOwn = append(m.pendingOwn, t)
	m.mu.Unlock()
	var wait time.Duration
	if m.cfg.Variant == VariantPSI {
		wait = psiTimeout
	}
	m.consensus.propose(t, wait)
}

// clearPending drops a now-concrete transaction from the re-propose list.
func (m *Member) clearPending(dot vclock.Dot) {
	m.mu.Lock()
	defer m.mu.Unlock()
	kept := m.pendingOwn[:0]
	for _, t := range m.pendingOwn {
		if t.Dot != dot {
			kept = append(kept, t)
		}
	}
	m.pendingOwn = kept
}

// pendingLocked returns this node's transactions still lacking a concrete
// commit (checked against the store, which holds the canonical stamps).
func (m *Member) pendingLocked() []*txn.Transaction {
	var out []*txn.Transaction
	for _, t := range m.pendingOwn {
		if cur, ok := m.node.Store().Transaction(t.Dot); ok && cur.Symbolic() {
			out = append(out, cur)
		}
	}
	return out
}

// MigrateTo moves the member to a different peer group (§5.2): leave the old
// group, join the new one, and re-propose transactions that never obtained a
// concrete commit. Duplicate submission to the DC (by both groups' sync
// points) is filtered by dot.
func (m *Member) MigrateTo(parent string) (*Member, error) {
	m.leave(false)
	node := m.node
	cfg := m.cfg
	cfg.Parent = parent
	next, err := Join(node, cfg)
	if err != nil {
		return nil, err
	}
	m.mu.Lock()
	pending := m.pendingLocked()
	m.mu.Unlock()
	for _, t := range pending {
		next.consensus.propose(t, 0)
	}
	return next, nil
}

// fetch resolves a cache miss through the collaborative cache (§5.1.2).
func (m *Member) fetch(id txn.ObjectID, at vclock.Vector) (wire.ObjectState, edge.ReadSource, error) {
	ctx, cancel := context.WithTimeout(context.Background(), m.cfg.CallTimeout)
	defer cancel()
	reply, err := m.node.Call(ctx, m.cfg.Parent, wire.FetchObject{ID: id, At: at})
	if err != nil {
		return wire.ObjectState{}, 0, fmt.Errorf("%w: %v", ErrUnreachable, err)
	}
	st, ok := reply.(wire.ObjectState)
	if !ok {
		return wire.ObjectState{}, 0, fmt.Errorf("group: unexpected fetch reply %T", reply)
	}
	src := edge.SourceGroup
	if st.ViaDC {
		src = edge.SourceDC
	}
	return st, src, nil
}
