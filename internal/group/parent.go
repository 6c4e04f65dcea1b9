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
//
// It pushes to its members with the DC's push-stream protocol (§4.2): one
// log of everything it hands them — each DC frame's transactions as its
// node integrates them, and each group execution — sent to every member as
// sequenced frames over log positions. A member holds its own cursor,
// refuses a frame that leaves a gap and resumes from the cursor;
// onMemberSubscribe answers the resume as the DC does.
type Parent struct {
	node      *edge.Node
	consensus *driver
	// gen is the generation of the members' stream: a boot nonce, so a
	// cursor into another parent or an earlier incarnation never matches.
	gen uint64

	mu       sync.Mutex
	members  map[string]bool
	interest map[string]map[txn.ObjectID]bool // member → declared interest
	// log is the members' stream in position order; the transactions
	// themselves are in the node's store, which keeps every dot it applied.
	// It only grows: entries below any length once read never change.
	log []logEntry
	// stable is the cut of the last DC frame logged. It covers nothing the
	// stream has not delivered below len(log); the node's own stable cut may
	// (it advances before the frame is logged).
	stable     vclock.Vector
	sessionKey []byte
}

// logEntry is one position of the members' stream: a transaction, and
// whether the group's consensus ordered it (a group entry, made
// group-visible at members) or it came in a DC frame.
type logEntry struct {
	dot   vclock.Dot
	group bool
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
		gen:        uint64(time.Now().UnixNano()),
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

// StreamLen reports the length of the members' stream: every transaction
// the parent has handed its members, group executions and DC frames alike.
func (p *Parent) StreamLen() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.log)
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
// DC subscription to the union (§5.1.2), decides where the member's stream
// continues, and returns materialised states from the collaborative cache.
//
// Where the stream continues follows the DC's resumeLocked: a plain
// subscribe at the frontier, whose seeds cover everything below; a resume in
// this generation at the member's cursor, the range reply going out before
// the ack; a resume from any other generation — a member joining or
// migrating in, or one that followed an earlier incarnation of this parent —
// at the first entry its Since does not cover, a position the member adopts
// from the ack and resumes from, exactly.
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

	from := 0
	if m.Resume && m.Gen != p.gen {
		// The scan reads a copy of the log outside p.mu, so a long log does
		// not hold up the stream; entries logged meanwhile lie above the
		// copy's end, where the member's exact resume picks them up.
		p.mu.Lock()
		log := p.log
		p.mu.Unlock()
		from = p.firstUncovered(log, m.Since)
	}
	p.mu.Lock()
	ack := wire.SubscribeAck{Gen: p.gen}
	switch {
	case !m.Resume:
		ack.Cursor = len(p.log)
		if m.Gen != p.gen {
			// A member that adopts the frontier may adopt its cut with it.
			ack.Stable = p.stable
		}
	case m.Gen == p.gen:
		ack.Cursor = min(max(m.Cursor, 0), len(p.log))
		if ack.Cursor < len(p.log) || !p.stable.LEQ(m.Since) {
			p.sendRangeLocked(m.Node, ack.Cursor)
		}
	default:
		ack.Cursor = from
	}
	p.mu.Unlock()
	// Seeds are read after the position is taken: the store holds every
	// logged transaction before it is logged, so they cover the stream below
	// the position.
	for _, id := range m.Objects {
		ack.Objects = append(ack.Objects, p.materializeForMember(id, nil))
	}
	return ack
}

// firstUncovered returns the position in log of the first entry cut does
// not cover. A group entry that is still symbolic is covered by no cut, and
// the empty cut covers nothing. A linear scan, for the resume that has no
// cursor to go by.
func (p *Parent) firstUncovered(log []logEntry, cut vclock.Vector) int {
	for i, e := range log {
		if t, held := p.node.Store().Transaction(e.dot); held && !t.VisibleAt(cut) {
			return i
		}
	}
	return len(log)
}

// sendRangeLocked is the stream's one repair path: it sends member the
// entries from position from on, at most wire.RangeMax transactions, read back
// from the store with their freshest commit stamps. Consecutive entries of
// one kind share a frame, since a frame's Group bit covers all of it. The
// last frame carries the stream's cut if it reaches the frontier, which the
// cut belongs to; a reply cut short carries none. Called with p.mu held.
func (p *Parent) sendRangeLocked(member string, from int) {
	frame := wire.PushTxs{From: p.node.Name(), Gen: p.gen, Lo: from}
	to, n := from, 0
	for ; to < len(p.log) && n < wire.RangeMax; to++ {
		e := p.log[to]
		if to > frame.Lo && e.group != frame.Group {
			frame.Hi = to
			_ = p.node.Send(member, frame)
			frame = wire.PushTxs{From: p.node.Name(), Gen: p.gen, Lo: to}
		}
		frame.Group = e.group
		if t, ok := p.node.Store().Transaction(e.dot); ok {
			frame.Txs = append(frame.Txs, t)
			n++
		}
	}
	frame.Hi = to
	if to == len(p.log) {
		frame.Stable = p.stable
	}
	// A refused send needs no handling: the member still holds its cursor
	// and asks again.
	_ = p.node.Send(member, frame)
}

// sendLocked sends a frame the log has just grown by to every member, inside
// the p.mu section that assigned its positions: frames then leave in
// position order, whichever goroutine logged them. Called with p.mu held.
func (p *Parent) sendLocked(frame wire.PushTxs) {
	for member := range p.members {
		_ = p.node.Send(member, frame)
	}
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

// onPush logs a DC frame the node has integrated and forwards it to every
// member (§5.1.2: the parent subscribes on behalf of its members) with that
// frame's own cut.
func (p *Parent) onPush(m wire.PushTxs) {
	p.mu.Lock()
	defer p.mu.Unlock()
	lo := len(p.log)
	for _, t := range m.Txs {
		p.log = append(p.log, logEntry{dot: t.Dot})
	}
	if !m.Stable.LEQ(p.stable) {
		// Replaced, never joined in place: acks and frames share it.
		p.stable = p.stable.Clone().Join(m.Stable)
	}
	p.sendLocked(wire.PushTxs{From: p.node.Name(), Txs: m.Txs, Stable: m.Stable, Gen: p.gen, Lo: lo, Hi: len(p.log)})
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
// group-visible at the parent, is logged and sent to the members as a group
// entry, and — if it does not yet have a concrete commit — queued for the DC
// in visibility order (§5.1.3–5.1.4).
func (p *Parent) onExecute(src *txn.Transaction) {
	p.node.ApplyGroupTx(src)
	// Read it back from the store: a concurrent redelivery may already have
	// contributed commit stamps.
	t, ok := p.node.Store().Transaction(src.Dot)
	if !ok {
		return // the store refused it (kind mismatch): not visible here, so not logged
	}
	p.mu.Lock()
	p.log = append(p.log, logEntry{dot: t.Dot, group: true})
	hi := len(p.log)
	p.sendLocked(wire.PushTxs{From: p.node.Name(), Txs: []*txn.Transaction{t}, Gen: p.gen, Lo: hi - 1, Hi: hi, Group: true})
	p.mu.Unlock()
	if t.Symbolic() {
		p.node.EnqueueForDC(t)
	}
}

// Submit lets the parent itself (when co-located with an application)
// propose a transaction to the group's consensus.
func (p *Parent) Submit(t *txn.Transaction) {
	p.consensus.propose(t, 0)
}
