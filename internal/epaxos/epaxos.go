// Package epaxos implements the Egalitarian Paxos consensus protocol used
// inside Colony peer groups (paper §5.1.4). EPaxos lets any group member act
// as the leader for its own commands, orders only *interfering* commands
// with respect to each other, and commits on the fast path (one round trip)
// when no concurrent interference is detected.
//
// Commands here are transactions; two commands interfere when they share an
// interference key. The agreed execution order is the group's *visibility
// order*: the sequence in which transactions become visible within the SI
// zone and are shipped to the connected DC by a sync point.
//
// The implementation covers the commit protocol (PreAccept → fast-path
// Commit, or Accept → Commit on the slow path), dependency tracking, and
// dependency-ordered execution with SCC resolution. Explicit failure
// recovery of another replica's stalled instances (EPaxos §4.7) is not
// implemented: a peer group that loses a member simply waits for it or
// reforms via the membership layer, which matches Colony's group semantics.
//
// A Replica is the core algorithm only: a single-threaded state machine with
// no goroutines, clock or network. The caller serialises every call
// (Propose, HandleMessage, Tick, SetPeers). Its outputs are synchronous: the
// send and exec callbacks run inside those calls, in order, on the caller's
// goroutine, and must not call back into the replica. Time is whatever the
// caller's Tick says it is, so any interleaving of messages can be replayed
// from a seed.
package epaxos

import (
	"cmp"
	"slices"

	"colony/internal/wire"
)

// InstanceID names a command slot: each replica leads its own instance
// sub-space, so instance allocation needs no coordination. The type (like the
// protocol messages below) lives in the wire package so it has a stable
// binary encoding; the alias keeps this package's API unchanged.
type InstanceID = wire.EPaxosInstanceID

// Command is one unit of agreement: interference keys plus an opaque payload
// (a *txn.Transaction in Colony).
type Command = wire.EPaxosCommand

// retryTicks is how many Ticks an instance this replica leads may sit without
// moving before its current phase is sent again.
const retryTicks = 4

// status is the lifecycle of an instance.
type status int

const (
	statusPreAccepted status = iota + 1
	statusAccepted
	statusCommitted
	statusExecuted
)

// instance is one slot's replicated state.
type instance struct {
	id     InstanceID
	cmd    Command
	deps   []InstanceID // sorted; replaced, never modified (messages share it)
	seq    uint64
	status status

	// Leader-side bookkeeping.
	leading     bool
	depsChanged bool
	movedAt     uint64          // tick of the last progress or resend
	replied     map[string]bool // peers that answered the current phase
	commitAcked map[string]bool

	// Execution search state, valid while mark equals Replica.epoch.
	mark, blocked uint64
	index, low    int
	onStack       bool
}

// Messages exchanged between replicas. The group layer routes them. The
// concrete types live in the wire package (tags 26-31) so consensus traffic
// is encodable across processes; the aliases keep handler type switches and
// constructors here unchanged. Dependency lists travel sorted.
type (
	// PreAccept is phase one, sent by the command leader.
	PreAccept = wire.EPaxosPreAccept
	// PreAcceptOK is the reply, carrying the replica's (possibly extended)
	// dependencies.
	PreAcceptOK = wire.EPaxosPreAcceptOK
	// Accept is the slow-path phase run when pre-accept replies disagree.
	Accept = wire.EPaxosAccept
	// AcceptOK acknowledges an Accept.
	AcceptOK = wire.EPaxosAcceptOK
	// Commit finalises the instance at every replica.
	Commit = wire.EPaxosCommit
	// CommitAck lets the leader stop re-broadcasting a commit to a peer.
	CommitAck = wire.EPaxosCommitAck
)

// Transport sends a protocol message to a peer replica; implementations are
// free to drop messages (the leader retries on Tick).
type Transport func(to string, msg any)

// ExecuteFn consumes commands in the agreed visibility order.
type ExecuteFn func(Command)

// Replica is one EPaxos participant. It is not safe for concurrent use.
type Replica struct {
	name      string
	peers     []string
	send      Transport
	exec      ExecuteFn
	instances map[InstanceID]*instance
	nextSlot  uint64
	ticks     uint64
	epoch     uint64 // execution searches run
	// keyLast maps an interference key to, per command leader, the highest
	// slot of that leader's instances on the key. A leader's own instances on
	// a key depend on each other in slot order, so the highest covers the
	// older ones. One entry per key across all leaders would not: that
	// instance may have committed on the fast path without a dependency on an
	// earlier one from another leader, and the two would then be unordered.
	keyLast map[string]map[string]uint64
	// leading holds the instances this replica leads that may still need a
	// resend, by slot; pending the committed instances not yet executed.
	leading  map[uint64]*instance
	pending  map[InstanceID]*instance
	executed map[string]bool // command IDs already executed
}

// NewReplica creates a replica named name. Peers lists the other replicas;
// send delivers protocol messages; exec receives commands in visibility
// order.
func NewReplica(name string, peers []string, send Transport, exec ExecuteFn) *Replica {
	return &Replica{
		name:      name,
		peers:     append([]string(nil), peers...),
		send:      send,
		exec:      exec,
		instances: make(map[InstanceID]*instance),
		keyLast:   make(map[string]map[string]uint64),
		leading:   make(map[uint64]*instance),
		pending:   make(map[InstanceID]*instance),
		executed:  make(map[string]bool),
	}
}

// SetPeers replaces the peer set (membership change).
func (r *Replica) SetPeers(peers []string) {
	r.peers = append([]string(nil), peers...)
}

// quorum is the majority of the full group (peers + self).
func (r *Replica) quorum() int { return (len(r.peers)+1)/2 + 1 }

// fastQuorum is the EPaxos fast-path quorum size F + ⌊(F+1)/2⌋ (with
// N = 2F+1), never below a majority. A fast commit needs this many replicas
// (including the leader) to agree on the initial attributes.
func (r *Replica) fastQuorum() int {
	n := len(r.peers) + 1
	f := (n - 1) / 2
	return max(f+(f+1)/2, r.quorum())
}

// Propose starts agreement on cmd with this replica as leader and returns
// the instance id. Commitment and execution proceed as replies arrive.
func (r *Replica) Propose(cmd Command) InstanceID {
	r.nextSlot++
	id := InstanceID{Replica: r.name, Slot: r.nextSlot}
	deps, seq := r.interference(cmd.Keys, "")
	inst := r.record(id, cmd, deps, seq, statusPreAccepted)
	inst.leading, inst.movedAt, inst.replied = true, r.ticks, make(map[string]bool)
	r.leading[id.Slot] = inst
	if len(r.peers) == 0 {
		r.commit(inst) // singleton group: commit instantly
		return id
	}
	r.broadcast(r.peers, PreAccept{Inst: id, Cmd: cmd, Deps: deps, Seq: seq})
	return id
}

// interference computes the dependencies (sorted) and sequence number of a
// command on keys at this replica: the highest known instance of every
// leader on every key. A replica other than the command's leader passes that
// leader as skip and leaves its instances out: the leader's later commands
// already depend on this one, and a dependency back on them would only make
// a cycle.
func (r *Replica) interference(keys []string, skip string) ([]InstanceID, uint64) {
	var deps []InstanceID
	var seq uint64
	for _, k := range keys {
		for leader, slot := range r.keyLast[k] {
			if leader == skip {
				continue
			}
			id := InstanceID{Replica: leader, Slot: slot}
			deps = append(deps, id)
			seq = max(seq, r.instances[id].seq)
		}
	}
	slices.SortFunc(deps, compareIDs)
	return slices.Compact(deps), seq + 1
}

// record installs attributes for an instance (creating it if unknown) and
// registers it as its leader's latest toucher of its keys.
func (r *Replica) record(id InstanceID, cmd Command, deps []InstanceID, seq uint64, st status) *instance {
	inst := r.instances[id]
	if inst == nil {
		inst = &instance{id: id}
		r.instances[id] = inst
	}
	inst.cmd, inst.deps, inst.seq, inst.status = cmd, deps, seq, st
	for _, k := range cmd.Keys {
		last := r.keyLast[k]
		if last == nil {
			last = make(map[string]uint64)
			r.keyLast[k] = last
		}
		last[id.Replica] = max(last[id.Replica], id.Slot)
	}
	return inst
}

// broadcast sends msg to each of to.
func (r *Replica) broadcast(to []string, msg any) {
	for _, p := range to {
		r.send(p, msg)
	}
}

// HandleMessage processes one protocol message and returns true if it was an
// EPaxos message.
func (r *Replica) HandleMessage(from string, msg any) bool {
	switch m := msg.(type) {
	case PreAccept:
		r.onPreAccept(from, m)
	case PreAcceptOK:
		r.onPreAcceptOK(m)
	case Accept:
		r.onAccept(from, m)
	case AcceptOK:
		r.onAcceptOK(m)
	case Commit:
		r.onCommit(from, m)
	case CommitAck:
		r.onCommitAck(m)
	default:
		return false
	}
	return true
}

// onPreAccept merges the leader's view with local interference and replies.
// A repeated PreAccept gets the attributes recorded the first time.
func (r *Replica) onPreAccept(from string, m PreAccept) {
	inst := r.instances[m.Inst]
	if inst == nil {
		local, localSeq := r.interference(m.Cmd.Keys, m.Inst.Replica)
		deps, _ := mergeDeps(m.Deps, local, m.Inst)
		inst = r.record(m.Inst, m.Cmd, deps, max(m.Seq, localSeq), statusPreAccepted)
	}
	changed := inst.seq != m.Seq || len(inst.deps) != len(m.Deps)
	r.send(from, PreAcceptOK{Inst: m.Inst, From: r.name, Deps: inst.deps, Seq: inst.seq, Changed: changed})
}

// onPreAcceptOK gathers replies at the leader and decides fast vs slow path.
func (r *Replica) onPreAcceptOK(m PreAcceptOK) {
	inst := r.instances[m.Inst]
	if inst == nil || !inst.leading || inst.status != statusPreAccepted || inst.replied[m.From] {
		return
	}
	inst.replied[m.From] = true
	if deps, added := mergeDeps(inst.deps, m.Deps, inst.id); added {
		inst.deps, inst.depsChanged = deps, true
	}
	if m.Seq > inst.seq {
		inst.seq, inst.depsChanged = m.Seq, true
	}
	if m.Changed {
		inst.depsChanged = true
	}
	replies := len(inst.replied)
	switch {
	case !inst.depsChanged && (replies >= r.fastQuorum()-1 || replies == len(r.peers)):
		// Fast path: a fast quorum agreed with the initial attributes.
		r.commit(inst)
	case inst.depsChanged && replies >= r.quorum()-1:
		// Slow path: run the Accept round with the merged attributes.
		inst.status, inst.movedAt, inst.replied = statusAccepted, r.ticks, make(map[string]bool)
		r.broadcast(r.peers, Accept{Inst: inst.id, Cmd: inst.cmd, Deps: inst.deps, Seq: inst.seq})
	}
}

// onAccept adopts the leader's final attributes.
func (r *Replica) onAccept(from string, m Accept) {
	if inst := r.instances[m.Inst]; inst == nil || inst.status < statusAccepted {
		r.record(m.Inst, m.Cmd, m.Deps, m.Seq, statusAccepted)
	}
	r.send(from, AcceptOK{Inst: m.Inst, From: r.name})
}

// onAcceptOK counts slow-path acknowledgements at the leader.
func (r *Replica) onAcceptOK(m AcceptOK) {
	inst := r.instances[m.Inst]
	if inst == nil || !inst.leading || inst.status != statusAccepted || inst.replied[m.From] {
		return
	}
	inst.replied[m.From] = true
	if len(inst.replied) >= r.quorum()-1 {
		r.commit(inst)
	}
}

// commit finalises an instance this replica leads and broadcasts the
// decision.
func (r *Replica) commit(inst *instance) {
	inst.status, inst.movedAt, inst.replied = statusCommitted, r.ticks, nil
	r.pending[inst.id] = inst
	r.broadcast(r.peers, Commit{Inst: inst.id, Cmd: inst.cmd, Deps: inst.deps, Seq: inst.seq})
	r.executeFrom(inst)
}

// onCommit installs a commit decided elsewhere.
func (r *Replica) onCommit(from string, m Commit) {
	r.send(from, CommitAck{Inst: m.Inst, From: r.name})
	if inst := r.instances[m.Inst]; inst != nil && inst.status >= statusCommitted {
		return
	}
	inst := r.record(m.Inst, m.Cmd, m.Deps, m.Seq, statusCommitted)
	r.pending[m.Inst] = inst
	r.executeFrom(inst)
}

// onCommitAck records that a peer holds the commit.
func (r *Replica) onCommitAck(m CommitAck) {
	inst := r.instances[m.Inst]
	if inst == nil || !inst.leading {
		return
	}
	if inst.commitAcked == nil {
		inst.commitAcked = make(map[string]bool)
	}
	inst.commitAcked[m.From] = true
}

// Tick advances the replica's clock by one step. An instance this replica
// leads that has not moved for retryTicks ticks gets its current phase sent
// again — the PreAccept or Accept to every peer, the Commit to the peers that
// have not acknowledged it — which recovers lost messages and peers that
// were briefly unreachable. The owner calls it periodically.
func (r *Replica) Tick() {
	r.ticks++
	slots := make([]uint64, 0, len(r.leading))
	for s := range r.leading {
		slots = append(slots, s)
	}
	slices.Sort(slots)
	for _, s := range slots {
		inst := r.leading[s]
		to := r.peers
		if inst.status >= statusCommitted {
			to = nil
			for _, p := range r.peers {
				if !inst.commitAcked[p] {
					to = append(to, p)
				}
			}
			if len(to) == 0 {
				delete(r.leading, s)
				continue
			}
		}
		if r.ticks-inst.movedAt < retryTicks {
			continue
		}
		inst.movedAt = r.ticks
		switch inst.status {
		case statusPreAccepted:
			r.broadcast(to, PreAccept{Inst: inst.id, Cmd: inst.cmd, Deps: inst.deps, Seq: inst.seq})
		case statusAccepted:
			r.broadcast(to, Accept{Inst: inst.id, Cmd: inst.cmd, Deps: inst.deps, Seq: inst.seq})
		default:
			r.broadcast(to, Commit{Inst: inst.id, Cmd: inst.cmd, Deps: inst.deps, Seq: inst.seq})
		}
	}
}

// --- execution ---

// executeFrom runs what the commit of inst makes executable. If one of its
// dependencies is not committed, that is nothing: whatever inst's commit could
// unblock reaches that dependency too.
func (r *Replica) executeFrom(inst *instance) {
	for _, id := range inst.deps {
		if d := r.instances[id]; d == nil || d.status < statusCommitted {
			return
		}
	}
	r.execute()
}

// execute runs, in dependency order, every committed instance whose
// dependency closure is committed, and hands each command to exec once. It
// is Tarjan's algorithm over the committed, unexecuted instances only (as
// roots, in id order), so its cost does not grow with history. Tarjan emits
// each SCC after every SCC it reaches, so the SCC runs at once if every
// dependency outside it is executed — possibly earlier in this pass — and is
// blocked otherwise: by an uncommitted or unknown instance, or a blocked SCC,
// which so blocks everything that depends on it.
func (r *Replica) execute() {
	r.epoch++
	roots := make([]InstanceID, 0, len(r.pending))
	for id := range r.pending {
		roots = append(roots, id)
	}
	slices.SortFunc(roots, compareIDs)
	s := &search{r: r}
	for _, id := range roots {
		if in := r.pending[id]; in != nil && in.mark != r.epoch {
			s.visit(in)
		}
	}
}

// search is one pass of Tarjan's algorithm; its per-instance state lives on
// the instances, valid while their mark equals the replica's epoch.
type search struct {
	r     *Replica
	next  int
	stack []*instance
}

func (s *search) visit(v *instance) {
	r := s.r
	v.mark, v.index, v.low, v.onStack = r.epoch, s.next, s.next, true
	s.next++
	s.stack = append(s.stack, v)
	for _, id := range v.deps {
		d := r.instances[id]
		if d == nil || d.status != statusCommitted {
			continue // executed (fine) or uncommitted (run blocks on it)
		}
		if d.mark != r.epoch {
			s.visit(d)
			v.low = min(v.low, d.low)
		} else if d.onStack {
			v.low = min(v.low, d.index)
		}
	}
	if v.low != v.index {
		return
	}
	i := len(s.stack) - 1
	for s.stack[i] != v {
		i--
	}
	comp := slices.Clone(s.stack[i:])
	s.stack = s.stack[:i]
	for _, in := range comp {
		in.onStack = false
	}
	r.run(comp)
}

// run executes an SCC just emitted by the search, or marks it blocked. A
// committed dependency outside the SCC was emitted before it, so it is
// executed by now unless it was blocked.
func (r *Replica) run(comp []*instance) {
	for _, in := range comp {
		for _, id := range in.deps {
			d := r.instances[id]
			if d == nil || d.status < statusCommitted || d.status == statusCommitted && d.blocked == r.epoch {
				for _, in := range comp {
					in.blocked = r.epoch
				}
				return
			}
		}
	}
	orderComponent(comp)
	for _, in := range comp {
		in.status = statusExecuted
		delete(r.pending, in.id)
		if in.cmd.ID != "" && !r.executed[in.cmd.ID] {
			r.executed[in.cmd.ID] = true
			if r.exec != nil {
				r.exec(in.cmd)
			}
		}
	}
}

// orderComponent sorts an SCC into execution order: by (seq, instance id),
// then each leader's commands take that leader's positions in slot order, so
// a leader's interfering commands execute in the order it proposed them.
// The order is a function of the component alone, so it is identical at
// every replica — which is what makes the visibility order a total order
// for interfering commands.
func orderComponent(comp []*instance) {
	if len(comp) < 2 {
		return
	}
	slices.SortFunc(comp, func(a, b *instance) int {
		return cmp.Or(cmp.Compare(a.seq, b.seq), compareIDs(a.id, b.id))
	})
	own := make(map[string][]*instance)
	for _, in := range comp {
		own[in.id.Replica] = append(own[in.id.Replica], in)
	}
	for _, l := range own {
		slices.SortFunc(l, func(a, b *instance) int { return cmp.Compare(a.id.Slot, b.id.Slot) })
	}
	for i, in := range comp {
		l := own[in.id.Replica]
		comp[i], own[in.id.Replica] = l[0], l[1:]
	}
}

// --- helpers ---

func compareIDs(a, b InstanceID) int {
	return cmp.Or(cmp.Compare(a.Replica, b.Replica), cmp.Compare(a.Slot, b.Slot))
}

// mergeDeps returns the sorted union of a (sorted, without self) and b,
// leaving out self, and whether b added anything. a is returned unchanged
// when nothing was added and is never modified.
func mergeDeps(a, b []InstanceID, self InstanceID) ([]InstanceID, bool) {
	out := slices.DeleteFunc(slices.Concat(a, b), func(id InstanceID) bool { return id == self })
	slices.SortFunc(out, compareIDs)
	if out = slices.Compact(out); len(out) == len(a) {
		return a, false
	}
	return out, true
}
