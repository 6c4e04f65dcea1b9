package dc

// DC-to-DC replication as a sequenced stream (DESIGN §4c, wire.ReplBatch): a
// DC sends each peer d.own, its own records in stamp order, keeping only a
// position per peer; the peer holds the cursor. A refusal, or a silence of
// the peer's acks behind the sender, rewinds it; an ack re-sends nothing.

import (
	"errors"
	"sort"
	"time"

	"colony/internal/store"
	"colony/internal/txn"
	"colony/internal/vclock"
	"colony/internal/wire"
)

// replPeer is the sending half of one peer's replication stream; the fields
// after wake are guarded by d.mu. next is the position in d.own the next
// batch starts at, acked the position the peer last reported admitting
// through, and rewound where the last rewind went (-1 before the first).
// quiet is when acked last moved, or the sender caught up with it or rewound.
type replPeer struct {
	idx         int
	name        string
	wake        chan struct{} // capacity 1: one wake-up covers every append
	next, acked int
	rewound     int
	quiet       time.Time
}

// silence is how long a peer's acked position may sit behind what was sent
// before the sender rewinds to it: a lost batch at the tail of a burst leaves
// no later batch to be refused.
func (d *DC) silence() time.Duration { return 10 * d.cfg.Heartbeat }

// SetPeers wires the other DCs (index → network node name) and starts one
// replication sender per new peer, at the end of d.own: a restarted DC learns
// what a peer lacks when the peer refuses its first batch, and a peer whose
// batch a restarted DC cannot connect resumes from its replayed state.
func (d *DC) SetPeers(peers map[int]string) {
	d.mu.Lock()
	defer d.mu.Unlock()
	for idx, name := range peers {
		if idx < 0 || idx >= len(d.in) || idx == d.cfg.Index || d.repl[idx] != nil || d.closed {
			continue
		}
		p := &replPeer{idx: idx, name: name, wake: make(chan struct{}, 1), next: len(d.own), acked: len(d.own), rewound: -1}
		d.repl[idx] = p
		d.pipeWG.Add(1)
		go d.runReplSender(p)
	}
}

// peerNamesLocked lists the peers' network names. Called with d.mu held.
func (d *DC) peerNamesLocked() []string {
	peers := make([]string, 0, len(d.repl))
	for _, p := range d.repl {
		peers = append(peers, p.name)
	}
	return peers
}

// runReplSender is one peer's sender. Woken by a completion, a rewind or a
// heartbeat tick with records unsent, it sends the peer its next batch; a
// batch cut short at wire.RangeMax wakes it again once sent. A refused send
// puts the position back and wakes nothing: the next completion or heartbeat
// tick retries, so a partitioned peer costs no send loop.
func (d *DC) runReplSender(p *replPeer) {
	defer d.pipeWG.Done()
	for {
		select {
		case <-d.pipeStop:
			return
		case <-p.wake:
		}
		d.mu.Lock()
		b, ok := d.replBatchLocked(p)
		more := b.Hi < len(d.own)
		d.mu.Unlock()
		if !ok {
			continue
		}
		b.Txs, b.WantSeq = d.scopeBatch(p.idx, b.Txs)
		b.SentAt = time.Now()
		d.obsReplBatch.Observe(int64(len(b.Txs)))
		if d.node.Send(p.name, b) == nil {
			if more {
				wake(p.wake)
			}
			continue
		}
		d.mu.Lock()
		if p.next == b.Hi {
			p.next = b.Lo
		}
		d.mu.Unlock()
	}
}

// replBatchLocked takes the peer's next batch — the records of d.own from its
// position on, at most wire.RangeMax of them, the recorded transactions
// themselves — and moves the position past it. Masked records go too: each
// peer applies its own visibility. Called with d.mu held.
func (d *DC) replBatchLocked(p *replPeer) (wire.ReplBatch, bool) {
	lo := p.next
	hi := min(len(d.own), lo+wire.RangeMax)
	if lo >= hi {
		return wire.ReplBatch{}, false
	}
	b := wire.ReplBatch{From: d.cfg.Index, Txs: make([]*txn.Transaction, hi-lo), State: d.state.Clone(), Gen: d.fan.boot, Lo: lo, Hi: hi}
	for i, pos := range d.own[lo:hi] {
		b.Txs[i] = d.hist[pos].t
	}
	if lo > 0 {
		b.Floor = d.ownStampLocked(lo - 1)
	}
	if p.acked >= lo {
		p.quiet = time.Now() // the peer was caught up: a silence starts now
	}
	p.next = hi
	return b, true
}

// heartbeatLocked is this DC's heartbeat to peer p: its state, and its
// cursor into p's stream. Called with d.mu held.
func (d *DC) heartbeatLocked(p *replPeer, refuse bool) wire.ReplHeartbeat {
	cur := d.in[p.idx]
	return wire.ReplHeartbeat{From: d.cfg.Index, State: d.state.Clone(), Gen: cur.Gen, Cursor: cur.Idx, Refuse: refuse}
}

// heartbeatLoop gossips each peer this DC's state and cursor, so stability
// advances during quiet periods. It rewinds a sender whose peer has been
// silent behind it, and wakes one with records unsent (a send refused during
// a partition) to retry.
func (d *DC) heartbeatLoop() {
	defer d.pipeWG.Done()
	ticker := time.NewTicker(d.cfg.Heartbeat)
	defer ticker.Stop()
	for ticks := 1; ; ticks++ {
		select {
		case <-ticker.C:
		case <-d.pipeStop:
			return
		}
		if d.partial && ticks%32 == 1 {
			// Interest sets gossip on every change; the periodic re-broadcast
			// converges peers that booted later or missed the change broadcast.
			d.gossipBuckets()
		}
		now := time.Now()
		d.mu.Lock()
		peers := make([]*replPeer, 0, len(d.repl))
		msgs := make([]wire.ReplHeartbeat, 0, len(d.repl))
		for _, p := range d.repl {
			peers, msgs = append(peers, p), append(msgs, d.heartbeatLocked(p, false))
			if p.acked < p.next && now.Sub(p.quiet) >= d.silence() {
				d.rewindLocked(p, p.acked, now)
			} else if p.next < len(d.own) {
				wake(p.wake)
			}
		}
		d.notifySubscribersLocked(true)
		d.mu.Unlock()
		for i, p := range peers {
			_ = d.node.Send(p.name, msgs[i]) // outside d.mu: a send may dial
		}
	}
}

// heardLocked takes a peer's heartbeat: its cursor into this DC's stream. An
// ack records it; a refusal rewinds the sender to it. A cursor of another
// generation — the peer holds no position in this one yet, or either side
// restarted — rewinds the sender to the first record the peer's state does
// not cover. Called with d.mu held.
func (d *DC) heardLocked(p *replPeer, m wire.ReplHeartbeat) {
	now := time.Now()
	if m.Gen != d.fan.boot {
		known := m.State.Get(d.cfg.Index)
		p.acked = sort.Search(len(d.own), func(i int) bool { return d.ownStampLocked(i) > known })
		d.rewindLocked(p, p.acked, now)
		return
	}
	if m.Cursor > p.acked {
		p.acked, p.quiet = min(m.Cursor, len(d.own)), now
	}
	if m.Refuse {
		d.rewindLocked(p, m.Cursor, now)
	}
}

// rewindLocked moves the peer's sender to position to and wakes it, unless
// it rewound there less than a silence ago and nothing moved since: then this
// refuses a batch sent before that rewind. Called with d.mu held.
func (d *DC) rewindLocked(p *replPeer, to int, now time.Time) {
	to = min(max(to, 0), len(d.own))
	if to == p.rewound && now.Sub(p.quiet) < d.silence() {
		return
	}
	p.next, p.rewound, p.quiet = to, to, now
	wake(p.wake)
}

// replBacklog is the replication backlog behind the dc.repl_outbox_depth
// gauge: the positions of d.own, summed over peers, a peer has not acked.
func (d *DC) replBacklog() int64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	n := 0
	for _, p := range d.repl {
		n += len(d.own) - min(p.acked, len(d.own))
	}
	return int64(n)
}

// receiveReplicated takes a batch of a peer's stream. One that connects to
// this DC's cursor into that stream is admitted in one mesh call and applied
// under one d.mu section, overlaps deduplicated by dot, and acked; one
// that does not is refused whole. The mesh releases each origin's records in
// stream order, so this DC's component for the origin covers only a prefix
// of the stream it holds.
func (d *DC) receiveReplicated(m wire.ReplBatch) {
	d.obsReplRx.Add(int64(len(m.Txs)))
	if !m.SentAt.IsZero() {
		d.obsReplLat.Observe(int64(time.Since(m.SentAt)))
	}
	if m.From < 0 || m.From >= len(d.in) || m.From == d.cfg.Index {
		return
	}
	d.mesh.ObservePeer(m.From, m.State)
	d.mu.Lock()
	if d.closed {
		d.mu.Unlock()
		return
	}
	// The WantSeq guard (partial.go): a batch scoped against an interest set
	// older than this DC's latest bucket addition may stub a bucket it now
	// holds. Checked under d.mu, so no backfill reads a state between the
	// check and the admission.
	d.bmu.Lock()
	stale := m.WantSeq != 0 && m.WantSeq < d.wantFloor
	d.bmu.Unlock()
	cur := &d.in[m.From]
	seen := *cur
	admitted := !stale && d.connectsLocked(cur, m)
	if admitted {
		incoming := make([]*txn.Transaction, 0, len(m.Txs))
		for _, t := range m.Txs {
			if t == nil {
				continue
			}
			// The origin's stamp alone: one it absorbed from a third DC (an
			// edge commit sequenced twice) reaches this DC on that DC's own
			// stream, in its order, and must not lift its component here.
			if ts, ok := t.Commit[m.From]; !ok {
				continue
			} else if len(t.Commit) > 1 {
				t = t.WithCommit(vclock.CommitStamps{m.From: ts})
			}
			incoming = append(incoming, t)
		}
		// A copy of a dot this DC holds — the overlap below the cursor, or
		// another DC's copy — gives only its stamps (takeStampsLocked), in
		// the origin's order like any record.
		for _, t := range d.mesh.AdmitBatch(incoming, d.state) {
			if d.takeStampsLocked(t) {
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
	}
	// The ack of a batch that moved the cursor, or the refusal: either way
	// the sender's K-stability frontier learns this DC's state promptly.
	p := d.repl[m.From]
	if p == nil || (admitted && *cur == seen) {
		d.mu.Unlock()
		return
	}
	hb := d.heartbeatLocked(p, !admitted)
	d.mu.Unlock()
	_ = d.node.Send(p.name, hb)
}

// connectsLocked admits batch m to this DC's cursor into its origin's stream
// if it connects: same generation and no gap, or, in any generation, a Floor
// this DC's state covers, since it then holds every record of the stream
// below Lo. Called with d.mu held.
func (d *DC) connectsLocked(cur *wire.PushCursor, m wire.ReplBatch) bool {
	if len(m.Txs) != m.Hi-m.Lo {
		return false
	}
	if cur.Admit(m.Gen, m.Lo, m.Hi) {
		return true
	}
	if m.Gen == 0 || m.Floor > d.state.Get(m.From) {
		return false
	}
	*cur = wire.PushCursor{Gen: m.Gen, Idx: m.Hi}
	return true
}

// absorbLocked merges stamps — a peer's copy's — into the transaction at
// history position pos: its record, its store entry and the state vector.
// The same edge commit can be sequenced twice — by a DC whose ack was lost
// and by the DC the edge re-sent it to — and each DC then records the copy
// that reached it first. Every stamp names the same transaction, so a DC
// holding it holds what each stamp names: without the merge, its state would
// never cover the other DC's stamp, and a later commit naming that stamp in
// its snapshot (the edge saw it pushed) would be refused here, or stay
// pending in admission, until that DC stamps something newer. The record's
// pointer is swapped, like every holder's: pushes in flight keep the value
// they share. The merged record is logged too, and replay absorbs it into the
// first, so a restart keeps the merge.
func (d *DC) absorbLocked(pos int, stamps vclock.CommitStamps) {
	rec := &d.hist[pos]
	merged := rec.t.Commit.Merge(stamps)
	if len(merged) == len(rec.t.Commit) {
		return
	}
	old := rec.t.Commit
	rec.t = rec.t.WithCommit(merged)
	if rec.masked {
		for i, ts := range merged {
			if _, ok := old[i]; !ok {
				d.addMaskRootLocked(i, ts, rec.t)
			}
		}
	}
	_ = d.coord.ApplyCommitted(rec.t) // the stores absorb a duplicate's stamps
	d.state = merged.JoinInto(d.state, rec.t.Snapshot)
	d.persist(rec.t)
}

// takeStampsLocked reports whether t is a copy of a dot this DC holds, and
// if so takes the copy's stamps: into the record at once, or, while the dot
// awaits its record, into d.unrecorded for complete to absorb.
func (d *DC) takeStampsLocked(t *txn.Transaction) bool {
	if pos, recorded := d.byDot[t.Dot]; recorded {
		d.absorbLocked(pos, t.Commit)
		return true
	}
	early, waiting := d.unrecorded[t.Dot]
	if waiting {
		d.unrecorded[t.Dot] = early.Merge(t.Commit)
	}
	return waiting
}
