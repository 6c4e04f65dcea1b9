// Tree multicast over the interest-sharded fan-out (paper §3.4).
//
// The fan-out builds one sealed frame per interest shard; sending it once per
// subscriber would make DC egress 100k sends per flush at 100k subscribers
// even though only ~8k distinct frames exist. This file organises each
// shard's relay-capable subscribers (wire.Subscribe.Relay — edge nodes and
// group sync points) into subtrees of bounded degree: one root plus at most
// treeDegree children. The flush sends the sealed frame once per subtree root
// as a wire.TreePush; the root re-fans the same frame out to its children and
// returns one aggregated wire.TreeAck. DC egress then scales with the subtree
// count, not the subscriber count.
//
// Correctness leans entirely on PR 5's cursor machinery:
//
//   - A subtree rides the tree path only when every member shares the same
//     delivery cursor (the steady state — members of one shard advance in
//     lockstep). Any divergence, and the whole tree falls back to the direct
//     per-cursor groups for that flush; cursors re-align at the flush
//     frontier and the next flush rides the tree again.
//   - Cursors are advanced optimistically when the network accepts the
//     TreePush. Every tree send registers a pending receipt *before* the
//     send; the root's TreeAck retires it. A child the root could not reach
//     (TreeAck.Failed), a root without a current child table
//     (TreeAck.Dropped), or a receipt that times out (relay crash) rewinds
//     the affected cursors to the pending's pre-send position — exactly the
//     state a failed direct send would have left — and kicks the shard, so
//     the PR 5 repair frame re-covers them directly. Fault-path overlap is
//     deduplicated by dot downstream, like every other repair.
//   - Child tables are installed by wire.TreeAssign on the same FIFO link as
//     the pushes they govern, re-sent (with a bumped epoch) before the first
//     push after any membership change. A relay holding no table, or one at
//     another epoch, refuses to guess: it applies the frame locally and
//     reports Dropped.
//
// Trees are two-level by design: ack aggregation is a single hop, a relay
// crash affects at most treeDegree subscribers, and at degree 16 the egress
// reduction already exceeds an order of magnitude on Zipf-shaped interest.
// Deeper trees (relays under relays) are a follow-on.
package dc

import (
	"time"

	"colony/internal/txn"
	"colony/internal/vclock"
	"colony/internal/wire"
)

// Tree sizing, fixed at the values every deployment ran with while they were
// still configurable.
const (
	// treeDegree bounds a multicast subtree: one relay root plus at most
	// treeDegree children.
	treeDegree = 16
	// treeAckTimeout bounds how long the DC waits for a subtree root's
	// forwarding receipt before assuming the relay died: the affected
	// subscribers' cursors are rewound (the repair path re-covers them
	// directly) and the tree is re-rooted.
	treeAckTimeout = 2 * time.Second
)

// treePending is one outstanding TreePush receipt: the cursor range the send
// covered, recorded before the send so an ack (or its absence) can rewind
// precisely. subs and root snapshot the membership the push actually covered
// — rewinds must target those subscriptions, not the tree's current members,
// because a member that leaves the tree between the push and the ack (e.g. a
// signature change moved it to another shard) still owns the optimistically
// advanced cursor. Guarded by the fanout mutex; pendings are FIFO (seq
// order).
type treePending struct {
	seq    uint64
	di, hi int
	gen    uint64
	at     time.Time
	subs   []*subscription
	root   *subscription
}

// pushTree is one multicast subtree of a shard: a relay root plus children,
// all members of the same interest shard. Guarded by the fanout mutex.
type pushTree struct {
	root    *subscription
	members []*subscription // root included
	// epoch versions the child table; bumped whenever the membership (or
	// root) changes, and re-advertised by a TreeAssign before the next push.
	epoch uint64
	// dirty marks that the current membership has not been advertised to the
	// root yet.
	dirty bool
	// seq numbers TreePush frames on this subtree (ack matching).
	seq     uint64
	pending []treePending
	// ver counts mutations that invalidate an in-flight eligibility scan:
	// membership or root changes and member-cursor rewinds (ack failure,
	// sweeper expiry, resume/reconnect), all made under the fanout mutex.
	// planTreeSends snapshots ver, scans member cursors with the mutex
	// released, and registers receipts only for trees whose ver is unchanged
	// — a tree that churned or rewound mid-scan simply falls back to the
	// direct path for that flush. Rewinds racing the window *after*
	// registration are caught per member by subscription.rewinds, which the
	// post-send advance re-checks under outMu.
	ver uint64
}

// childNames returns the member names minus the root — the table a
// TreeAssign advertises.
func (tr *pushTree) childNames() []string {
	names := make([]string, 0, len(tr.members)-1)
	for _, s := range tr.members {
		if s != tr.root {
			names = append(names, s.node)
		}
	}
	return names
}

// attachTreeLocked places a relay-capable subscription into one of the
// shard's subtrees: the first tree with spare degree, or a fresh tree rooted
// at the subscription. Called with the fanout mutex held.
func (f *fanout) attachTreeLocked(sh *pushShard, sub *subscription) {
	for _, tr := range sh.trees {
		if len(tr.members) <= treeDegree {
			tr.members = append(tr.members, sub)
			tr.dirty = true
			tr.ver++
			sub.tree = tr
			return
		}
	}
	tr := &pushTree{root: sub, members: []*subscription{sub}}
	sh.trees = append(sh.trees, tr)
	if sh.treeByRoot == nil {
		sh.treeByRoot = make(map[string]*pushTree)
	}
	sh.treeByRoot[sub.node] = tr
	sub.tree = tr
}

// detachTreeLocked removes a subscription from its subtree, re-rooting or
// dropping the tree as needed. Called with the fanout mutex held.
func (f *fanout) detachTreeLocked(sh *pushShard, sub *subscription) {
	tr := sub.tree
	if tr == nil {
		return
	}
	sub.tree = nil
	tr.ver++
	for i, s := range tr.members {
		if s == sub {
			tr.members = append(tr.members[:i], tr.members[i+1:]...)
			break
		}
	}
	if len(tr.members) == 0 {
		for i, t := range sh.trees {
			if t == tr {
				sh.trees = append(sh.trees[:i], sh.trees[i+1:]...)
				break
			}
		}
		delete(sh.treeByRoot, tr.root.node)
		return
	}
	if tr.root == sub {
		delete(sh.treeByRoot, sub.node)
		tr.root = tr.members[0]
		sh.treeByRoot[tr.root.node] = tr
		// The old root's pendings will never be acked; expire them now so
		// the sweeper does not wait out the timeout for a known-gone relay.
		f.expirePendingsLocked(sh, tr, tr.pending)
		tr.pending = tr.pending[:0]
	}
	tr.dirty = true
}

// rotateRootLocked demotes a misbehaving root (failed send, ack timeout) and
// promotes another member. With a single member there is nothing to rotate —
// the tree is below the 2-member send threshold anyway. Called with the
// fanout mutex held.
func (f *fanout) rotateRootLocked(sh *pushShard, tr *pushTree) {
	for _, s := range tr.members {
		if s != tr.root {
			delete(sh.treeByRoot, tr.root.node)
			tr.root = s
			sh.treeByRoot[s.node] = tr
			break
		}
	}
	tr.dirty = true
	tr.ver++
}

// expirePendingsLocked treats every given pending receipt as failed: the
// members each send covered (the pending's snapshot — membership may have
// churned since) are rewound to that send's pre-send cursor, and the shard is
// kicked so the next flush repairs them directly. Pendings are FIFO, so the
// `>` guard lands every member on the lowest cursor among the sends that
// covered it. Called with the fanout mutex held.
func (f *fanout) expirePendingsLocked(sh *pushShard, tr *pushTree, expired []treePending) {
	if len(expired) == 0 {
		return
	}
	f.d.obsTreeRepairs.Add(int64(len(expired)))
	tr.ver++ // cursors rewind below: invalidate any in-flight scan or advance
	for _, p := range expired {
		for _, s := range p.subs {
			s.outMu.Lock()
			if s.fanGen == p.gen {
				if s.deliveredIdx > p.di {
					s.deliveredIdx = p.di
				}
				s.rewinds++
			}
			s.outMu.Unlock()
			if s.shard != nil && s.shard != sh {
				// The member moved shards since the push: the repair must
				// flush where it lives now.
				f.kickLocked(s.shard)
			}
		}
	}
	f.kickLocked(sh)
}

// kickLocked queues a zero-width segment so the next flush of the shard
// repairs any stale member cursors. Called with the fanout mutex held.
func (f *fanout) kickLocked(sh *pushShard) {
	sh.segs = append(sh.segs, pushSeg{lo: f.idx, hi: f.idx, stable: f.stable})
	f.dirtyLocked(sh)
}

// treeSend is one planned TreePush: the subtree, the cursor group it serves,
// and the (optional) assign that must precede it on the root's FIFO link.
type treeSend struct {
	tr     *pushTree
	root   string
	subs   []*subscription
	di     int
	seq    uint64
	epoch  uint64
	assign *wire.TreeAssign
	// rew[i] is subs[i].rewinds at the eligibility scan; the post-send
	// optimistic advance re-checks it under each member's outMu and backs
	// off (per subscriber) when a rewind raced the send.
	rew []uint64
}

// planTreeSends decides which subtrees ride the tree path this flush. A
// subtree qualifies when it has at least two members and every member is at
// the same delivery cursor with work to do; the receipt is registered
// *before* the send, so a racing ack can never arrive unmatched (a send
// that subsequently fails takes its receipt back via dropPending). Members
// of qualifying trees are returned in covered and skipped by the direct
// path.
//
// The member-cursor scan is the bulk of the work — one outMu acquisition per
// subscriber — and at 100k subscribers holding the fanout mutex across it
// would stall every commit-path segment enqueue for milliseconds per flush
// (the direct path's cursor grouping runs without it). So the scan runs in
// three phases: snapshot the candidate trees under f.mu, check eligibility
// with f.mu released, then re-take f.mu to register receipts — guarded by
// each tree's ver counter, which every membership change and cursor rewind
// bumps under f.mu. A tree that mutated mid-scan is skipped and its members
// fall through to the direct path for this flush.
func (d *DC) planTreeSends(sh *pushShard, hi int, stable vclock.Vector, gen uint64) (plans []treeSend, covered map[*subscription]bool) {
	f := d.fan

	// Phase 1: snapshot candidates under f.mu. Member slices are copied so
	// the unlocked scan never observes a concurrent splice.
	type candidate struct {
		tr      *pushTree
		ver     uint64
		members []*subscription
	}
	f.mu.Lock()
	cands := make([]candidate, 0, len(sh.trees))
	for _, tr := range sh.trees {
		if len(tr.members) < 2 {
			continue
		}
		cands = append(cands, candidate{
			tr:      tr,
			ver:     tr.ver,
			members: append([]*subscription(nil), tr.members...),
		})
	}
	f.mu.Unlock()
	if len(cands) == 0 {
		return nil, nil
	}

	// Phase 2: eligibility scan without f.mu. Each member's rewind counter
	// is snapshotted with its cursor so the post-send advance can detect a
	// rewind that races the send.
	dis := make([]int, len(cands))
	rews := make([][]uint64, len(cands))
	eligible := make([]candidate, 0, len(cands))
	for _, c := range cands {
		di, ok := -1, true
		rew := make([]uint64, len(c.members))
		for j, sub := range c.members {
			sub.outMu.Lock()
			genOK := sub.fanGen == gen
			sdi := sub.deliveredIdx
			rew[j] = sub.rewinds
			upToDate := sdi >= hi && stable.LEQ(sub.sentStable)
			sub.outMu.Unlock()
			if !genOK || upToDate {
				ok = false
				break
			}
			if sdi > hi {
				sdi = hi
			}
			if di < 0 {
				di = sdi
			} else if di != sdi {
				ok = false
				break
			}
		}
		if !ok || di < 0 {
			continue
		}
		dis[len(eligible)] = di
		rews[len(eligible)] = rew
		eligible = append(eligible, c)
	}
	if len(eligible) == 0 {
		return nil, nil
	}

	// Phase 3: register receipts under f.mu for trees whose ver is
	// unchanged — no membership change, no rewind since the snapshot, so
	// the scanned cursors are still authoritative (flushes of one shard
	// never run concurrently, and every other cursor writer bumps ver).
	now := time.Now()
	f.mu.Lock()
	defer f.mu.Unlock()
	for i, c := range eligible {
		tr := c.tr
		if tr.ver != c.ver {
			continue
		}
		plan := treeSend{
			tr:   tr,
			root: tr.root.node,
			subs: c.members,
			di:   dis[i],
			rew:  rews[i],
		}
		if tr.dirty {
			tr.epoch++
			tr.dirty = false
			plan.assign = &wire.TreeAssign{
				From:     d.cfg.Name,
				Shard:    sh.id,
				Epoch:    tr.epoch,
				Children: tr.childNames(),
			}
		}
		tr.seq++
		plan.seq, plan.epoch = tr.seq, tr.epoch
		tr.pending = append(tr.pending, treePending{
			seq: plan.seq, di: plan.di, hi: hi, gen: gen, at: now,
			subs: c.members, root: tr.root,
		})
		if covered == nil {
			covered = make(map[*subscription]bool, len(plan.subs))
		}
		for _, s := range plan.subs {
			covered[s] = true
		}
		plans = append(plans, plan)
	}
	return plans, covered
}

// sendTrees executes one flush's planned subtree sends as a batch: the
// sealed frame is built once per distinct cursor (in steady state every tree
// shares one), the (rare) TreeAssigns go out first on each root's FIFO link,
// and every TreePush rides a single transport SendEach pass — at 100k
// subscribers a flush covers thousands of subtrees, and per-send scheduling
// overhead is exactly what the tree path exists to amortise. Cursor advances
// are optimistic; the receipts planTreeSends registered (and the sweeper
// behind them) rewind any member a root fails to serve. A refused push
// demotes its root so the next flush tries another relay.
func (d *DC) sendTrees(sh *pushShard, plans []treeSend, segs []pushSeg, starts []int, filtered []*txn.Transaction, stable vclock.Vector, hi int, gen uint64) {
	type built struct {
		frame wire.PushFrame
		ok    bool
	}
	frames := make(map[int]built, 1)
	roots := make([]string, 0, len(plans))
	msgs := make([]any, 0, len(plans))
	live := make([]treeSend, 0, len(plans))
	for _, plan := range plans {
		fr, seen := frames[plan.di]
		if !seen {
			fr.frame, fr.ok = d.shardFrameFor(sh, segs, starts, filtered, stable, plan.di, gen)
			frames[plan.di] = fr
			if fr.ok {
				d.obsFramesBuilt.Inc()
				d.obsPushBatch.Observe(int64(len(fr.frame.Txs)))
			}
		}
		if !fr.ok {
			// Log generation changed under us; the rescan re-covers everyone.
			d.dropPending(plan, plan.assign != nil)
			continue
		}
		if plan.assign != nil {
			if err := d.node.Send(plan.root, *plan.assign); err != nil {
				// Without a current child table the push would come back
				// Dropped anyway: skip the tree this flush. Cursors stay put,
				// so a later flush repairs the members (or retries the
				// assign).
				d.dropPending(plan, true)
				continue
			}
			d.obsTreeAssigns.Inc()
			d.obsPushSends.Inc()
		}
		d.obsFramesShared.Add(int64(len(plan.subs) - 1))
		roots = append(roots, plan.root)
		msgs = append(msgs, wire.SealTreeFrame(d.cfg.Name, sh.id, plan.epoch, plan.seq, fr.frame.Txs, fr.frame.Stable))
		live = append(live, plan)
	}
	if len(live) == 0 {
		return
	}
	errs := d.node.SendEach(roots, msgs)
	for i, plan := range live {
		if errs != nil && errs[i] != nil {
			d.dropPending(plan, false)
			d.fan.mu.Lock()
			d.fan.rotateRootLocked(sh, plan.tr)
			d.fan.mu.Unlock()
			continue
		}
		d.obsPushSends.Inc()
		// Advance optimistically — but only members whose rewind counter
		// still matches the eligibility scan: a rewind that fired since
		// (TreeAck failure for an earlier pending, sweeper expiry,
		// resume/reconnect) bumped it, and overwriting its cursor with hi
		// would permanently skip the replay gap it requested. The check and
		// the advance share the member's outMu, so they are atomic against
		// every rewinder; no hot-path fanout-mutex acquisition. Backing off
		// is always safe: the cursor stays put, the rewinder's kick
		// re-covers the member, and the overlap deduplicates by dot.
		for j, sub := range plan.subs {
			sub.outMu.Lock()
			if sub.fanGen == gen && sub.rewinds == plan.rew[j] {
				if hi > sub.deliveredIdx {
					sub.deliveredIdx = hi
				}
				if sub.sentStable.LEQ(stable) {
					sub.sentStable = stable
				}
			}
			sub.outMu.Unlock()
		}
	}
}

// dropPending withdraws a receipt whose send never made it onto the wire
// (frame build raced a log rebuild, or the transport refused the frame), and
// undoes the assign's epoch advertisement when the assign itself failed.
func (d *DC) dropPending(plan treeSend, reassign bool) {
	f := d.fan
	f.mu.Lock()
	tr := plan.tr
	for i := range tr.pending {
		if tr.pending[i].seq == plan.seq {
			tr.pending = append(tr.pending[:i], tr.pending[i+1:]...)
			break
		}
	}
	if reassign {
		tr.dirty = true
	}
	f.mu.Unlock()
}

// handleTreeAck applies a subtree root's aggregated forwarding receipt: the
// acked sequence retires every receipt at or below it (the root's link is
// FIFO), and any child the root could not serve — named in Failed, or all of
// them when the root held no current child table (Dropped) — is rewound to
// the receipt's pre-send cursor so the next flush repairs it directly.
func (d *DC) handleTreeAck(m wire.TreeAck) {
	f := d.fan
	f.mu.Lock()
	defer f.mu.Unlock()
	sh := f.byID[m.Shard]
	if sh == nil {
		return
	}
	tr := sh.treeByRoot[m.Node]
	if tr == nil {
		// Unknown or since-demoted root; its receipts were already expired.
		return
	}
	var matched *treePending
	keep := tr.pending[:0]
	for i := range tr.pending {
		p := tr.pending[i]
		if p.seq > m.Seq {
			keep = append(keep, p)
			continue
		}
		if p.seq == m.Seq {
			pm := p
			matched = &pm
		}
	}
	tr.pending = keep
	if matched == nil {
		return
	}
	// Rewind against the membership the pending actually covered, not the
	// tree's current members: a child that left the tree (or shard) after the
	// push still owns the optimistically advanced cursor and needs the
	// repair.
	var rewind []*subscription
	if m.Dropped {
		// The root never forwarded: its child table was missing or stale.
		// Re-advertise and re-cover every child.
		tr.dirty = true
		for _, s := range matched.subs {
			if s != matched.root {
				rewind = append(rewind, s)
			}
		}
	} else if len(m.Failed) > 0 {
		failed := make(map[string]bool, len(m.Failed))
		for _, name := range m.Failed {
			failed[name] = true
		}
		for _, s := range matched.subs {
			if failed[s.node] {
				rewind = append(rewind, s)
			}
		}
	}
	if len(rewind) == 0 {
		return
	}
	d.obsTreeRepairs.Inc()
	tr.ver++ // cursors rewind below: invalidate any in-flight scan or advance
	for _, s := range rewind {
		s.outMu.Lock()
		if s.fanGen == matched.gen {
			if s.deliveredIdx > matched.di {
				s.deliveredIdx = matched.di
			}
			// Bumped even when the cursor had not advanced yet (the ack beat
			// the optimistic advance): the pending advance must still back
			// off, or it would mark the failed range delivered.
			s.rewinds++
		}
		s.outMu.Unlock()
		if s.shard != nil && s.shard != sh {
			// The member moved shards since the push: the repair must flush
			// where it lives now.
			f.kickLocked(s.shard)
		}
	}
	f.kickLocked(sh)
}

// runTreeSweeper expires TreePush receipts that were never acked: the root
// crashed (or is partitioned) after the network accepted the frame, so no
// TreeAck will ever arrive. Every member the orphaned sends covered is
// rewound and the tree is re-rooted — the surviving subscribers converge via
// the direct repair path even though the relay died holding their frames.
func (d *DC) runTreeSweeper() {
	defer d.pipeWG.Done()
	f := d.fan
	tick := time.NewTicker(treeAckTimeout / 4)
	defer tick.Stop()
	for {
		select {
		case <-d.pipeStop:
			return
		case <-tick.C:
		}
		cutoff := time.Now().Add(-treeAckTimeout)
		f.mu.Lock()
		if f.stopped {
			f.mu.Unlock()
			return
		}
		for _, sh := range f.shards {
			for _, tr := range sh.trees {
				n := 0
				for n < len(tr.pending) && tr.pending[n].at.Before(cutoff) {
					n++
				}
				if n == 0 {
					continue
				}
				expired := append([]treePending(nil), tr.pending[:n]...)
				tr.pending = append(tr.pending[:0], tr.pending[n:]...)
				f.expirePendingsLocked(sh, tr, expired)
				f.rotateRootLocked(sh, tr)
			}
		}
		f.mu.Unlock()
	}
}

// TreeTopology reports the current multicast forest as root → children node
// names (tests and debugging). Trees below the two-member send threshold are
// included; subscribers outside any tree are not.
func (d *DC) TreeTopology() map[string][]string {
	out := make(map[string][]string)
	d.fan.mu.Lock()
	for _, sh := range d.fan.shards {
		for _, tr := range sh.trees {
			out[tr.root.node] = append(out[tr.root.node], tr.childNames()...)
		}
	}
	d.fan.mu.Unlock()
	return out
}
