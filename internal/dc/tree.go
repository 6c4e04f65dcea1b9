// Tree multicast over the interest-sharded fan-out (paper §3.4).
//
// The fan-out builds one sealed frame per interest shard; sending it once per
// subscriber would make DC egress 100k sends per flush at 100k subscribers
// even though only ~8k distinct frames exist. This file organises each
// shard's relay-capable subscribers (wire.Subscribe.Relay — edge nodes and
// group sync points) into subtrees of bounded degree: one root plus at most
// treeDegree children. The flush sends the sealed frame once per subtree root
// as a wire.TreePush; the root re-fans the same frame out to its children and
// forgets it. DC egress then scales with the subtree count, not the
// subscriber count.
//
// Nothing comes back. Every frame carries the history range it covers and
// every receiver holds its own cursor (see fanout.go), so a child its relay
// did not reach — relay crashed, link down, child table stale — sees the gap
// at the next frame, or hears nothing, and resumes from the DC directly; the
// range reply that serves it also moves it out of the subtree that failed it
// (moveOut). The DC's only reaction to its own send errors is structural: a
// root whose link refuses a TreeAssign or a TreePush is demoted.
//
// Child tables are installed by wire.TreeAssign on the same FIFO link as the
// pushes they govern, re-sent (with a bumped epoch) before the first push
// after any membership change. A relay holding no table, or one at another
// epoch, refuses to guess: it applies the frame locally and forwards nothing.
//
// Trees are two-level by design: a relay crash affects at most treeDegree
// subscribers, and at degree 16 the egress reduction already exceeds an order
// of magnitude on Zipf-shaped interest. Deeper trees (relays under relays)
// are a follow-on.
package dc

import (
	"slices"

	"colony/internal/wire"
)

// treeDegree bounds a multicast subtree: one relay root plus at most
// treeDegree children. Fixed at the value every deployment ran with while it
// was still configurable.
const treeDegree = 16

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
// shard's subtrees: the first tree with spare degree other than avoid, or a
// fresh tree rooted at the subscription. Called with the fanout mutex held.
func (f *fanout) attachTreeLocked(sh *pushShard, sub *subscription, avoid *pushTree) {
	for _, tr := range sh.trees {
		if tr != avoid && len(tr.members) <= treeDegree {
			tr.members = append(tr.members, sub)
			tr.dirty = true
			sub.tree = tr
			return
		}
	}
	tr := &pushTree{root: sub, members: []*subscription{sub}}
	sh.trees = append(sh.trees, tr)
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
	tr.members = slices.DeleteFunc(tr.members, func(s *subscription) bool { return s == sub })
	if len(tr.members) == 0 {
		sh.trees = slices.DeleteFunc(sh.trees, func(t *pushTree) bool { return t == tr })
		return
	}
	if tr.root == sub {
		tr.root = tr.members[0]
	}
	tr.dirty = true
}

// moveOut takes a child that had to resume out of the subtree whose relay did
// not reach it: it joins another subtree with spare degree or roots a fresh
// one. A root stays where it is — the DC sends to it directly.
func (f *fanout) moveOut(sh *pushShard, sub *subscription) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if tr := sub.tree; tr != nil && tr.root != sub {
		f.detachTreeLocked(sh, sub)
		f.attachTreeLocked(sh, sub, tr)
	}
}

// treeSend is one planned TreePush: the subtree, its root and epoch at
// planning time, how many members the send serves, and the (optional) assign
// that must precede it on the root's FIFO link.
type treeSend struct {
	tr      *pushTree
	root    string
	epoch   uint64
	members int
	assign  *wire.TreeAssign
}

// planLocked splits a shard's members for one flush: every subtree with at
// least two members is served by one TreePush to its root (preceded by a
// TreeAssign if its table changed), everyone else directly. Called with the
// fanout mutex held.
func (f *fanout) planLocked(sh *pushShard) (plans []treeSend, direct []string) {
	for sub := range sh.subs {
		if sub.tree == nil || len(sub.tree.members) < 2 {
			direct = append(direct, sub.node)
		}
	}
	for _, tr := range sh.trees {
		if len(tr.members) < 2 {
			continue
		}
		plan := treeSend{tr: tr, root: tr.root.node, members: len(tr.members)}
		if tr.dirty {
			tr.epoch++
			tr.dirty = false
			plan.assign = &wire.TreeAssign{
				From:     f.d.cfg.Name,
				Shard:    sh.id,
				Epoch:    tr.epoch,
				Children: tr.childNames(),
			}
		}
		plan.epoch = tr.epoch
		plans = append(plans, plan)
	}
	return plans, direct
}

// sendTrees executes one flush's planned subtree sends as a batch: the (rare)
// TreeAssigns go out first on each root's FIFO link, and every TreePush —
// the same sealed frame in a per-subtree envelope — rides a single transport
// SendEach pass; at 100k subscribers a flush covers thousands of subtrees,
// and per-send scheduling overhead is exactly what the tree path exists to
// amortise. A root whose link refuses the assign or the push is demoted: the
// next flush advertises the table to another member and sends there. The
// members a refused send skipped resume on their own.
func (d *DC) sendTrees(sh *pushShard, plans []treeSend, frame wire.PushFrame) {
	roots := make([]string, 0, len(plans))
	msgs := make([]any, 0, len(plans))
	sent := make([]*pushTree, 0, len(plans))
	var failed []*pushTree
	for _, plan := range plans {
		if plan.assign != nil {
			if err := d.node.Send(plan.root, *plan.assign); err != nil {
				failed = append(failed, plan.tr)
				continue
			}
			d.obsTreeAssigns.Inc()
			d.obsPushSends.Inc()
		}
		roots = append(roots, plan.root)
		msgs = append(msgs, wire.SealTreeFrame(sh.id, plan.epoch, frame))
		sent = append(sent, plan.tr)
	}
	accepted := len(roots)
	for i, err := range d.node.SendEach(roots, msgs) {
		if err != nil {
			failed = append(failed, sent[i])
			accepted--
		}
	}
	d.obsPushSends.Add(int64(accepted))
	if len(failed) == 0 {
		return
	}
	d.fan.mu.Lock()
	for _, tr := range failed {
		// Promote another member (with a single member there is none, and the
		// tree is below the two-member send threshold anyway) and re-advertise.
		for _, s := range tr.members {
			if s != tr.root {
				tr.root = s
				break
			}
		}
		tr.dirty = true
	}
	d.fan.mu.Unlock()
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
