package main

import (
	"fmt"
	"math/rand"
	"sync"
	"time"

	"colony/internal/crdt"
	"colony/internal/edge"
	"colony/internal/group"
	"colony/internal/txn"
	"colony/internal/wire"
)

// groupEdit: one peer group (parent pop0 + 5 members, asynchronous commit
// variant) on one site mesh attached to dc0, plus two outside probe edges at
// dc1 and dc2. The members type into one shared RGA document, each at its own
// cursor (10% deletes); every transaction also bumps its author's sequence
// counter (how the other members' OnUpdate learns what they now see), and 20%
// bump a shared counter. Every transaction touches the document, so every
// pair interferes in EPaxos. One read of the document per 10 edits. Open loop
// at 100 tx/s, then closed loop with every member committing as soon as its
// previous transaction is complete. A member never has two transactions in
// flight: the group can hand two of them to the DC in the wrong order (ROADMAP
// item 1), which the oracle flags at the probes in about one run in 25. The
// only workload where epaxos, group and the RGA kernel do the work; the DC
// path sees a trickle through the sync point.
type groupEdit struct {
	nMembers int
	rate     float64
	window   int32

	parent  *group.Parent
	members []*edge.Node
	writers []*writer
	probes  []*edge.Node
	recv    *recvSet
	typist  []typist

	// model, per generator.
	inserts, deletes, bumps [numGenerators]int
	edits                   [numGenerators][]int // per member
}

// typist is one member's editing state, touched only by its generator.
type typist struct {
	own   []ownElem // elements it inserted and has not deleted, oldest first
	count int       // commits so far
	stuck bool      // a transaction never completed: the member commits no more
}

// ownElem is an element of the document with the op that inserted it.
type ownElem struct {
	tag crdt.Tag
	by  *op
}

// settled returns the index of the newest own element whose insert has
// reached every replica, or -1. The typist anchors inserts and aims deletes
// only there: with several of a member's transactions in flight, the group
// does not always make them visible in commit order (ROADMAP item 1), and an
// insert after an element a replica has not seen yet breaks that replica's
// document for good.
func (t *typist) settled() int {
	for i := len(t.own) - 1; i >= 0; i-- {
		if t.own[i].by.done.Load() != 0 {
			return i
		}
	}
	return -1
}

const groupBucket = "grp"

var (
	docID     = txn.ObjectID{Bucket: groupBucket, Key: "doc"}
	sharedCtr = txn.ObjectID{Bucket: groupBucket, Key: "ctr"}
)

func seqID(member int) txn.ObjectID {
	return txn.ObjectID{Bucket: groupBucket, Key: fmt.Sprintf("seq%d", member)}
}

func newGroupEdit(scale float64) *groupEdit {
	g := &groupEdit{nMembers: 5, rate: 100 * scale, window: 1}
	for i := range g.edits {
		g.edits[i] = make([]int, g.nMembers)
	}
	return g
}

func (g *groupEdit) name() string         { return "group_edit" }
func (g *groupEdit) deploy() deployConfig { return deployConfig{} }
func (g *groupEdit) pacedRate() float64   { return g.rate }
func (g *groupEdit) pacedShare() float64  { return 0.4 }
func (g *groupEdit) actors() int          { return g.nMembers }

func (g *groupEdit) setup(e *env) error {
	g.members, g.writers, g.probes = nil, nil, nil // set-up runs several times per process
	g.typist = make([]typist, g.nMembers)
	e.trk = newTracker(2)
	e.trk.tracing = e.tr

	ids := []txn.ObjectID{docID, sharedCtr}
	for i := 0; i < g.nMembers; i++ {
		ids = append(ids, seqID(i))
	}
	// The document exists before the group forms.
	err := e.d.bootstrap(func(tx *edge.Tx) {
		tx.Update(docID, crdt.KindRGA, crdt.NewRGA().PrepareInsertAt(0, "#"))
		for _, id := range ids[1:] {
			tx.Update(id, crdt.KindCounter, crdt.Op{Counter: &crdt.CounterOp{}})
		}
	}, ids[len(ids)-1])
	if err != nil {
		return err
	}

	site, err := e.d.dialOnlyMesh("site0", 0)
	if err != nil {
		return err
	}
	e.d.edgeMeshes = append(e.d.edgeMeshes, site)
	siteNet := e.d.wrap(site, classGroup)
	g.parent = group.NewParent(siteNet, group.ParentConfig{
		Name: "pop0", Actor: "pop0", DC: dcName(0), AutoAdvanceThreshold: autoAdvance, Obs: e.d.regEdge,
	})
	e.d.closers = append(e.d.closers, g.parent.Close)
	// The sync point holds the group's only DC connection: acks and the
	// K-stable cut are observed there. NewParent installed its own Ack and
	// Push hooks; ours run after them. (Members' hooks are never touched:
	// group.Join owns them.)
	pnode := g.parent.Node()
	watch := &stableWatch{node: pnode}
	hooks := pnode.Hooks()
	groupAck, groupPush := hooks.Ack, hooks.Push
	hooks.Ack = func(a wire.EdgeCommitAck) {
		groupAck(a)
		now := nowNs()
		e.trk.onAck(a, now)
		watch.check(e.trk, now)
	}
	hooks.Push = func(m wire.PushTxs) {
		groupPush(m)
		watch.check(e.trk, nowNs())
	}
	pnode.SetHooks(hooks)
	if err := g.parent.Connect(); err != nil {
		return err
	}

	for i := 0; i < g.nMembers; i++ {
		name := fmt.Sprintf("m%d", i)
		n := edge.New(siteNet, edge.Config{Name: name, Actor: name, DC: "pop0", CallTimeout: callTimeout, Obs: e.d.regEdge})
		e.d.closers = append(e.d.closers, n.Close)
		m, err := group.Join(n, group.MemberConfig{Parent: "pop0", Variant: group.VariantAsync, MaxPending: 64, CallTimeout: callTimeout})
		if err != nil {
			return fmt.Errorf("join %s: %w", name, err)
		}
		e.d.closers = append(e.d.closers, m.Leave)
		if err := n.AddInterest(ids...); err != nil {
			return err
		}
		w := e.trk.addWriter(n, 0, -1)
		w.watch = watch
		g.members, g.writers = append(g.members, n), append(g.writers, w)
	}
	// Every transaction bumps its author's sequence counter, and a member
	// applies each group transaction exactly once, so the k-th OnUpdate of
	// member i's counter at member j says that j now sees i's k-th
	// transaction. (Reading the counter there instead would replay its
	// journal on every delivery: device caches do not fold theirs.)
	for j, n := range g.members {
		for i, w := range g.writers {
			if i == j {
				continue
			}
			w := w
			var mu sync.Mutex // OnUpdate fires from the handler and from the sync loop
			seen := 0
			n.OnUpdate(seqID(i), func(txn.ObjectID) {
				now := nowNs()
				mu.Lock()
				e.trk.groupSeen(w, &seen, seen+1, now)
				mu.Unlock()
			})
		}
	}
	if e.tr != nil {
		g.watchParent(e)
	}

	for r, dc := range []int{1, 2} {
		n := e.d.newEdge(fmt.Sprintf("probe%d", dc), dc, e.trk.edgeHooks(r, nil))
		if err := n.AddInterest(docID, sharedCtr); err != nil {
			return err
		}
		e.tr.receiver(r, n.Name())
		g.probes = append(g.probes, n)
	}
	g.recv = newRecvSet(2, []int{0, 1})
	e.trk.seal()
	return nil
}

// watchParent records when each transaction becomes group-visible at the
// sync point (traced runs: group.syncpoint_uplink_wait starts there), by the
// same counting as the members.
func (g *groupEdit) watchParent(e *env) {
	pnode := g.parent.Node()
	for i, w := range g.writers {
		w := w
		var mu sync.Mutex
		fired := 0
		pnode.OnUpdate(seqID(i), func(txn.ObjectID) {
			now := nowNs()
			mu.Lock()
			defer mu.Unlock()
			w.mu.RLock()
			if fired < len(w.byIndex) {
				w.byIndex[fired].pvisible.CompareAndSwap(0, now)
			}
			w.mu.RUnlock()
			fired++
		})
	}
}

// plan: kind 0 = insert, 1 = delete; a = 1 also bumps the shared counter.
func (g *groupEdit) plan(e *env, n int) []action {
	rng := rand.New(rand.NewSource(e.seed + 2))
	out := make([]action, n)
	for i := range out {
		out[i] = g.next(rng, i%g.nMembers)
	}
	return out
}

func (g *groupEdit) ready(_ *env, actor int) bool { return g.writers[actor].open.Load() < g.window }

func (g *groupEdit) next(rng *rand.Rand, actor int) action {
	a := action{actor: actor}
	if rng.Float64() < 0.10 {
		a.kind = 1
	}
	if rng.Float64() < 0.20 {
		a.a = 1
	}
	return a
}

func (g *groupEdit) do(gc *genCtx, a action, ph phase, due int64) {
	n, w, ty := g.members[a.actor], g.writers[a.actor], &g.typist[a.actor]
	// Open loop: a member whose previous transaction is still on its way
	// waits for it; the wait counts, latencies run from the due time. A
	// transaction that does not complete within the drain limit is lost (the
	// oracle will say where): the member stops, so that the run still ends on
	// time and never has two of its transactions in flight.
	for limit := nowNs() + int64(drainLimit); !ty.stuck && w.open.Load() >= g.window; {
		if nowNs() >= limit {
			ty.stuck = true
			break
		}
		time.Sleep(100 * time.Microsecond)
	}
	if ty.stuck {
		gc.fail(fmt.Errorf("%s: skipped, its previous transaction never completed", w.name))
		return
	}
	tx := n.Begin()
	if ty.count%10 == 9 {
		// Re-rendering the document takes milliseconds once it has grown; it
		// runs off the schedule so it cannot delay the other members this
		// generator drives.
		gc.async(func(h *genCtx) {
			if obj, _ := h.timedRead(n, docID, crdt.KindRGA, ph); obj != nil {
				_ = obj.(*crdt.RGA).String()
			}
		})
	}
	at := ty.settled()
	del := a.kind == 1 && at > 0
	if del {
		tx.Update(docID, crdt.KindRGA, crdt.Op{RGA: &crdt.RGAOp{Delete: true, Target: ty.own[at].tag}})
	} else {
		var cursor crdt.Tag // zero: the head of the document
		if at >= 0 {
			cursor = ty.own[at].tag
		}
		tx.Update(docID, crdt.KindRGA, crdt.Op{RGA: &crdt.RGAOp{After: cursor, Value: string(rune('a' + a.actor))}})
	}
	tx.Update(seqID(a.actor), crdt.KindCounter, crdt.Op{Counter: &crdt.CounterOp{Delta: 1}})
	if a.a == 1 {
		tx.Update(sharedCtr, crdt.KindCounter, crdt.Op{Counter: &crdt.CounterOp{Delta: 1}})
	}
	o := gc.e.trk.newOp(w, ph, due, g.recv, g.nMembers-1, false)
	// The sequence counter carries this index; the op must be findable by it
	// before any member can see the transaction.
	w.mu.Lock()
	w.byIndex = append(w.byIndex, o)
	w.mu.Unlock()
	ty.count++
	rec := gc.commit(o, tx)
	if rec == nil {
		// Nothing was committed, so the sequence counter did not move: give
		// the index back.
		w.mu.Lock()
		w.byIndex = w.byIndex[:len(w.byIndex)-1]
		w.mu.Unlock()
		ty.count--
		return
	}
	if del {
		ty.own = append(ty.own[:at], ty.own[at+1:]...)
		g.deletes[gc.id]++
	} else {
		ty.own = append(ty.own, ownElem{tag: crdt.Tag{Dot: rec.Dot}, by: o}) // the document update is the transaction's first
		g.inserts[gc.id]++
	}
	if a.a == 1 {
		g.bumps[gc.id]++
	}
	g.edits[gc.id][a.actor]++
}

func (g *groupEdit) verify(e *env) {
	wantLen := 1 + g.inserts[0] + g.inserts[1] - g.deletes[0] - g.deletes[1]
	wantCtr := int64(g.bumps[0] + g.bumps[1])
	ref := e.d.dcs[0]
	refAt := ref.State()
	obj, err := ref.ReadAt(docID, refAt)
	text := ""
	if err == nil {
		text = obj.(*crdt.RGA).String()
	}
	checkRGA(e, "dc0", obj, err, docID, wantLen, text)
	for i, d := range e.d.dcs {
		at := d.State()
		if i > 0 {
			obj, err := d.ReadAt(docID, at)
			checkRGA(e, dcName(i), obj, err, docID, wantLen, text)
		}
		checkCounter(e, dcName(i), func() (crdt.Object, error) { return d.ReadAt(sharedCtr, at) }, sharedCtr, wantCtr)
		for m := 0; m < g.nMembers; m++ {
			want := int64(g.edits[0][m] + g.edits[1][m])
			checkCounter(e, dcName(i), func() (crdt.Object, error) { return d.ReadAt(seqID(m), at) }, seqID(m), want)
		}
	}
	replicas := append(append([]*edge.Node{g.parent.Node()}, g.members...), g.probes...)
	for _, n := range replicas {
		obj, err := edgeRead(n, docID, crdt.KindRGA)
		checkRGA(e, n.Name(), obj, err, docID, wantLen, text)
		checkCounter(e, n.Name(), func() (crdt.Object, error) { return edgeRead(n, sharedCtr, crdt.KindCounter) }, sharedCtr, wantCtr)
	}
}
