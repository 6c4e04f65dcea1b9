package main

import (
	"fmt"
	"math/rand"

	"colony/internal/crdt"
	"colony/internal/edge"
	"colony/internal/txn"
)

// fanoutBroadcast: 300 relay-capable subscriber edges (100 per DC) each
// follow one of 24 rooms (Zipf 1.1 popularity) spread over 3 buckets; 3
// writer edges post. The DC pushes by bucket, so a post reaches every
// subscriber of its bucket: one commit becomes a hundred deliveries and the
// DC fan-out, its multicast trees, the per-frame TCP cost and the edge apply
// do nearly all the work. Open loop at 60 tx/s, then closed loop with at most
// 32 posts not yet delivered everywhere. (On the two cores of the reference
// sandbox, 1200 subscribers fill the machine already in the open-loop phase
// and 600 leave a heap whose collection cycles make throughput vary by 18%
// from run to run; 300 vary by 6%.)
type fanoutBroadcast struct {
	subsPerDC int
	rooms     int
	buckets   int
	rate      float64
	window    int32

	subs    []*edge.Node
	subRoom []int
	writers []*writer
	recv    []*recvSet // per bucket
	zipf    [numGenerators]*rand.Zipf

	posts [numGenerators]map[int]int // model: posts per room
}

func newFanoutBroadcast(scale float64) *fanoutBroadcast {
	f := &fanoutBroadcast{subsPerDC: scaled(100, scale, 4), rooms: 24, buckets: 3, rate: 60, window: 32}
	for i := range f.posts {
		f.posts[i] = make(map[int]int)
	}
	return f
}

func (f *fanoutBroadcast) name() string         { return "fanout_broadcast" }
func (f *fanoutBroadcast) deploy() deployConfig { return deployConfig{} }
func (f *fanoutBroadcast) pacedRate() float64   { return f.rate }
func (f *fanoutBroadcast) pacedShare() float64  { return 0.4 }
func (f *fanoutBroadcast) actors() int          { return len(f.writers) }

func (f *fanoutBroadcast) roomID(r int) txn.ObjectID {
	return txn.ObjectID{Bucket: fmt.Sprintf("rooms%d", r%f.buckets), Key: fmt.Sprintf("room%02d", r)}
}

func newZipf(rng *rand.Rand, n int) *rand.Zipf { return rand.NewZipf(rng, 1.1, 1, uint64(n-1)) }

func (f *fanoutBroadcast) setup(e *env) error {
	f.subs, f.subRoom, f.writers = nil, nil, nil // set-up runs several times per process
	nSubs := numDCs * f.subsPerDC
	e.trk = newTracker(nSubs + numDCs)
	e.trk.tracing = e.tr

	var all []txn.ObjectID
	for r := 0; r < f.rooms; r++ {
		all = append(all, f.roomID(r))
	}
	err := e.d.bootstrap(func(tx *edge.Tx) {
		for _, id := range all {
			tx.Update(id, crdt.KindRGA, crdt.NewRGA().PrepareInsertAt(0, "opened;"))
		}
	}, all[len(all)-1])
	if err != nil {
		return err
	}

	// Who follows which room is part of the workload, not of the seed: the
	// bucket populations decide how many deliveries a post costs.
	pick := newZipf(rand.New(rand.NewSource(1)), f.rooms)
	members := make([][]int, f.buckets)
	for i := 0; i < nSubs; i++ {
		room := int(pick.Uint64())
		n := e.d.newEdge(fmt.Sprintf("s%04d", i), i%numDCs, e.trk.edgeHooks(i, nil))
		if err := n.AddInterest(f.roomID(room)); err != nil {
			return err
		}
		e.tr.receiver(i, n.Name())
		f.subs, f.subRoom = append(f.subs, n), append(f.subRoom, room)
		members[room%f.buckets] = append(members[room%f.buckets], i)
	}
	for dc := 0; dc < numDCs; dc++ {
		r := nSubs + dc
		n := e.d.newEdge(fmt.Sprintf("poster%d", dc), dc, edge.Hooks{})
		w := e.trk.addWriter(n, dc, r)
		n.SetHooks(e.trk.edgeHooks(r, w))
		if err := n.AddInterest(all...); err != nil {
			return err
		}
		e.tr.receiver(r, n.Name())
		f.writers = append(f.writers, w)
		for b := range members {
			members[b] = append(members[b], r)
		}
	}
	f.recv = nil
	for b := range members {
		f.recv = append(f.recv, newRecvSet(e.trk.nRecv, members[b]))
	}
	e.trk.seal()
	return nil
}

// plan: a = room.
func (f *fanoutBroadcast) plan(e *env, n int) []action {
	pick := newZipf(rand.New(rand.NewSource(e.seed+1)), f.rooms)
	out := make([]action, n)
	for i := range out {
		out[i] = action{actor: i % len(f.writers), a: int(pick.Uint64())}
	}
	return out
}

func (f *fanoutBroadcast) ready(e *env, _ int) bool {
	var open int32
	for _, w := range f.writers {
		open += w.open.Load()
	}
	return open < f.window
}

func (f *fanoutBroadcast) next(rng *rand.Rand, actor int) action {
	g := actor % numGenerators
	if f.zipf[g] == nil {
		f.zipf[g] = newZipf(rng, f.rooms)
	}
	return action{actor: actor, a: int(f.zipf[g].Uint64())}
}

func (f *fanoutBroadcast) do(g *genCtx, a action, ph phase, due int64) {
	w, id := f.writers[a.actor], f.roomID(a.a)
	// The timed read is always of the quietest room: a read costs as much as
	// the room's journal is long, so timing whichever room the post targets
	// would make the median a draw from the popularity distribution. What is
	// timed here is a small cached read at an edge busy applying pushes.
	g.timedRead(w.node, f.roomID(f.rooms-1), crdt.KindRGA, ph)
	tx := w.node.Begin()
	obj, err := tx.Read(id, crdt.KindRGA)
	if err != nil {
		g.fail(fmt.Errorf("read %s at %s: %w", id, w.name, err))
		return
	}
	room := obj.(*crdt.RGA)
	tx.Update(id, crdt.KindRGA, room.PrepareInsertAt(room.Len(), fmt.Sprintf("%s-%d;", w.name, len(g.ops))))
	o := g.e.trk.newOp(w, ph, due, f.recv[a.a%f.buckets], 0, false)
	if g.commit(o, tx) == nil {
		return
	}
	f.posts[g.id][a.a]++
}

// checkRGA compares a sequence a replica read against the model's length and
// the reference replica's content.
func checkRGA(e *env, where string, obj crdt.Object, err error, id txn.ObjectID, wantLen int, wantText string) {
	seq, ok := obj.(*crdt.RGA)
	switch {
	case err != nil:
		e.trk.violate("state: %s cannot read %s: %v", where, id, err)
	case !ok || seq == nil:
		e.trk.violate("state: %s has no sequence at %s", where, id)
	case seq.Len() != wantLen:
		e.trk.violate("state: %s has %d entries in %s, generator model says %d", where, seq.Len(), id, wantLen)
	case seq.String() != wantText:
		e.trk.violate("state: %s disagrees with dc0 on the content of %s", where, id)
	}
}

func (f *fanoutBroadcast) verify(e *env) {
	want := make([]int, f.rooms)
	text := make([]string, f.rooms)
	ref := e.d.dcs[0]
	refAt := ref.State()
	for r := range want {
		want[r] = 1 + f.posts[0][r] + f.posts[1][r]
		obj, err := ref.ReadAt(f.roomID(r), refAt)
		if err == nil {
			text[r] = obj.(*crdt.RGA).String()
		}
		checkRGA(e, "dc0", obj, err, f.roomID(r), want[r], text[r])
	}
	for i, d := range e.d.dcs[1:] {
		at := d.State()
		for r := range want {
			obj, err := d.ReadAt(f.roomID(r), at)
			checkRGA(e, dcName(i+1), obj, err, f.roomID(r), want[r], text[r])
		}
	}
	for i, n := range f.subs {
		r := f.subRoom[i]
		obj, err := edgeRead(n, f.roomID(r), crdt.KindRGA)
		checkRGA(e, n.Name(), obj, err, f.roomID(r), want[r], text[r])
	}
	for _, w := range f.writers {
		for r := range want {
			obj, err := edgeRead(w.node, f.roomID(r), crdt.KindRGA)
			checkRGA(e, w.name, obj, err, f.roomID(r), want[r], text[r])
		}
	}
}
