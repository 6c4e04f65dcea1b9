package main

import (
	"fmt"
	"math/rand"

	"colony/internal/crdt"
	"colony/internal/edge"
	"colony/internal/txn"
)

// writeSaturate: 24 writer edges (8 per DC) in closed loop with a window of
// 4 unacked commits, single-update counter/LWW transactions over 96 buckets
// under partial replication: 24 hot buckets held by every DC, 24 cold ones
// per DC held only there. One probe edge per DC subscribes to the hot
// objects. Fan-out and reads idle; the DC write path is the bottleneck.
type writeSaturate struct {
	writersPerDC int
	hot, cold    int // bucket counts: hot everywhere, cold per DC
	window       int32

	writers []*writer
	probes  []*edge.Node
	hotRecv *recvSet
	nreads  [numGenerators]int

	// model, per generator to stay lock-free: counter totals and the
	// winning LWW assignment per bucket.
	counters [numGenerators]map[string]int64
	regs     [numGenerators]map[string]lwwWin
}

type lwwWin struct {
	tag   crdt.Tag
	value string
}

func newWriteSaturate(scale float64) *writeSaturate {
	w := &writeSaturate{writersPerDC: scaled(8, scale, 1), hot: 24, cold: 24, window: 4}
	for i := range w.counters {
		w.counters[i] = make(map[string]int64)
		w.regs[i] = make(map[string]lwwWin)
	}
	return w
}

// scaled shrinks a population for the smoke test.
func scaled(n int, scale float64, min int) int {
	v := int(float64(n) * scale)
	if v < min {
		v = min
	}
	return v
}

func (w *writeSaturate) name() string { return "write_saturate" }

func hotBucket(i int) string           { return fmt.Sprintf("hot%02d", i) }
func coldBucket(dc, i int) string      { return fmt.Sprintf("cold%d-%02d", dc, i) }
func ctrID(bucket string) txn.ObjectID { return txn.ObjectID{Bucket: bucket, Key: "ctr"} }
func regID(bucket string) txn.ObjectID { return txn.ObjectID{Bucket: bucket, Key: "reg"} }

func (w *writeSaturate) deploy() deployConfig {
	cfg := deployConfig{partial: true, buckets: make([][]string, numDCs)}
	for dc := 0; dc < numDCs; dc++ {
		for i := 0; i < w.hot; i++ {
			cfg.buckets[dc] = append(cfg.buckets[dc], hotBucket(i))
		}
		for i := 0; i < w.cold; i++ {
			cfg.buckets[dc] = append(cfg.buckets[dc], coldBucket(dc, i))
		}
	}
	return cfg
}

func (w *writeSaturate) setup(e *env) error {
	w.writers, w.probes = nil, nil // set-up runs several times per process
	e.trk = newTracker(numDCs)
	e.trk.tracing = e.tr
	var hotIDs []txn.ObjectID
	for i := 0; i < w.hot; i++ {
		hotIDs = append(hotIDs, ctrID(hotBucket(i)), regID(hotBucket(i)))
	}
	var probeIdx []int
	for dc := 0; dc < numDCs; dc++ {
		n := e.d.newEdge(fmt.Sprintf("probe%d", dc), dc, e.trk.edgeHooks(dc, nil))
		if err := n.AddInterest(hotIDs...); err != nil {
			return err
		}
		e.tr.receiver(dc, n.Name())
		w.probes = append(w.probes, n)
		probeIdx = append(probeIdx, dc)
	}
	w.hotRecv = newRecvSet(numDCs, probeIdx)
	for dc := 0; dc < numDCs; dc++ {
		for i := 0; i < w.writersPerDC; i++ {
			n := e.d.newEdge(fmt.Sprintf("w%d-%d", dc, i), dc, edge.Hooks{})
			wr := e.trk.addWriter(n, dc, -1)
			n.SetHooks(e.trk.edgeHooks(-1, wr))
			if err := n.Connect(); err != nil {
				return err
			}
			w.writers = append(w.writers, wr)
		}
	}
	e.trk.seal()
	return nil
}

func (w *writeSaturate) pacedRate() float64  { return 0 }
func (w *writeSaturate) pacedShare() float64 { return 0 }

func (w *writeSaturate) plan(*env, int) []action { return nil }

func (w *writeSaturate) actors() int { return len(w.writers) }

func (w *writeSaturate) ready(_ *env, actor int) bool {
	return w.writers[actor].unacked.Load() < w.window
}

// next: kind 0 = counter increment, 1 = LWW assign; a = hot (1) or cold (0);
// b = bucket index.
func (w *writeSaturate) next(rng *rand.Rand, actor int) action {
	a := action{actor: actor, kind: rng.Intn(2), a: rng.Intn(2)}
	if a.a == 1 {
		a.b = rng.Intn(w.hot)
	} else {
		a.b = rng.Intn(w.cold)
	}
	return a
}

func (w *writeSaturate) do(g *genCtx, a action, ph phase, due int64) {
	wr := w.writers[a.actor]
	bucket := coldBucket(wr.dc, a.b)
	var recv *recvSet
	if a.a == 1 {
		bucket, recv = hotBucket(a.b), w.hotRecv
	}
	// Cold transactions interest no other edge: they complete when acked and
	// K-stable at their origin.
	o := g.e.trk.newOp(wr, ph, due, recv, 0, recv == nil)
	tx := wr.node.Begin()
	var value string
	if a.kind == 0 {
		tx.Update(ctrID(bucket), crdt.KindCounter, crdt.Op{Counter: &crdt.CounterOp{Delta: 1}})
	} else {
		value = fmt.Sprintf("%s-%d", wr.name, len(g.ops))
		tx.Update(regID(bucket), crdt.KindLWWRegister, crdt.Op{LWW: &crdt.LWWRegisterOp{Value: value}})
	}
	rec := g.commit(o, tx)
	if rec == nil {
		return
	}
	if a.kind == 0 {
		w.counters[g.id][bucket]++
	} else {
		tag := crdt.Tag{Dot: rec.Dot}
		if cur, ok := w.regs[g.id][bucket]; !ok || tag.Compare(cur.tag) > 0 {
			w.regs[g.id][bucket] = lwwWin{tag: tag, value: value}
		}
	}
	// One cached read at the local probe per ten commits keeps the read path
	// on the ledger without loading it.
	if w.nreads[g.id]++; w.nreads[g.id]%10 == 0 {
		g.timedRead(w.probes[wr.dc], ctrID(hotBucket(a.b%w.hot)), crdt.KindCounter, ph)
	}
}

// timedRead times Begin+Read on n and records the sample.
func (g *genCtx) timedRead(n *edge.Node, id txn.ObjectID, kind crdt.Kind, ph phase) (crdt.Object, *edge.Tx) {
	start := nowNs()
	tx := n.Begin()
	obj, src, err := tx.ReadTracked(id, kind)
	end := nowNs()
	if err != nil {
		g.fail(fmt.Errorf("read %s at %s: %w", id, n.Name(), err))
		return nil, tx
	}
	g.reads = append(g.reads, readSample{dur: end - start, ph: ph, miss: src == edge.SourceDC})
	return obj, tx
}

func (w *writeSaturate) verify(e *env) {
	counters := make(map[string]int64)
	regs := make(map[string]lwwWin)
	for g := 0; g < numGenerators; g++ {
		for b, v := range w.counters[g] {
			counters[b] += v
		}
		for b, win := range w.regs[g] {
			if cur, ok := regs[b]; !ok || win.tag.Compare(cur.tag) > 0 {
				regs[b] = win
			}
		}
	}
	holds := func(dc int, bucket string) bool {
		return bucket[:3] == "hot" || bucket[:5] == fmt.Sprintf("cold%d", dc)
	}
	for dc, node := range e.d.dcs {
		at := node.State()
		for b, want := range counters {
			if holds(dc, b) {
				checkCounter(e, fmt.Sprintf("dc%d", dc), func() (crdt.Object, error) { return node.ReadAt(ctrID(b), at) }, ctrID(b), want)
			}
		}
		for b, want := range regs {
			if holds(dc, b) {
				checkReg(e, fmt.Sprintf("dc%d", dc), func() (crdt.Object, error) { return node.ReadAt(regID(b), at) }, regID(b), want.value)
			}
		}
	}
	for _, p := range w.probes {
		for i := 0; i < w.hot; i++ {
			b := hotBucket(i)
			if want, ok := counters[b]; ok {
				checkCounter(e, p.Name(), func() (crdt.Object, error) { return edgeRead(p, ctrID(b), crdt.KindCounter) }, ctrID(b), want)
			}
			if want, ok := regs[b]; ok {
				checkReg(e, p.Name(), func() (crdt.Object, error) { return edgeRead(p, regID(b), crdt.KindLWWRegister) }, regID(b), want.value)
			}
		}
	}
}

// edgeRead reads an object at an edge's current state.
func edgeRead(n *edge.Node, id txn.ObjectID, kind crdt.Kind) (crdt.Object, error) {
	tx := n.Begin()
	obj, err := tx.Read(id, kind)
	_, _ = tx.Commit() // read-only: nothing to commit, nothing to fail
	return obj, err
}

func checkCounter(e *env, where string, read func() (crdt.Object, error), id txn.ObjectID, want int64) {
	obj, err := read()
	if err != nil {
		e.trk.violate("state: %s cannot read %s: %v", where, id, err)
		return
	}
	if got := obj.(*crdt.Counter).Total(); got != want {
		e.trk.violate("state: %s has %s = %d, generator model says %d", where, id, got, want)
	}
}

func checkReg(e *env, where string, read func() (crdt.Object, error), id txn.ObjectID, want string) {
	obj, err := read()
	if err != nil {
		e.trk.violate("state: %s cannot read %s: %v", where, id, err)
		return
	}
	if got, _ := obj.(*crdt.LWWRegister).Get(); got != want {
		e.trk.violate("state: %s has %s = %q, generator model says %q", where, id, got, want)
	}
}
