package main

import (
	"fmt"
	"math/rand"

	"colony/internal/chat"
	"colony/internal/crdt"
	"colony/internal/edge"
	"colony/internal/txn"
)

// chatPaced: the paper's ColonyChat trace far below capacity. 48 users are 48
// edges (16 per DC) over 3 workspaces x 20 channels, 90/10 read/write with
// Pareto user activity; 10% of the actions target a random workspace, and a
// read that lands outside the user's own channels is served by a DC fetch and
// evicted again. Open loop, 400 actions/s, full replication. A post is one
// atomic 2-object transaction: the channel's message sequence and the
// author's event sequence. Fixed per-hop delays and the read path, not CPU,
// set what the user feels.
type chatPaced struct {
	users int
	rate  float64

	trace  *chat.Trace // the population: memberships and who is how active
	nodes  []*edge.Node
	writer []*writer
	warm   []map[txn.ObjectID]bool // per user: channels it keeps cached
	all    *recvSet

	// model: messages per channel and events per user, per generator.
	msgs   [numGenerators]map[txn.ObjectID]int
	events [numGenerators]map[int]int
}

const (
	chatWorkspaces = 3
	chatChannels   = 20
)

func newChatPaced(scale float64) *chatPaced {
	c := &chatPaced{users: scaled(48, scale, 6), rate: 400 * scale}
	for i := range c.msgs {
		c.msgs[i] = make(map[txn.ObjectID]int)
		c.events[i] = make(map[int]int)
	}
	return c
}

func (c *chatPaced) name() string         { return "chat_paced" }
func (c *chatPaced) deploy() deployConfig { return deployConfig{} }
func (c *chatPaced) pacedRate() float64   { return c.rate }
func (c *chatPaced) pacedShare() float64  { return 1 }
func (c *chatPaced) actors() int          { return 0 }

func (c *chatPaced) ready(*env, int) bool        { return false }
func (c *chatPaced) next(*rand.Rand, int) action { return action{} }

// chatWindows is how many disjoint stretches of the one long trace a seed can
// select.
const chatWindows = 16

// traceConfig describes the one trace every run draws from. Its population
// (memberships, Pareto activity weights) is the workload's definition and is
// the same for every seed: with 48 users a reseeded population changes who
// the heavy users are and which channels grow long, and the read and commit
// figures with it. The run's seed selects which stretch of the trace is
// played.
func (c *chatPaced) traceConfig(actions int) chat.TraceConfig {
	return chat.TraceConfig{
		Users: c.users, Workspaces: chatWorkspaces, ChannelsPerWS: chatChannels,
		BigWorkspaceShare: 0.5, ReadRatio: 0.90, ParetoAlpha: 1.16,
		RefreshEvery:     1 << 30, // the cold reads below stand in for refreshes
		OutsideReadShare: 0.10, Actions: actions, Seed: 1,
	}
}

func channelID(ws, ch int) txn.ObjectID {
	return chat.ChannelID(chat.WorkspaceName(ws), chat.ChannelName(ch))
}

func (c *chatPaced) setup(e *env) error {
	c.nodes, c.writer, c.warm = nil, nil, nil // set-up runs several times per process
	c.trace = chat.Generate(c.traceConfig(0))
	e.trk = newTracker(c.users)
	e.trk.tracing = e.tr
	e.trk.check = postNeverSplit

	// The workspaces exist before the users connect: an admin session creates
	// every channel and every user profile, so subscriptions return state.
	empty := crdt.NewORMap()
	err := e.d.bootstrap(func(tx *edge.Tx) {
		for ws := 0; ws < chatWorkspaces; ws++ {
			for ch := 0; ch < chatChannels; ch++ {
				first := crdt.NewRGA().PrepareInsertAt(0, chat.Message{Author: "admin", Text: "created"}.Encode())
				tx.Update(channelID(ws, ch), crdt.KindORMap, empty.PrepareUpdate("messages", crdt.KindRGA, first))
			}
		}
		for u := 0; u < c.users; u++ {
			joined := crdt.NewRGA().PrepareInsertAt(0, "joined")
			tx.Update(chat.UserID(chat.UserName(u)), crdt.KindORMap, empty.PrepareUpdate("events", crdt.KindRGA, joined))
		}
	}, chat.UserID(chat.UserName(c.users-1)))
	if err != nil {
		return err
	}

	var everyone []int
	for u := 0; u < c.users; u++ {
		everyone = append(everyone, u)
	}
	c.all = newRecvSet(c.users, everyone)
	for u := 0; u < c.users; u++ {
		n := e.d.newEdge(chat.UserName(u), u%numDCs, edge.Hooks{})
		w := e.trk.addWriter(n, u%numDCs, u)
		n.SetHooks(e.trk.edgeHooks(u, w))
		e.tr.receiver(u, n.Name())
		warm := make(map[txn.ObjectID]bool)
		ids := []txn.ObjectID{chat.UserID(chat.UserName(u))}
		for _, ws := range c.trace.Membership[u] {
			for ch := 0; ch < chatChannels; ch++ {
				warm[channelID(ws, ch)] = true
				ids = append(ids, channelID(ws, ch))
			}
		}
		if err := n.AddInterest(ids...); err != nil {
			return err
		}
		c.nodes, c.writer, c.warm = append(c.nodes, n), append(c.writer, w), append(c.warm, warm)
	}
	e.trk.seal()
	return nil
}

// postNeverSplit is the atomicity check: every chat edge subscribes to both
// buckets, so a delivered post must carry both of its halves.
func postNeverSplit(r int, tx *txn.Transaction) string {
	var ch, us int
	for _, u := range tx.Updates {
		switch u.Object.Bucket {
		case chat.BucketChannels:
			ch++
		case chat.BucketUsers:
			us++
		}
	}
	if ch != 1 || us != 1 {
		return fmt.Sprintf("atomicity: receiver %d saw post %s split (%d channel, %d user updates)", r, tx.Dot, ch, us)
	}
	return ""
}

// plan turns the ColonyChat trace into actions: kind 0 = read, 1 = post;
// a = workspace, b = channel.
func (c *chatPaced) plan(e *env, n int) []action {
	window := int(uint64(e.seed) % chatWindows)
	tr := chat.Generate(c.traceConfig((window + 1) * n))
	out := make([]action, 0, n)
	for _, a := range tr.Actions[window*n:] {
		var ws, ch int
		if _, err := fmt.Sscanf(a.Workspace+" "+a.Channel, "ws%d chan%d", &ws, &ch); err != nil {
			panic(err) // the trace generator's own names
		}
		act := action{actor: a.User, a: ws, b: ch}
		if a.Type == chat.ActPost {
			act.kind = 1
			if !c.warm[a.User][channelID(ws, ch)] {
				// Users post where they are members.
				act.a = c.trace.Membership[a.User][0]
			}
		}
		out = append(out, act)
	}
	return out
}

func (c *chatPaced) do(g *genCtx, a action, ph phase, due int64) {
	n, id := c.nodes[a.actor], channelID(a.a, a.b)
	if a.kind == 0 {
		if c.warm[a.actor][id] {
			g.timedRead(n, id, crdt.KindORMap, ph)
			g.doneAt = append(g.doneAt, nowNs())
			return
		}
		// A foreign channel: served by a DC fetch, then evicted again. The
		// round trip runs off the schedule.
		g.async(func(h *genCtx) {
			if obj, _ := h.timedRead(n, id, crdt.KindORMap, ph); obj != nil {
				n.RemoveInterest(id)
			}
			h.doneAt = append(h.doneAt, nowNs())
		})
		return
	}
	user := chat.UserID(chat.UserName(a.actor))
	tx := n.Begin()
	text := chat.Message{Author: n.Name(), Text: fmt.Sprintf("m%d", len(g.ops))}.Encode()
	for _, half := range []struct {
		id         txn.ObjectID
		key, value string
	}{{id, "messages", text}, {user, "events", "posted:" + id.Key}} {
		obj, err := tx.Read(half.id, crdt.KindORMap)
		if err != nil {
			g.fail(fmt.Errorf("post read %s at %s: %w", half.id, n.Name(), err))
			return
		}
		m := obj.(*crdt.ORMap)
		seq, _ := m.Get(half.key).(*crdt.RGA)
		if seq == nil {
			seq = crdt.NewRGA()
		}
		tx.Update(half.id, crdt.KindORMap, m.PrepareUpdate(half.key, crdt.KindRGA, seq.PrepareInsertAt(seq.Len(), half.value)))
	}
	o := g.e.trk.newOp(c.writer[a.actor], ph, due, c.all, 0, false)
	if g.commit(o, tx) == nil {
		return
	}
	c.msgs[g.id][id]++
	c.events[g.id][a.actor]++
}

// seqOf returns the sequence nested under key of a map object (nil if obj is
// no map or has no such sequence yet).
func seqOf(obj crdt.Object, key string) *crdt.RGA {
	m, ok := obj.(*crdt.ORMap)
	if !ok {
		return nil
	}
	seq, _ := m.Get(key).(*crdt.RGA)
	return seq
}

func textOf(seq *crdt.RGA) string {
	if seq == nil {
		return ""
	}
	return seq.String()
}

// checkSeq compares one nested sequence against the model's length and the
// reference replica's content.
func checkSeq(e *env, where string, obj crdt.Object, err error, id txn.ObjectID, key string, wantLen int, wantText string) {
	checkRGA(e, where, seqOf(obj, key), err, txn.ObjectID{Bucket: id.Bucket, Key: id.Key + "/" + key}, wantLen, wantText)
}

func (c *chatPaced) verify(e *env) {
	msgs := make(map[txn.ObjectID]int)
	events := make(map[int]int)
	for g := 0; g < numGenerators; g++ {
		for id, n := range c.msgs[g] {
			msgs[id] += n
		}
		for u, n := range c.events[g] {
			events[u] += n
		}
	}
	ref := e.d.dcs[0]
	refAt := ref.State()
	type want struct {
		id   txn.ObjectID
		key  string
		n    int
		text string
	}
	var wants []want
	for ws := 0; ws < chatWorkspaces; ws++ {
		for ch := 0; ch < chatChannels; ch++ {
			id := channelID(ws, ch)
			obj, err := ref.ReadAt(id, refAt)
			text := textOf(seqOf(obj, "messages"))
			checkSeq(e, "dc0", obj, err, id, "messages", msgs[id]+1, text)
			wants = append(wants, want{id, "messages", msgs[id] + 1, text})
		}
	}
	nChannels := len(wants)
	for u := 0; u < c.users; u++ {
		id := chat.UserID(chat.UserName(u))
		obj, err := ref.ReadAt(id, refAt)
		text := textOf(seqOf(obj, "events"))
		checkSeq(e, "dc0", obj, err, id, "events", events[u]+1, text)
		wants = append(wants, want{id, "events", events[u] + 1, text})
	}
	for i, d := range e.d.dcs[1:] {
		at := d.State()
		for _, w := range wants {
			obj, err := d.ReadAt(w.id, at)
			checkSeq(e, dcName(i+1), obj, err, w.id, w.key, w.n, w.text)
		}
	}
	for u, n := range c.nodes {
		for _, w := range wants[:nChannels] {
			if c.warm[u][w.id] {
				obj, err := edgeRead(n, w.id, crdt.KindORMap)
				checkSeq(e, n.Name(), obj, err, w.id, w.key, w.n, w.text)
			}
		}
		w := wants[nChannels+u]
		obj, err := edgeRead(n, w.id, crdt.KindORMap)
		checkSeq(e, n.Name(), obj, err, w.id, w.key, w.n, w.text)
	}
}
