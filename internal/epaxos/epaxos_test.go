package epaxos

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"
)

// envelope is one message in flight.
type envelope struct {
	from, to string
	msg      any
}

// cluster wires n replicas through one in-memory queue. Nothing is delivered
// until the test says so, and everything runs on the test's goroutine: a
// schedule is the order in which the test pops the queue.
type cluster struct {
	names    []string
	replicas map[string]*Replica
	logs     map[string][]string // command IDs in execution order, per replica
	queue    []envelope
	accepts  int // Accept messages sent
	sends    int // messages sent in all
	down     map[string]bool
	rng      *rand.Rand
	loss     float64 // share of sends silently dropped (needs rng)
}

func newCluster(n int) *cluster {
	c := &cluster{
		replicas: make(map[string]*Replica, n),
		logs:     make(map[string][]string, n),
		down:     make(map[string]bool),
	}
	for i := 0; i < n; i++ {
		c.names = append(c.names, fmt.Sprintf("p%d", i))
	}
	for _, name := range c.names {
		var peers []string
		for _, other := range c.names {
			if other != name {
				peers = append(peers, other)
			}
		}
		send := func(to string, msg any) {
			c.sends++
			if _, ok := msg.(Accept); ok {
				c.accepts++
			}
			if c.down[to] || c.down[name] || (c.loss > 0 && c.rng.Float64() < c.loss) {
				return
			}
			c.queue = append(c.queue, envelope{name, to, msg})
		}
		exec := func(cmd Command) { c.logs[name] = append(c.logs[name], cmd.ID) }
		c.replicas[name] = NewReplica(name, peers, send, exec)
	}
	return c
}

// deliver pops one message: the head of the queue without an rng; with one,
// a random message (fifo=false) or the oldest message on a random link
// (fifo=true). It reports whether there was anything to deliver.
func (c *cluster) deliver(fifo bool) bool {
	if len(c.queue) == 0 {
		return false
	}
	i := 0
	if c.rng != nil {
		i = c.rng.Intn(len(c.queue))
		if fifo {
			pick := c.queue[i]
			i = slices.IndexFunc(c.queue, func(e envelope) bool { return e.from == pick.from && e.to == pick.to })
		}
	}
	e := c.queue[i]
	c.queue = slices.Delete(c.queue, i, i+1)
	c.replicas[e.to].HandleMessage(e.from, e.msg)
	return true
}

// run delivers until the queue is empty.
func (c *cluster) run(fifo bool) {
	for c.deliver(fifo) {
	}
}

// tick advances every replica's clock n times.
func (c *cluster) tick(n int) {
	for i := 0; i < n; i++ {
		for _, name := range c.names {
			c.replicas[name].Tick()
		}
	}
}

// settle delivers and ticks until a full retry period passes in which no
// replica sends anything, and reports whether that happened within a bounded
// number of rounds.
func (c *cluster) settle(fifo bool) bool {
	for round := 0; round < 1000; round++ {
		c.run(fifo)
		before := c.sends
		c.tick(retryTicks)
		if c.sends == before {
			return true
		}
	}
	return false
}

func (c *cluster) executed(name, id string) bool { return slices.Contains(c.logs[name], id) }

func TestSingleReplicaCommitsImmediately(t *testing.T) {
	c := newCluster(1)
	c.replicas["p0"].Propose(Command{ID: "c1", Keys: []string{"x"}})
	if got := c.logs["p0"]; !slices.Equal(got, []string{"c1"}) {
		t.Fatalf("log = %v", got)
	}
}

func TestFastPathCommitsEverywhere(t *testing.T) {
	c := newCluster(3)
	c.replicas["p0"].Propose(Command{ID: "c1", Keys: []string{"x"}})
	c.run(false)
	for _, name := range c.names {
		if !c.executed(name, "c1") {
			t.Fatalf("%s never executed c1", name)
		}
	}
	if n := c.accepts; n != 0 {
		t.Fatalf("an uncontended command took the slow path (%d Accepts)", n)
	}
}

func TestInterferingCommandsSameOrderEverywhere(t *testing.T) {
	c := newCluster(3)
	// Two leaders propose interfering commands before either hears of the
	// other: the replies disagree, so both take the slow path.
	c.replicas["p0"].Propose(Command{ID: "c0", Keys: []string{"x"}})
	c.replicas["p1"].Propose(Command{ID: "c1", Keys: []string{"x"}})
	c.run(false)
	if c.accepts == 0 {
		t.Fatal("conflicting proposals committed without an Accept round")
	}
	ref := c.logs["p0"]
	if len(ref) != 2 {
		t.Fatalf("p0 executed %v", ref)
	}
	for _, name := range c.names[1:] {
		if got := c.logs[name]; !slices.Equal(got, ref) {
			t.Fatalf("visibility order differs: p0=%v %s=%v", ref, name, got)
		}
	}
}

func TestNonInterferingCommandsAllExecute(t *testing.T) {
	c := newCluster(3)
	const n = 20
	for i := 0; i < n; i++ {
		c.replicas[c.names[i%3]].Propose(Command{ID: fmt.Sprintf("c%d", i), Keys: []string{fmt.Sprintf("k%d", i)}})
	}
	c.run(false)
	for _, name := range c.names {
		if got := len(c.logs[name]); got != n {
			t.Fatalf("%s executed %d of %d", name, got, n)
		}
	}
}

func TestDependencyChainRespected(t *testing.T) {
	c := newCluster(3)
	// Interfering proposals from one leader, each proposed before the previous
	// one has committed anywhere, execute in proposal order at every replica.
	var want []string
	for i := 0; i < 5; i++ {
		id := fmt.Sprintf("c%d", i)
		want = append(want, id)
		c.replicas["p0"].Propose(Command{ID: id, Keys: []string{"x"}})
	}
	c.run(false)
	for _, name := range c.names {
		if got := c.logs[name]; !slices.Equal(got, want) {
			t.Fatalf("%s executed %v, want %v", name, got, want)
		}
	}
}

func TestRetryRecoversDroppedMessages(t *testing.T) {
	c := newCluster(3)
	// p2 is unreachable during the proposal: quorum (2 of 3) still commits.
	c.down["p2"] = true
	c.replicas["p0"].Propose(Command{ID: "c1", Keys: []string{"x"}})
	c.run(false)
	if !c.executed("p0", "c1") || !c.executed("p1", "c1") {
		t.Fatal("the reachable majority did not execute c1")
	}
	if c.executed("p2", "c1") {
		t.Fatal("p2 executed while unreachable")
	}

	// p2 comes back; the leader re-sends the commit once it has sat
	// retryTicks ticks without an acknowledgement from p2.
	c.down["p2"] = false
	c.tick(retryTicks - 1)
	if len(c.queue) != 0 {
		t.Fatalf("resent after %d ticks, before retryTicks", retryTicks-1)
	}
	c.tick(1)
	c.run(false)
	if !c.executed("p2", "c1") {
		t.Fatal("p2 did not execute c1 after the retry")
	}
	if !c.settle(false) {
		t.Fatal("the leader kept re-sending an acknowledged commit")
	}
}

func TestQuorumLossStallsWithoutMajority(t *testing.T) {
	c := newCluster(3)
	// Both peers unreachable: no quorum, nothing commits, however long.
	c.down["p1"], c.down["p2"] = true, true
	c.replicas["p0"].Propose(Command{ID: "c1", Keys: []string{"x"}})
	for i := 0; i < 10; i++ {
		c.tick(retryTicks)
		c.run(false)
	}
	if c.executed("p0", "c1") {
		t.Fatal("command executed without quorum")
	}
	// Connectivity returns; the retry completes the protocol.
	c.down["p1"], c.down["p2"] = false, false
	if !c.settle(false) {
		t.Fatal("never quiesced after the heal")
	}
	for _, name := range c.names {
		if !c.executed(name, "c1") {
			t.Fatalf("%s did not execute c1 after the heal", name)
		}
	}
}

// schedule is one seeded run: n commands over keys proposed by random leaders
// of a five-replica group at random points of a random delivery schedule,
// then delivery and ticks until quiescent. It returns a description of the
// first violated property, or "".
func schedule(seed int64, n, keys int, fifo bool, loss float64) string {
	c := newCluster(5)
	c.rng = rand.New(rand.NewSource(seed))
	c.loss = loss
	cmdKeys := make(map[string][]string, n)
	for i := 0; i < n; {
		if len(c.queue) > 0 && c.rng.Intn(3) > 0 {
			c.deliver(fifo)
			continue
		}
		id := fmt.Sprintf("c%d", i)
		ks := []string{fmt.Sprintf("k%d", c.rng.Intn(keys))}
		if c.rng.Intn(5) == 0 {
			ks = append(ks, fmt.Sprintf("k%d", c.rng.Intn(keys)))
		}
		cmdKeys[id] = ks
		c.replicas[c.names[c.rng.Intn(len(c.names))]].Propose(Command{ID: id, Keys: ks})
		i++
	}
	if !c.settle(fifo) {
		return "never quiesced"
	}
	perKey := func(name string) map[string][]string {
		out := make(map[string][]string)
		for _, id := range c.logs[name] {
			for _, k := range cmdKeys[id] {
				out[k] = append(out[k], id)
			}
		}
		return out
	}
	ref := perKey("p0")
	for _, name := range c.names {
		ids := slices.Clone(c.logs[name])
		slices.Sort(ids)
		if len(ids) != n || len(slices.Compact(ids)) != n {
			return fmt.Sprintf("%s executed %v, want each of %d commands once", name, c.logs[name], n)
		}
		for k, order := range perKey(name) {
			if !slices.Equal(order, ref[k]) {
				return fmt.Sprintf("p0 and %s disagree on key %s: %v vs %v", name, k, ref[k], order)
			}
		}
	}
	return ""
}

// TestSeededSchedulesAgree replays 2 000 seeded schedules — FIFO links or
// arbitrary order, with and without 10 % message loss — and checks that every
// command executes exactly once at every replica and that all replicas
// execute each key's commands in the same order.
func TestSeededSchedulesAgree(t *testing.T) {
	const seeds = 2000
	for seed := int64(0); seed < seeds; seed++ {
		fifo, loss := seed%2 == 0, 0.0
		if seed%4 >= 2 {
			loss = 0.1
		}
		if msg := schedule(seed, 40, 3, fifo, loss); msg != "" {
			t.Fatalf("seed %d (fifo=%v loss=%.0f%%): %s", seed, fifo, loss*100, msg)
		}
	}
}

// TestConcurrentMixedWorkloadConverges: forty heavily interfering commands
// from five leaders, delivered in an arbitrary order drawn from a fresh seed
// each run (printed on failure, so a failure replays with schedule).
func TestConcurrentMixedWorkloadConverges(t *testing.T) {
	seed := time.Now().UnixNano()
	if msg := schedule(seed, 40, 3, false, 0); msg != "" {
		t.Fatalf("seed %d: %s", seed, msg)
	}
}

// BenchmarkExecuteFlatInHistory times one command, from Propose to execution
// at all six replicas of a group contending on one key, after 1 000 and after
// 8 000 earlier commands: the two must agree within noise, because execution
// only looks at committed, unexecuted instances.
func BenchmarkExecuteFlatInHistory(b *testing.B) {
	for _, history := range []int{1000, 8000} {
		b.Run(fmt.Sprintf("history=%d", history), func(b *testing.B) {
			c := newCluster(6)
			id := 0
			propose := func() {
				c.replicas[c.names[id%len(c.names)]].Propose(Command{ID: fmt.Sprint(id), Keys: []string{"doc"}})
				id++
				c.run(false)
			}
			for id < history {
				propose()
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				propose()
			}
		})
	}
}
