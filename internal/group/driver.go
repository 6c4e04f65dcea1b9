package group

import (
	"sync"
	"time"

	"colony/internal/edge"
	"colony/internal/epaxos"
	"colony/internal/obs"
	"colony/internal/txn"
	"colony/internal/vclock"
)

// driver runs a group node's EPaxos replica — the same for a member and the
// parent. The replica is a single-threaded state machine, so every call into
// it is made under mu, and it sends from inside those calls; no transport's
// send waits for a peer's handler, so holding mu there cannot deadlock two
// nodes. The transactions it executes are queued under mu and
// applied, in the replica's order, outside it by whichever caller holds the
// drain baton: apply runs update listeners without the lock, a listener that
// commits (re-entering propose) queues behind the drain instead of
// deadlocking, and no two goroutines can reorder executions.
type driver struct {
	apply func(*txn.Transaction)

	mu       sync.Mutex
	replica  *epaxos.Replica
	ready    []*txn.Transaction // executed by the replica, not yet applied
	draining bool
	// waiters are PSI commits blocked until their transaction is applied.
	waiters map[vclock.Dot]chan struct{}

	// EPaxos round counters (nil-safe; shared deployment-wide by name).
	proposed, executed, msgs *obs.Counter

	stop chan struct{}
	done chan struct{}
}

// newDriver starts the replica of node, applying executed transactions with
// apply and re-sending stalled consensus rounds every interval.
func newDriver(node *edge.Node, interval time.Duration, apply func(*txn.Transaction)) *driver {
	reg := node.Obs()
	d := &driver{
		apply:    apply,
		waiters:  make(map[vclock.Dot]chan struct{}),
		proposed: reg.Counter("group.epaxos_proposed"),
		executed: reg.Counter("group.epaxos_executed"),
		msgs:     reg.Counter("group.epaxos_msgs"),
		stop:     make(chan struct{}),
		done:     make(chan struct{}),
	}
	d.replica = epaxos.NewReplica(node.Name(), nil,
		func(to string, msg any) { d.msgs.Inc(); _ = node.Send(to, msg) },
		d.enqueue)
	go d.loop(interval)
	return d
}

// enqueue is the replica's exec callback; it runs under mu.
func (d *driver) enqueue(cmd epaxos.Command) {
	if t, ok := cmd.Payload.(*txn.Transaction); ok {
		d.ready = append(d.ready, t)
	}
}

// drain applies the queued executions in order, unless another caller
// already holds the baton (it will apply them).
func (d *driver) drain() {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.draining {
		return
	}
	d.draining = true
	for len(d.ready) > 0 {
		t := d.ready[0]
		d.ready = d.ready[1:]
		d.mu.Unlock()
		d.executed.Inc()
		d.apply(t)
		d.mu.Lock()
		if ch, ok := d.waiters[t.Dot]; ok {
			close(ch)
			delete(d.waiters, t.Dot)
		}
	}
	d.draining = false
}

// propose submits t to the group's consensus. With wait > 0 it blocks until
// t has been applied here or wait elapses (the PSI commit variant); a PSI
// commit from inside an update listener therefore waits out the timeout.
func (d *driver) propose(t *txn.Transaction, wait time.Duration) {
	d.proposed.Inc()
	var applied chan struct{}
	d.mu.Lock()
	if wait > 0 {
		applied = make(chan struct{})
		d.waiters[t.Dot] = applied
	}
	d.replica.Propose(epaxos.Command{ID: t.Dot.String(), Keys: interferenceKeys(t), Payload: t.Clone()})
	d.mu.Unlock()
	d.drain()
	if applied == nil {
		return
	}
	select {
	case <-applied:
	case <-time.After(wait):
		d.mu.Lock()
		delete(d.waiters, t.Dot)
		d.mu.Unlock()
	}
}

// handle feeds one message to the replica and reports whether it was an
// EPaxos message.
func (d *driver) handle(from string, msg any) bool {
	d.mu.Lock()
	ok := d.replica.HandleMessage(from, msg)
	d.mu.Unlock()
	if ok {
		d.drain()
	}
	return ok
}

// setPeers installs the replica's peer set.
func (d *driver) setPeers(peers []string) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.replica.SetPeers(peers)
}

// loop ticks the replica's retry clock.
func (d *driver) loop(interval time.Duration) {
	defer close(d.done)
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	for {
		select {
		case <-ticker.C:
			d.mu.Lock()
			d.replica.Tick()
			d.mu.Unlock()
		case <-d.stop:
			return
		}
	}
}

// close stops the retry clock.
func (d *driver) close() {
	select {
	case <-d.stop:
	default:
		close(d.stop)
	}
	<-d.done
}
