package main

import (
	"time"
)

// The correctness oracle gates every number the benchmark prints. It has
// three parts:
//
//   - in flight (tracker.deliver): per-writer dot order is never inverted at
//     any subscriber (an inversion is an anomaly: a failed operation, see
//     tracker.anomalies), and workload checks on each delivered transaction
//     (a chat post is never seen split);
//   - at the end of the drain (checkDelivery): nothing committed is still
//     missing at a replica that should have it;
//   - on the final state (workload.verify): every DC agrees with the
//     generator's model, and so does every interested edge. A transaction
//     applied twice shows here, as a counter total or sequence length above
//     the model's.

// convergeLimit is generous for the same reason as drainLimit.
const convergeLimit = 30 * time.Second

// runOracle runs the end-of-run checks; violations land in e.trk.
func runOracle(e *env) {
	checkDelivery(e.trk)
	// The DCs must have exchanged everything before their states are compared.
	deadline := time.Now().Add(convergeLimit)
	for !dcsConverged(e) && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if !dcsConverged(e) {
		e.trk.violate("convergence: DC state vectors still differ %v after the drain", convergeLimit)
	}
	e.w.verify(e)
}

func dcsConverged(e *env) bool {
	first := e.d.dcs[0].State()
	for _, d := range e.d.dcs[1:] {
		if !d.State().Equal(first) {
			return false
		}
	}
	return true
}

// checkDelivery flags every op that is not complete: a dropped delivery, a
// missing ack, or a commit that never became K-stable.
func checkDelivery(t *tracker) {
	for _, w := range t.wlist {
		w.mu.RLock()
		for _, o := range w.ops {
			if o.done.Load() != 0 {
				continue
			}
			switch {
			case o.ack.Load() == 0:
				t.violate("delivery: %s:%d was never acknowledged", w.name, o.seq)
			case o.remaining.Load() > 0:
				t.violate("delivery: %s:%d is missing at %d interested edges", w.name, o.seq, o.remaining.Load())
			case o.gremaining.Load() > 0:
				t.violate("delivery: %s:%d is missing at %d group members", w.name, o.seq, o.gremaining.Load())
			default:
				t.violate("delivery: %s:%d never became K-stable at its origin", w.name, o.seq)
			}
		}
		w.mu.RUnlock()
	}
}
