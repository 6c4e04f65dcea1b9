package core

import (
	"time"

	"colony/internal/transport"
	"colony/internal/wire"
)

// capacityNetwork gives every node registered through it the finite request
// capacity the paper-figure experiments model (§7), so saturation behaves
// like a real server rather than an infinitely fast simulator. Each node gets
// workers service slots; a client-facing request (commit acceptance, fetch,
// subscription, migrated transaction) occupies one for service — an edge's
// commit flight for service per transaction — and the slot
// stays held while the node's handler runs. A handler's reply, including a
// *transport.Deferred, passes through untouched: a deferred reply's wait
// holds no slot.
type capacityNetwork struct {
	transport.Network
	service time.Duration
	workers int
}

// AddNode registers the node behind its own set of service slots.
func (n capacityNetwork) AddNode(name string, h transport.Handler) transport.Conn {
	if h == nil {
		return n.Network.AddNode(name, nil)
	}
	slots := make(chan struct{}, n.workers)
	return n.Network.AddNode(name, func(from string, msg any) any {
		var cost time.Duration
		switch m := msg.(type) {
		case wire.EdgeCommit:
			// Accepting an uplink flight costs one request per transaction:
			// batching saves round trips, not DC capacity.
			cost = n.service * time.Duration(m.Units())
		case wire.Subscribe, wire.FetchObject, wire.MigratedTx:
			cost = n.service
		case wire.ReplBatch:
			// Applying replicated traffic costs a fraction of a client
			// request; this is what keeps N DCs from scaling capacity N× for
			// write-heavy workloads. The cost is per frame, not per
			// transaction — coalesced batches amortise the receive overhead.
			cost = n.service / 4
		default:
			return h(from, msg)
		}
		slots <- struct{}{}
		defer func() { <-slots }()
		time.Sleep(cost)
		return h(from, msg)
	})
}
