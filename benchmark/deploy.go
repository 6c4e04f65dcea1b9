package main

import (
	"fmt"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"

	"colony/internal/dc"
	"colony/internal/edge"
	"colony/internal/obs"
	"colony/internal/transport"
	"colony/internal/transport/tcp"
	"colony/internal/txn"
)

// The deployed shape every workload runs against: colony-server -listen
// defaults, one DC per TCP mesh on loopback, edges behind one dial-only mesh
// per DC. These are deployment constants, not knobs: the ledger is only
// comparable across commits if they never move.
const (
	numDCs        = 3
	dcShards      = 4
	kStability    = 2
	dcHeartbeat   = 100 * time.Millisecond
	tcpCork       = 200 * time.Microsecond
	autoAdvance   = 256 // DCs and the group parent, as colony-server sets it; device caches keep the default (off)
	edgeInboxSize = 512 // an edge device's inbox; the mesh default (4096) is sized for a DC
	// callTimeout replaces the 2 s default of edges and group members: when the
	// shared host's disk stalls, a DC can sit in one durable commit for longer
	// than that, and a read it answers late is slow, not failed.
	callTimeout = 10 * time.Second
)

// scratchRoot is where WALs and other run files go: inside the checkout (the
// working directory), never the system temp dir.
const scratchRoot = ".bench_build"

var scratchSeq atomic.Int64

// newScratchDir creates a fresh run-private directory under scratchRoot.
func newScratchDir(kind string) (string, error) {
	dir := filepath.Join(scratchRoot, fmt.Sprintf("%s-%d-%d", kind, os.Getpid(), scratchSeq.Add(1)))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", fmt.Errorf("scratch dir: %w", err)
	}
	return dir, nil
}

// deployConfig is what a workload needs from the DC side.
type deployConfig struct {
	partial bool
	// buckets[i] is DC i's boot-time bucket set (partial replication only).
	buckets [][]string
}

// deployment is one booted system: 3 DCs on their own meshes, one edge mesh
// per DC, optionally one peer-group site mesh attached to dc0.
type deployment struct {
	dir      string
	regDC    *obs.Registry // DCs, their meshes, their WALs
	regEdge  *obs.Registry // edges, group members, their meshes
	tr       *tracer       // nil when tracing is off
	dcMeshes []*tcp.Mesh
	dcs      []*dc.DC
	dcAddrs  []string
	// edgeNets[i] is the (possibly decorated) network edges of DC i register on.
	edgeNets   []transport.Network
	edgeMeshes []*tcp.Mesh
	closers    []func()
}

func dcName(i int) string { return fmt.Sprintf("dc%d", i) }

// wrap decorates a mesh with the tracer when tracing is on.
func (d *deployment) wrap(n transport.Network, class nodeClass) transport.Network {
	if d.tr == nil {
		return n
	}
	return d.tr.network(n, class)
}

// boot starts the DC side and the per-DC edge meshes. On error everything
// already started is torn down.
func boot(cfg deployConfig, tr *tracer) (_ *deployment, err error) {
	dir, err := newScratchDir("wal")
	if err != nil {
		return nil, err
	}
	d := &deployment{dir: dir, regDC: obs.New(), regEdge: obs.New(), tr: tr}
	defer func() {
		if err != nil {
			d.close()
		}
	}()
	peers := make(map[int]string, numDCs)
	for i := 0; i < numDCs; i++ {
		peers[i] = dcName(i)
		m, err := tcp.New(tcp.Config{Name: dcName(i), Listen: "127.0.0.1:0", Obs: d.regDC, FlushDelay: tcpCork})
		if err != nil {
			return nil, err
		}
		d.dcMeshes = append(d.dcMeshes, m)
		d.dcAddrs = append(d.dcAddrs, m.Addr())
	}
	for i, m := range d.dcMeshes {
		for j, addr := range d.dcAddrs {
			if i != j {
				m.SetPeer(dcName(j), addr)
			}
		}
	}
	for i, m := range d.dcMeshes {
		c := dc.Config{
			Index: i, Name: dcName(i), NumDCs: numDCs, Shards: dcShards, K: kStability,
			Heartbeat: dcHeartbeat, AutoAdvanceThreshold: autoAdvance,
			DataDir: dir, SyncWrites: true, Obs: d.regDC,
		}
		if cfg.partial {
			c.PartialRepl = true
			c.Buckets = cfg.buckets[i]
		}
		node, err := dc.New(d.wrap(m, classDC), c)
		if err != nil {
			return nil, err
		}
		d.dcs = append(d.dcs, node)
	}
	for _, node := range d.dcs {
		node.SetPeers(peers)
	}
	for i := 0; i < numDCs; i++ {
		m, err := d.dialOnlyMesh(fmt.Sprintf("edges%d", i), i)
		if err != nil {
			return nil, err
		}
		d.edgeMeshes = append(d.edgeMeshes, m)
		d.edgeNets = append(d.edgeNets, d.wrap(m, classEdge))
	}
	return d, nil
}

// dialOnlyMesh creates an edge-side mesh that knows only its DC's address.
func (d *deployment) dialOnlyMesh(name string, dcIdx int) (*tcp.Mesh, error) {
	return tcp.New(tcp.Config{
		Name:       name,
		Peers:      map[string]string{dcName(dcIdx): d.dcAddrs[dcIdx]},
		Obs:        d.regEdge,
		FlushDelay: tcpCork,
		InboxDepth: edgeInboxSize,
	})
}

// newEdge registers an edge node behind DC dcIdx with its hooks installed. It
// is not subscribed yet: the caller follows with AddInterest (which also
// attaches it) or, for an edge with no interest, Connect.
func (d *deployment) newEdge(name string, dcIdx int, hooks edge.Hooks) *edge.Node {
	n := edge.New(d.edgeNets[dcIdx], edge.Config{Name: name, Actor: name, DC: dcName(dcIdx), CallTimeout: callTimeout, Obs: d.regEdge})
	n.SetHooks(hooks)
	d.closers = append(d.closers, n.Close)
	return n
}

// bootstrap creates the objects a workload starts from: an admin session at
// dc0 commits one transaction, and set-up continues once every DC can serve
// probe (an object of that transaction) at its K-stable cut, so that the
// subscriptions that follow return state.
func (d *deployment) bootstrap(build func(tx *edge.Tx), probe txn.ObjectID) error {
	admin := d.newEdge("admin", 0, edge.Hooks{})
	if err := admin.Connect(); err != nil {
		return err
	}
	tx := admin.Begin()
	build(tx)
	if _, err := tx.Commit(); err != nil {
		return err
	}
	deadline := time.Now().Add(drainLimit) // three durable commits in a row, on a disk that may be stalling
	for _, node := range d.dcs {
		for {
			if _, err := node.ReadAt(probe, node.Stable()); err == nil {
				break
			}
			if time.Now().After(deadline) {
				return fmt.Errorf("bootstrap transaction never became stable at %s", node.Name())
			}
			time.Sleep(time.Millisecond)
		}
	}
	return nil
}

// close stops every node, mesh and file the deployment started, in reverse
// dependency order, and removes the WAL directory.
func (d *deployment) close() {
	for i := len(d.closers) - 1; i >= 0; i-- {
		d.closers[i]()
	}
	for _, m := range d.edgeMeshes {
		_ = m.Close() // shutting down; in-flight frames are dropped by contract
	}
	for _, node := range d.dcs {
		node.Close()
	}
	for _, m := range d.dcMeshes {
		_ = m.Close()
	}
	_ = os.RemoveAll(d.dir) // best effort; .bench_build is ignored and disposable
}
