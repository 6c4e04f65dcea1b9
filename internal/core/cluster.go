// Package core is the Colony middleware: the developer-facing API of the
// paper's §6.1. It assembles the substrates — DC mesh, edge nodes, peer
// groups, session management, ACL enforcement — behind a small programming
// model: connect a session, open buckets, run atomic transactions over CRDT
// objects, subscribe to update events, and join or migrate between groups.
package core

import (
	"fmt"
	"path/filepath"
	"time"

	"colony/internal/acl"
	"colony/internal/dc"
	"colony/internal/obs"
	"colony/internal/security"
	"colony/internal/simnet"
	"colony/internal/transport"
)

// LatencyProfile models the network classes of the paper's testbed (§7.2):
// 0.15 ms inside a cluster, 10 ms carrier Ethernet (border links), 50 ms
// mobile cellular (far-edge links).
type LatencyProfile struct {
	// DCMesh is the DC↔DC one-way latency.
	DCMesh time.Duration
	// EdgeLink is the far-edge↔infrastructure one-way latency (cellular).
	EdgeLink time.Duration
	// GroupLAN is the latency between peer-group members and their parent.
	GroupLAN time.Duration
	// PoPLink is the border (PoP parent) ↔ DC latency (carrier Ethernet).
	PoPLink time.Duration
	// Jitter adds uniform noise to every link.
	Jitter time.Duration
}

// PaperProfile reproduces the evaluation's network (§7.2).
func PaperProfile() LatencyProfile {
	return LatencyProfile{
		DCMesh:   10 * time.Millisecond,
		EdgeLink: 50 * time.Millisecond,
		GroupLAN: 1 * time.Millisecond,
		PoPLink:  10 * time.Millisecond,
		Jitter:   500 * time.Microsecond,
	}
}

// ClusterConfig configures a Colony deployment.
type ClusterConfig struct {
	// DCs is the number of core-cloud data centres (default 3).
	DCs int
	// ShardsPerDC is the number of storage servers per DC (default 4).
	ShardsPerDC int
	// K is the K-stability threshold for edge visibility (default 2,
	// clamped to the DC count).
	K int
	// Profile is the latency model; the zero value means instantaneous
	// links (unit tests). Scale multiplies all latencies (e.g. 0.1 runs the
	// modelled network 10× faster); 0 means 1.0.
	Profile LatencyProfile
	Scale   float64
	// Heartbeat is the DC gossip period (default 20ms, scaled).
	Heartbeat time.Duration
	// Seed seeds network jitter; 0 uses the current time.
	Seed int64
	// DefaultAllow is the ACL default (default true).
	DenyByDefault bool
	// ServiceTime and Workers model each DC's finite request-processing
	// capacity: a client-facing request (commit acceptance, fetch,
	// subscription, migrated transaction) occupies one of Workers slots
	// (default 2×ShardsPerDC) for ServiceTime, a replication batch for
	// ServiceTime/4. Zero disables. ServiceTime is wall-clock (pre-scale it
	// when the experiment scales latencies).
	ServiceTime time.Duration
	Workers     int
	// AutoAdvanceThreshold bounds per-object journal growth on every DC
	// storage shard via background base advancement (see dc.Config); 0
	// disables.
	AutoAdvanceThreshold int
	// DataDir enables DC persistence: each DC keeps a write-ahead log under
	// DataDir/dcN and replays it on restart. Empty disables (unit tests).
	DataDir string
	// SyncWrites makes commit acknowledgement wait for WAL durability; the
	// write path shares one fsync across a group-commit batch (see
	// dc.Config). Only meaningful with DataDir.
	SyncWrites bool
	// PartialRepl enables interest-scoped replication (DESIGN §4h): each
	// DC holds only its interest set's buckets, receives payload-stripped
	// stubs for the rest, and backfills buckets on demand.
	PartialRepl bool
	// DCBuckets is the boot-time interest set per DC index (missing entries
	// start empty and acquire buckets purely on demand). Ignored unless
	// PartialRepl is set.
	DCBuckets map[int][]string
	// Obs is the deployment's instrumentation registry. Nil creates a fresh
	// registry, so every deployment is always observable via Cluster.Obs();
	// supply one to aggregate several clusters into a single exposition.
	Obs *obs.Registry
}

// Cluster is a running Colony deployment: the core-cloud DC mesh plus the
// shared services (session manager, security policy).
type Cluster struct {
	cfg      ClusterConfig
	net      *simnet.Network
	dcs      []*dc.DC
	sessions *security.SessionManager
	policy   *acl.Policy
}

// NewCluster boots a Colony deployment.
func NewCluster(cfg ClusterConfig) (*Cluster, error) {
	if cfg.DCs <= 0 {
		cfg.DCs = 3
	}
	if cfg.ShardsPerDC <= 0 {
		cfg.ShardsPerDC = 4
	}
	if cfg.K <= 0 {
		cfg.K = 2
	}
	if cfg.K > cfg.DCs {
		cfg.K = cfg.DCs
	}
	if cfg.Heartbeat <= 0 {
		cfg.Heartbeat = 20 * time.Millisecond
	}
	scale := cfg.Scale
	if scale == 0 {
		scale = 1.0
	}
	if cfg.Obs == nil {
		cfg.Obs = obs.New()
	}
	net := simnet.New(simnet.Config{Scale: scale, Seed: cfg.Seed, Obs: cfg.Obs})
	c := &Cluster{
		cfg:      cfg,
		net:      net,
		sessions: security.NewSessionManager(),
		policy:   acl.NewPolicy(!cfg.DenyByDefault),
	}
	var dcNet transport.Network = net.Transport()
	if cfg.ServiceTime > 0 {
		if cfg.Workers <= 0 {
			cfg.Workers = 2 * cfg.ShardsPerDC
		}
		dcNet = capacityNetwork{Network: dcNet, service: cfg.ServiceTime, workers: cfg.Workers}
	}
	peers := make(map[int]string, cfg.DCs)
	for i := 0; i < cfg.DCs; i++ {
		peers[i] = fmt.Sprintf("dc%d", i)
	}
	for i := 0; i < cfg.DCs; i++ {
		dataDir := ""
		if cfg.DataDir != "" {
			dataDir = filepath.Join(cfg.DataDir, peers[i])
		}
		d, err := dc.New(dcNet, dc.Config{
			Index:      i,
			Name:       peers[i],
			NumDCs:     cfg.DCs,
			Shards:     cfg.ShardsPerDC,
			K:          cfg.K,
			Heartbeat:  cfg.Heartbeat,
			Obs:        cfg.Obs,
			DataDir:    dataDir,
			SyncWrites: cfg.SyncWrites,

			PartialRepl: cfg.PartialRepl,
			Buckets:     cfg.DCBuckets[i],

			AutoAdvanceThreshold: cfg.AutoAdvanceThreshold,
		})
		if err != nil {
			net.Close()
			return nil, fmt.Errorf("core: boot dc%d: %w", i, err)
		}
		d.SetPeers(peers)
		d.SetVisibilityCheck(c.policy.CheckTx)
		c.dcs = append(c.dcs, d)
	}
	// Wire the DC mesh latencies.
	for i := 0; i < cfg.DCs; i++ {
		for j := i + 1; j < cfg.DCs; j++ {
			net.SetBidirectional(peers[i], peers[j], simnet.LinkConfig{
				Latency: cfg.Profile.DCMesh, Jitter: cfg.Profile.Jitter,
			})
		}
	}
	return c, nil
}

// Close shuts the deployment down.
func (c *Cluster) Close() {
	for _, d := range c.dcs {
		d.Close()
	}
	c.net.Close()
}

// Network exposes the simulated network (for fault injection in tests and
// experiments).
func (c *Cluster) Network() *simnet.Network { return c.net }

// Obs exposes the deployment's instrumentation registry: every layer (store,
// edge caches, DCs, groups, network) reports into it, so one Snapshot covers
// the whole deployment.
func (c *Cluster) Obs() *obs.Registry { return c.cfg.Obs }

// DC returns data centre i.
func (c *Cluster) DC(i int) *dc.DC { return c.dcs[i] }

// NumDCs returns the DC count.
func (c *Cluster) NumDCs() int { return len(c.dcs) }

// DCName returns the node name of data centre i.
func (c *Cluster) DCName(i int) string { return c.dcs[i].Name() }

// Sessions exposes the session manager (registration, authentication).
func (c *Cluster) Sessions() *security.SessionManager { return c.sessions }

// Policy exposes the security policy; after mutating it, call
// RefreshVisibility so DCs re-evaluate masked transactions.
func (c *Cluster) Policy() *acl.Policy { return c.policy }

// RefreshVisibility re-runs the ACL check on every DC after a policy change
// (paper §5.3: security policies evolve dynamically).
func (c *Cluster) RefreshVisibility() {
	for _, d := range c.dcs {
		d.RecheckVisibility()
	}
}

// linkEdge configures the latency of a client's links according to its
// placement.
func (c *Cluster) linkEdge(name, target string, lat time.Duration) {
	c.net.SetBidirectional(name, target, simnet.LinkConfig{
		Latency: lat, Jitter: c.cfg.Profile.Jitter,
	})
}
