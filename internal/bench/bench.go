// Package bench reproduces the paper's experimental evaluation (§7): the
// throughput/response-time study of Figure 4, the disconnection studies of
// Figures 5 and 6, the migration study of Figure 7, and the headline claims
// of §1/§7.3. Each experiment deploys a Colony cluster on the simulated
// network with the paper's latency classes, drives the ColonyChat workload,
// and returns raw samples plus summary rows that cmd/colony-bench renders.
package bench

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"time"

	"colony/internal/chat"
	"colony/internal/core"
	"colony/internal/edge"
	"colony/internal/group"
	"colony/internal/simnet"
)

// Mode selects the system under test (§7.3).
type Mode int

// The three configurations of Figure 4.
const (
	// ModeAntidote is the classical geo-replicated client: no cache, every
	// operation contacts the DC ("AntidoteDB" in the paper).
	ModeAntidote Mode = iota + 1
	// ModeSwiftCloud uses only the local cache and talks directly to a
	// remote DC ("SwiftCloud").
	ModeSwiftCloud
	// ModeColony adds peer groups with a collaborative cache ("Colony").
	ModeColony
)

// String names the mode like the paper's legends.
func (m Mode) String() string {
	switch m {
	case ModeAntidote:
		return "AntidoteDB"
	case ModeSwiftCloud:
		return "SwiftCloud"
	case ModeColony:
		return "Colony"
	default:
		return fmt.Sprintf("mode(%d)", int(m))
	}
}

// Sample is one measured transaction.
type Sample struct {
	// At is the offset from experiment start.
	At time.Duration
	// Latency is the client-observed response time.
	Latency time.Duration
	// Source is the hit class (cache / group / DC).
	Source edge.ReadSource
	// User identifies the acting client.
	User string
	// Write marks update transactions.
	Write bool
}

// recorder collects samples thread-safely.
type recorder struct {
	mu      sync.Mutex
	start   time.Time
	samples []Sample
}

func newRecorder() *recorder { return &recorder{start: time.Now()} }

func (r *recorder) add(user string, latency time.Duration, src edge.ReadSource, write bool) {
	r.mu.Lock()
	r.samples = append(r.samples, Sample{
		At:      time.Since(r.start) - latency,
		Latency: latency,
		Source:  src,
		User:    user,
		Write:   write,
	})
	r.mu.Unlock()
}

func (r *recorder) all() []Sample {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Sample, len(r.samples))
	copy(out, r.samples)
	return out
}

// --- summary statistics ---

// LatencyStats summarises a latency distribution.
type LatencyStats struct {
	Count            int
	MeanMs, MedianMs float64
	P95Ms, P99Ms     float64
}

// Stats computes summary statistics over samples.
func Stats(samples []Sample) LatencyStats {
	if len(samples) == 0 {
		return LatencyStats{}
	}
	lat := make([]float64, len(samples))
	var sum float64
	for i, s := range samples {
		ms := float64(s.Latency) / float64(time.Millisecond)
		lat[i] = ms
		sum += ms
	}
	sort.Float64s(lat)
	pct := func(p float64) float64 {
		idx := int(math.Ceil(p*float64(len(lat)))) - 1
		if idx < 0 {
			idx = 0
		}
		if idx >= len(lat) {
			idx = len(lat) - 1
		}
		return lat[idx]
	}
	return LatencyStats{
		Count:    len(samples),
		MeanMs:   sum / float64(len(lat)),
		MedianMs: pct(0.50),
		P95Ms:    pct(0.95),
		P99Ms:    pct(0.99),
	}
}

// HitRates returns the fraction of reads served by each hit class.
type HitRates struct {
	Cache, Group, DC float64
}

// ComputeHitRates tallies the read sources.
func ComputeHitRates(samples []Sample) HitRates {
	var hr HitRates
	n := 0
	for _, s := range samples {
		if s.Write {
			continue
		}
		n++
		switch s.Source {
		case edge.SourceCache:
			hr.Cache++
		case edge.SourceGroup:
			hr.Group++
		case edge.SourceDC:
			hr.DC++
		}
	}
	if n > 0 {
		hr.Cache /= float64(n)
		hr.Group /= float64(n)
		hr.DC /= float64(n)
	}
	return hr
}

// --- deployment driver ---

// Deployment is a booted cluster plus its clients for one experiment run.
type Deployment struct {
	Cluster *core.Cluster
	Clients []chat.Client
	Parents []*group.Parent
	conns   []*core.Connection
	cloud   []*core.CloudSession
}

// MaxJournalLen reports the longest object journal anywhere in the
// deployment — DC storage shards, group parents and device caches — the
// figure DeployConfig.AutoAdvanceThreshold bounds.
func (d *Deployment) MaxJournalLen() int {
	longest := 0
	for i := 0; i < d.Cluster.NumDCs(); i++ {
		if n := d.Cluster.DC(i).MaxJournalLen(); n > longest {
			longest = n
		}
	}
	for _, p := range d.Parents {
		if n := p.Node().MaxJournalLen(); n > longest {
			longest = n
		}
	}
	for _, c := range d.conns {
		if n := c.Node().MaxJournalLen(); n > longest {
			longest = n
		}
	}
	return longest
}

// DeployConfig describes a deployment.
type DeployConfig struct {
	Mode      Mode
	DCs       int
	K         int
	Clients   int
	GroupSize int // Colony mode; default 12
	// Trace supplies memberships for prefetching.
	Trace *chat.Trace
	// Scale shrinks latencies (and is also applied to the DC service time).
	Scale float64
	// ServiceTime models DC capacity per client-facing op (effective, i.e.
	// already scaled); 0 disables.
	ServiceTime time.Duration
	Workers     int
	// PrefetchShare is the fraction of each user's channels warmed into the
	// cache (default 1.0; the timeline experiments use 0.5 to model bounded
	// device caches).
	PrefetchShare float64
	// CacheLimit bounds each client's interest set (LRU); 0 = unlimited.
	CacheLimit int
	Seed       int64
	// AutoAdvanceThreshold bounds per-object journal growth everywhere (DC
	// shards, device caches, group parents) via background base
	// advancement. 0 means the default (256); negative disables.
	AutoAdvanceThreshold int
}

// Deploy boots a cluster and connects the clients for the configured mode.
// Client i plays trace user i.
func Deploy(cfg DeployConfig) (*Deployment, error) {
	if cfg.GroupSize <= 0 {
		cfg.GroupSize = 12
	}
	if cfg.K <= 0 {
		cfg.K = 2
	}
	switch {
	case cfg.AutoAdvanceThreshold == 0:
		cfg.AutoAdvanceThreshold = 256
	case cfg.AutoAdvanceThreshold < 0:
		cfg.AutoAdvanceThreshold = 0
	}
	cluster, err := core.NewCluster(core.ClusterConfig{
		DCs:         cfg.DCs,
		ShardsPerDC: 4,
		K:           cfg.K,
		Profile:     core.PaperProfile(),
		Scale:       cfg.Scale,
		Heartbeat:   scaled(20*time.Millisecond, cfg.Scale),
		Seed:        cfg.Seed,
		ServiceTime: cfg.ServiceTime,
		Workers:     cfg.Workers,

		AutoAdvanceThreshold: cfg.AutoAdvanceThreshold,
	})
	if err != nil {
		return nil, err
	}
	d := &Deployment{Cluster: cluster}

	// Populate the static universe through an admin connection.
	admin, err := cluster.Connect(core.ConnectOptions{
		Name: "admin", DC: 0, RetryInterval: scaled(20*time.Millisecond, cfg.Scale),
	})
	if err != nil {
		d.Close()
		return nil, err
	}
	if cfg.Trace != nil {
		if err := chat.Populate(admin, cfg.Trace); err != nil {
			admin.Close()
			d.Close()
			return nil, err
		}
		// Make the universe durable and K-stable before clients warm their
		// caches, so prefetch seeds carry real state.
		if err := admin.Flush(60 * time.Second); err != nil {
			admin.Close()
			d.Close()
			return nil, err
		}
		target := admin.State()
		deadline := time.Now().Add(30 * time.Second)
		for time.Now().Before(deadline) {
			if target.LEQ(cluster.DC(0).Stable()) {
				break
			}
			time.Sleep(time.Millisecond)
		}
	}
	admin.Close()

	// Colony mode: one parent (PoP) per group of GroupSize clients.
	if cfg.Mode == ModeColony {
		nGroups := (cfg.Clients + cfg.GroupSize - 1) / cfg.GroupSize
		for g := 0; g < nGroups; g++ {
			p := group.NewParent(cluster.Network().Transport(), group.ParentConfig{
				Name:          fmt.Sprintf("pop%d", g),
				DC:            cluster.DCName(g % cfg.DCs),
				RetryInterval: scaled(20*time.Millisecond, cfg.Scale),
				Obs:           cluster.Obs(),

				AutoAdvanceThreshold: cfg.AutoAdvanceThreshold,
			})
			// Border link (carrier Ethernet); simnet applies the scale.
			cluster.Network().SetBidirectional(p.Name(), cluster.DCName(g%cfg.DCs),
				simnet.LinkConfig{Latency: 10 * time.Millisecond})
			if err := p.Connect(); err != nil {
				p.Close()
				d.Close()
				return nil, err
			}
			d.Parents = append(d.Parents, p)
		}
	}

	// Connect the clients concurrently (hundreds of sequential WAN round
	// trips would dominate setup time).
	clients := make([]chat.Client, cfg.Clients)
	errs := make([]error, cfg.Clients)
	var wg sync.WaitGroup
	var mu sync.Mutex
	for i := 0; i < cfg.Clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			user := chat.UserName(i)
			name := fmt.Sprintf("cl%04d", i)
			dcIdx := i % cfg.DCs
			switch cfg.Mode {
			case ModeAntidote:
				s := cluster.CloudConnect(name, user, dcIdx)
				mu.Lock()
				d.cloud = append(d.cloud, s)
				mu.Unlock()
				clients[i] = chat.NewCloudClient(s, user)
			default:
				conn, err := cluster.Connect(core.ConnectOptions{
					Name: name, User: user, DC: dcIdx,
					RetryInterval: scaled(20*time.Millisecond, cfg.Scale),
					CacheLimit:    cfg.CacheLimit,
					MaxUnacked:    16,
					CallTimeout:   10 * time.Second,

					AutoAdvanceThreshold: cfg.AutoAdvanceThreshold,
				})
				if err != nil {
					errs[i] = err
					return
				}
				mu.Lock()
				d.conns = append(d.conns, conn)
				mu.Unlock()
				ec := chat.NewEdgeClient(conn)
				if cfg.Mode == ModeColony {
					parent := d.Parents[i/cfg.GroupSize]
					if err := conn.JoinGroup(parent.Name(), group.VariantAsync); err != nil {
						errs[i] = err
						return
					}
				}
				// Warm the cache with the user's channels ("all users start
				// with an initialised cache", §7.3.1).
				if cfg.Trace != nil && i < len(cfg.Trace.Membership) {
					share := cfg.PrefetchShare
					if share <= 0 || share > 1 {
						share = 1
					}
					n := int(float64(cfg.Trace.Config.ChannelsPerWS) * share)
					if n < 1 {
						n = 1
					}
					for _, w := range cfg.Trace.Membership[i] {
						ws := chat.WorkspaceName(w)
						chans := make([]string, n)
						for c := range chans {
							chans[c] = chat.ChannelName(c)
						}
						if err := ec.Prefetch(ws, chans...); err != nil {
							errs[i] = err
							return
						}
					}
				}
				clients[i] = ec
			}
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			d.Close()
			return nil, err
		}
	}
	d.Clients = clients
	return d, nil
}

// Close tears the deployment down.
func (d *Deployment) Close() {
	for _, c := range d.conns {
		c.Close()
	}
	for _, s := range d.cloud {
		s.Close()
	}
	for _, p := range d.Parents {
		p.Close()
	}
	d.Cluster.Close()
}

// runAction executes one trace action and records its sample.
func runAction(cl chat.Client, a chat.Action, rec *recorder) {
	start := time.Now()
	var (
		src   = edge.SourceCache
		write bool
	)
	switch a.Type {
	case chat.ActPost:
		write = true
		_ = cl.Post(a.Workspace, a.Channel, "m")
	case chat.ActRefresh:
		// A refresh re-reads the channel; the DC subscription has already
		// kept the cached copy fresh, so this is a read in the measured
		// path (evict-and-fetch refreshes are exercised by the ablations).
		_, s, err := cl.ReadChannel(a.Workspace, a.Channel)
		if err == nil {
			src = s
		} else {
			src = edge.SourceDC
		}
	default:
		var (
			s   edge.ReadSource
			err error
		)
		if a.Cold {
			// A cold read misses the local cache by construction (foreign
			// or long-evicted channel).
			_, s, err = cl.Refresh(a.Workspace, a.Channel)
		} else {
			_, s, err = cl.ReadChannel(a.Workspace, a.Channel)
		}
		if err == nil {
			src = s
		} else {
			src = edge.SourceDC
		}
	}
	if write {
		if _, ok := cl.(*chat.CloudClient); ok {
			src = edge.SourceDC
		}
	}
	rec.add(cl.User(), time.Since(start), src, write)
}

// RunActions drives a set of clients over their trace actions. When paced
// is true, each action waits for its trace offset (scaled); otherwise
// clients run closed-loop as fast as possible.
func RunActions(d *Deployment, actions []chat.Action, paced bool, scale float64) []Sample {
	perUser := make(map[int][]chat.Action)
	for _, a := range actions {
		if a.User < len(d.Clients) {
			perUser[a.User] = append(perUser[a.User], a)
		}
	}
	rec := newRecorder()
	var wg sync.WaitGroup
	for u, acts := range perUser {
		wg.Add(1)
		go func(u int, acts []chat.Action) {
			defer wg.Done()
			cl := d.Clients[u]
			for _, a := range acts {
				if paced {
					target := rec.start.Add(scaled(a.At, scale))
					if wait := time.Until(target); wait > 0 {
						time.Sleep(wait)
					}
				}
				runAction(cl, a, rec)
			}
		}(u, acts)
	}
	wg.Wait()
	return rec.all()
}

// scaled multiplies a duration by the latency scale.
func scaled(d time.Duration, scale float64) time.Duration {
	if scale == 0 {
		return d
	}
	return time.Duration(float64(d) * scale)
}
