// Command colony-server hosts a Colony deployment — a mesh of core-cloud
// DCs with optional peer-group parents (PoPs) — on the simulated network,
// and reports its state periodically until interrupted. It is the
// stand-alone "infrastructure side" used when poking at the system manually;
// the paper's real deployment maps each of these components to a Docker
// container (§7.2).
//
// The deployment's instrumentation registry is served over HTTP:
// Prometheus-style text at /metrics, expvar JSON at /debug/vars, and the
// runtime profiler under /debug/pprof/.
//
//	colony-server -dcs 3 -k 2 -pops 2 -scale 0.1 -metrics :8080
//
// With -listen the server instead hosts ONE real DC on a TCP mesh
// (internal/transport/tcp): each process is a data centre, -peers names the
// others, and replication crosses real sockets through the binary wire
// codec. A JSON state report is served at /status next to /metrics:
//
//	colony-server -listen 127.0.0.1:7000 -index 0 \
//	    -peers dc1=127.0.0.1:7001,dc2=127.0.0.1:7002 -metrics :8080
package main

import (
	"encoding/json"
	"expvar"
	"flag"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"sort"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"colony/internal/core"
	"colony/internal/crdt"
	"colony/internal/dc"
	"colony/internal/group"
	"colony/internal/obs"
	"colony/internal/transport/tcp"
	"colony/internal/txn"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "colony-server:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("colony-server", flag.ContinueOnError)
	var (
		dcs     = fs.Int("dcs", 3, "number of core-cloud data centres")
		k       = fs.Int("k", 2, "K-stability threshold for edge visibility")
		shards  = fs.Int("shards", 4, "storage servers per DC")
		pops    = fs.Int("pops", 1, "peer-group parents (PoP servers) to host")
		scale   = fs.Float64("scale", 0.1, "latency scale")
		every   = fs.Duration("status", 2*time.Second, "status report period")
		deny    = fs.Bool("deny-by-default", false, "ACL denies unlisted objects")
		adv     = fs.Int("auto-advance", 256, "journal length that triggers background base advancement (0 disables)")
		metrics = fs.String("metrics", ":8080", "HTTP address for /metrics and /debug/vars (empty disables)")
		datadir = fs.String("datadir", "", "directory for per-DC write-ahead logs (empty disables persistence)")
		syncw   = fs.Bool("syncwrites", false, "commit acks wait for WAL durability (group-committed; needs -datadir)")
		partial = fs.Bool("partial", false, "interest-scoped replication: DCs hold only subscribed buckets, stub the rest, backfill on demand")
		buckets = fs.String("buckets", "", "comma-separated boot-time bucket interest set (with -partial; empty = acquire on demand)")

		listen   = fs.String("listen", "", "TCP mesh listen address; switches to multi-process mode (one real DC per process)")
		peersF   = fs.String("peers", "", "comma-separated dcN=host:port pairs for the other DCs (mesh mode)")
		index    = fs.Int("index", 0, "this DC's index in vector timestamps (mesh mode)")
		workload = fs.Int("workload", 0, "commit this many counter increments after boot, for convergence checks (mesh mode)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	var bootBuckets []string
	if *buckets != "" {
		for _, b := range strings.Split(*buckets, ",") {
			if b = strings.TrimSpace(b); b != "" {
				bootBuckets = append(bootBuckets, b)
			}
		}
	}

	if *listen != "" {
		return runMesh(meshOptions{
			listen: *listen, peers: *peersF, index: *index,
			shards: *shards, k: *k, workload: *workload,
			metrics: *metrics, every: *every, datadir: *datadir,
			syncWrites: *syncw, autoAdvance: *adv,
			partial: *partial, buckets: bootBuckets,
		})
	}

	clusterCfg := core.ClusterConfig{
		DCs: *dcs, ShardsPerDC: *shards, K: *k,
		Profile: core.PaperProfile(), Scale: *scale,
		DenyByDefault:        *deny,
		AutoAdvanceThreshold: *adv,
		DataDir:              *datadir,
		SyncWrites:           *syncw,
		PartialRepl:          *partial,
	}
	if *partial && len(bootBuckets) > 0 {
		clusterCfg.DCBuckets = make(map[int][]string, *dcs)
		for i := 0; i < *dcs; i++ {
			clusterCfg.DCBuckets[i] = bootBuckets
		}
	}
	cluster, err := core.NewCluster(clusterCfg)
	if err != nil {
		return err
	}
	defer cluster.Close()

	var parents []*group.Parent
	for i := 0; i < *pops; i++ {
		p := group.NewParent(cluster.Network().Transport(), group.ParentConfig{
			Name: fmt.Sprintf("pop%d", i),
			DC:   cluster.DCName(i % *dcs),
			Obs:  cluster.Obs(),

			AutoAdvanceThreshold: *adv,
		})
		if err := p.Connect(); err != nil {
			p.Close()
			return err
		}
		defer p.Close()
		parents = append(parents, p)
	}

	if *metrics != "" {
		ln, err := serveMetrics(*metrics, cluster.Obs(), nil)
		if err != nil {
			return err
		}
		defer ln.Close()
	}

	fmt.Printf("colony-server: %d DCs (K=%d, %d shards each), %d PoPs, scale %.2f\n",
		*dcs, *k, *shards, *pops, *scale)
	fmt.Println("press Ctrl-C to stop")

	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	ticker := time.NewTicker(*every)
	defer ticker.Stop()
	for {
		select {
		case <-ticker.C:
			snap := cluster.Obs().Snapshot()
			fmt.Printf("[%s] net: %d sent / %d delivered / %d dropped / %d in flight\n",
				time.Now().Format("15:04:05"),
				snap.Counters["net.sent"], snap.Counters["net.delivered"],
				snap.Counters["net.dropped"], snap.Gauges["net.in_flight"])
			if rate := snap.CacheHitRate(); rate >= 0 {
				fmt.Printf("  cache: %.1f%% hit rate, max journal %d, %d base advancements\n",
					100*rate, snap.Gauges["store.max_journal_len"], snap.Counters["store.base_advance"])
			}
			if kst, ok := snap.Histograms["edge.commit_to_kstable_ns"]; ok && kst.Count > 0 {
				fmt.Printf("  commit→K-stable: p50=%s p95=%s p99=%s (n=%d)\n",
					time.Duration(kst.P50), time.Duration(kst.P95), time.Duration(kst.P99), kst.Count)
			}
			if rb, ok := snap.Histograms["dc.repl_batch_txs"]; ok && rb.Count > 0 {
				fmt.Printf("  write pipeline: repl batch p50=%d p95=%d, repl backlog=%d push outbox=%d, fsyncs=%d\n",
					rb.P50, rb.P95,
					snap.Gauges["dc.repl_outbox_depth"], snap.Gauges["dc.push_outbox_depth"],
					snap.Counters["wal.fsyncs"])
			}
			for i := 0; i < cluster.NumDCs(); i++ {
				d := cluster.DC(i)
				fmt.Printf("  %s: state=%v stable=%v log=%d masked=%d\n",
					d.Name(), d.State(), d.Stable(), d.LogLen(), d.MaskedCount())
				if err := d.LastWALError(); err != nil {
					fmt.Printf("  %s: WAL ERROR (durability degraded): %v\n", d.Name(), err)
				}
			}
			for _, p := range parents {
				fmt.Printf("  %s: members=%v stream=%d\n",
					p.Name(), p.Members(), p.StreamLen())
			}
		case <-sigs:
			fmt.Println("\nshutting down")
			return nil
		}
	}
}

// metricsMux builds the HTTP surface both modes serve at -metrics: the
// registry as Prometheus text at /metrics and as expvar JSON at /debug/vars,
// the runtime profiler under /debug/pprof/, and — in mesh mode, where status
// is non-nil — the JSON state report at /status.
func metricsMux(reg *obs.Registry, status func() meshStatus) *http.ServeMux {
	reg.PublishExpvar("colony")
	mux := http.NewServeMux()
	mux.Handle("/metrics", reg.Handler())
	mux.Handle("/debug/vars", expvar.Handler())
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	if status != nil {
		mux.HandleFunc("/status", func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Type", "application/json")
			_ = json.NewEncoder(w).Encode(status())
		})
	}
	return mux
}

// serveMetrics serves metricsMux on addr in the background; the caller closes
// the returned listener on shutdown.
func serveMetrics(addr string, reg *obs.Registry, status func() meshStatus) (net.Listener, error) {
	mux := metricsMux(reg, status)
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("metrics listener: %w", err)
	}
	go func() { _ = http.Serve(ln, mux) }()
	extra := ""
	if status != nil {
		extra = ", status at /status"
	}
	fmt.Printf("metrics: http://%s/metrics (expvar at /debug/vars, pprof at /debug/pprof/%s)\n", ln.Addr(), extra)
	return ln, nil
}

// meshOptions carries the -listen mode's flag values.
type meshOptions struct {
	listen      string
	peers       string
	index       int
	shards      int
	k           int
	workload    int
	metrics     string
	every       time.Duration
	datadir     string
	syncWrites  bool
	autoAdvance int
	partial     bool
	buckets     []string
}

// meshCounterID is the well-known object the -workload driver increments;
// /status reports its value so an external observer (or the e2e test) can
// assert cluster-wide convergence.
var meshCounterID = txn.ObjectID{Bucket: "mesh", Key: "counter"}

// runMesh hosts one real DC on a TCP mesh: the multi-process deployment mode.
func runMesh(o meshOptions) error {
	name := fmt.Sprintf("dc%d", o.index)
	peers := map[int]string{o.index: name}
	addrs := map[string]string{}
	if o.peers != "" {
		for _, pair := range strings.Split(o.peers, ",") {
			nameAddr := strings.SplitN(strings.TrimSpace(pair), "=", 2)
			if len(nameAddr) != 2 {
				return fmt.Errorf("bad -peers entry %q (want dcN=host:port)", pair)
			}
			var idx int
			if _, err := fmt.Sscanf(nameAddr[0], "dc%d", &idx); err != nil {
				return fmt.Errorf("bad peer name %q (want dcN): %w", nameAddr[0], err)
			}
			peers[idx] = nameAddr[0]
			addrs[nameAddr[0]] = nameAddr[1]
		}
	}
	// Indexes must form 0..n-1: vector timestamps are positional.
	for i := 0; i < len(peers); i++ {
		if _, ok := peers[i]; !ok {
			return fmt.Errorf("peer set has a gap: no dc%d among %d DCs", i, len(peers))
		}
	}

	reg := obs.New()
	mesh, err := tcp.New(tcp.Config{Name: name, Listen: o.listen, Peers: addrs, Obs: reg})
	if err != nil {
		return err
	}
	defer mesh.Close()

	d, err := dc.New(mesh, dc.Config{
		Index:  o.index,
		Name:   name,
		NumDCs: len(peers),
		Shards: o.shards,
		K:      o.k,
		// Real time, real sockets: gossip briskly so convergence does not
		// wait on traffic.
		Heartbeat:            100 * time.Millisecond,
		Obs:                  reg,
		DataDir:              o.datadir,
		SyncWrites:           o.syncWrites,
		PartialRepl:          o.partial,
		Buckets:              o.buckets,
		AutoAdvanceThreshold: o.autoAdvance,
	})
	if err != nil {
		return err
	}
	defer d.Close()
	d.SetPeers(peers)

	var workloadDone atomic.Bool
	if o.workload > 0 {
		go func() {
			for i := 0; i < o.workload; i++ {
				tx := d.Begin(name)
				tx.Update(meshCounterID, crdt.KindCounter, crdt.Op{Counter: &crdt.CounterOp{Delta: 1}})
				if _, err := tx.Commit(); err != nil {
					fmt.Fprintf(os.Stderr, "workload commit %d: %v\n", i, err)
					return
				}
			}
			workloadDone.Store(true)
		}()
	} else {
		workloadDone.Store(true)
	}

	status := func() meshStatus {
		st := meshStatus{
			Name:         name,
			Index:        o.index,
			NumDCs:       len(peers),
			State:        d.State(),
			Stable:       d.Stable(),
			LogLen:       d.LogLen(),
			WorkloadDone: workloadDone.Load(),
		}
		if obj, err := d.ReadAt(meshCounterID, d.State()); err == nil {
			st.Counter = obj.(*crdt.Counter).Total()
		}
		return st
	}

	if o.metrics != "" {
		ln, err := serveMetrics(o.metrics, reg, status)
		if err != nil {
			return err
		}
		defer ln.Close()
	}

	peerNames := make([]string, 0, len(addrs))
	for n := range addrs {
		peerNames = append(peerNames, n)
	}
	sort.Strings(peerNames)
	fmt.Printf("colony-server: %s on TCP mesh %s (K=%d, %d shards), peers %v\n",
		name, mesh.Addr(), o.k, o.shards, peerNames)
	fmt.Println("press Ctrl-C to stop")

	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	ticker := time.NewTicker(o.every)
	defer ticker.Stop()
	for {
		select {
		case <-ticker.C:
			st := status()
			snap := reg.Snapshot()
			fmt.Printf("[%s] %s: state=%v stable=%v log=%d counter=%d | net: %d sent / %d delivered / %d dropped\n",
				time.Now().Format("15:04:05"), name, st.State, st.Stable, st.LogLen, st.Counter,
				snap.Counters["net.sent"], snap.Counters["net.delivered"], snap.Counters["net.dropped"])
		case <-sigs:
			fmt.Println("\nshutting down")
			return nil
		}
	}
}

// meshStatus is the /status JSON document in mesh mode.
type meshStatus struct {
	Name         string   `json:"name"`
	Index        int      `json:"index"`
	NumDCs       int      `json:"num_dcs"`
	State        []uint64 `json:"state"`
	Stable       []uint64 `json:"stable"`
	LogLen       int      `json:"log_len"`
	Counter      int64    `json:"counter"`
	WorkloadDone bool     `json:"workload_done"`
}
