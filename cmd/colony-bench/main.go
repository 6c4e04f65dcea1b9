// Command colony-bench regenerates every table and figure of the paper's
// evaluation (§7) on the simulated testbed:
//
//	colony-bench fig4    # throughput vs response time (6 configurations)
//	colony-bench fig5    # DC disconnection timeline
//	colony-bench fig6    # peer-group disconnection timeline
//	colony-bench fig7    # migration / group synchronisation timeline
//	colony-bench claims    # headline numbers (§1, §7.3)
//	colony-bench ablations # K-stability / commit-variant / group-size / cache
//	colony-bench all       # everything, in order
//
// Output is printed as aligned tables plus CSV blocks that plot directly.
// --scale accelerates the modelled network (0.1 = 10× faster than the
// paper's wall-clock; results are reported in model time). The performance
// ledger of the deployed system (real TCP mesh, per-layer budget) is a
// separate program: go run ./benchmark.
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"

	"colony/internal/bench"
	"colony/internal/edge"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "colony-bench:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("colony-bench", flag.ContinueOnError)
	var (
		scale      = fs.Float64("scale", 0.1, "latency scale (0.1 = 10x accelerated)")
		maxClients = fs.Int("max-clients", 256, "largest client count in the fig4 sweep")
		actions    = fs.Int("actions", 20, "closed-loop actions per client (fig4)")
		duration   = fs.Duration("duration", 70*time.Second, "timeline length in model time (fig5-7)")
		seed       = fs.Int64("seed", 1, "workload seed")
		quick      = fs.Bool("quick", false, "small configurations for a fast sanity run")
		obsDump    = fs.Bool("obs", true, "print the per-run instrumentation snapshot after each fig4 point")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	cmd := "all"
	if fs.NArg() > 0 {
		cmd = fs.Arg(0)
	}
	if *quick {
		*maxClients = 32
		*actions = 10
		*duration = 20 * time.Second
	}

	progress := func(msg string) { fmt.Fprintf(os.Stderr, "… %s\n", msg) }

	fig4cfg := bench.Fig4Config{
		ClientCounts:     clientSweep(*maxClients),
		ActionsPerClient: *actions,
		Scale:            *scale,
		Seed:             *seed,
	}
	tlcfg := bench.TimelineConfig{
		Duration:    *duration,
		FirstEvent:  *duration * 25 / 70,
		SecondEvent: *duration * 45 / 70,
		Scale:       *scale,
		Seed:        *seed,
	}

	var fig4 []bench.Fig4Point
	var fig5 *bench.TimelineResult
	switch cmd {
	case "fig4":
		pts, err := bench.RunFig4(fig4cfg, progress)
		if err != nil {
			return err
		}
		printFig4(pts, *obsDump)
	case "fig5":
		res, err := bench.RunFig5(tlcfg, progress)
		if err != nil {
			return err
		}
		printTimeline("Figure 5 — impact of a DC disconnection", res)
	case "fig6":
		res, err := bench.RunFig6(tlcfg, progress)
		if err != nil {
			return err
		}
		printTimeline("Figure 6 — impact of a peer-group disconnection", res)
	case "fig7":
		res, err := bench.RunFig7(tlcfg, progress)
		if err != nil {
			return err
		}
		printTimeline("Figure 7 — synchronising with a peer group", res)
	case "ablations":
		return runAblations(*scale, *seed)
	case "claims", "all":
		pts, err := bench.RunFig4(fig4cfg, progress)
		if err != nil {
			return err
		}
		fig4 = pts
		res5, err := bench.RunFig5(tlcfg, progress)
		if err != nil {
			return err
		}
		fig5 = res5
		if cmd == "all" {
			printFig4(fig4, *obsDump)
			printTimeline("Figure 5 — impact of a DC disconnection", fig5)
			res6, err := bench.RunFig6(tlcfg, progress)
			if err != nil {
				return err
			}
			printTimeline("Figure 6 — impact of a peer-group disconnection", res6)
			res7, err := bench.RunFig7(tlcfg, progress)
			if err != nil {
				return err
			}
			printTimeline("Figure 7 — synchronising with a peer group", res7)
		}
		printClaims(bench.DeriveClaims(fig4, fig5))
	default:
		return fmt.Errorf("unknown command %q (fig4|fig5|fig6|fig7|claims|ablations|all)", cmd)
	}
	return nil
}

// runAblations prints the design-choice studies of DESIGN.md §6.
func runAblations(scale float64, seed int64) error {
	fmt.Println("\n== Ablation: K-stability threshold (§3.8) ==")
	fmt.Printf("%4s %22s %22s\n", "K", "visibility median(ms)", "visibility p95(ms)")
	ks, err := bench.AblationKStability(nil, 20, scale, seed)
	if err != nil {
		return err
	}
	for _, r := range ks {
		fmt.Printf("%4d %22.1f %22.1f\n", r.K, r.VisibilityLag.MedianMs, r.VisibilityLag.P95Ms)
	}

	fmt.Println("\n== Ablation: peer-group commit variant (§5.1.4) ==")
	fmt.Printf("%8s %18s %18s\n", "variant", "commit median(ms)", "commit p95(ms)")
	cv, err := bench.AblationCommitVariant(4, 30, scale, seed)
	if err != nil {
		return err
	}
	for _, r := range cv {
		fmt.Printf("%8s %18.2f %18.2f\n", r.Variant, r.Commit.MedianMs, r.Commit.P95Ms)
	}

	fmt.Println("\n== Ablation: peer-group size ==")
	fmt.Printf("%6s %20s %22s\n", "size", "group fetch med(ms)", "propagation med(ms)")
	gs, err := bench.AblationGroupSize(nil, 12, scale, seed)
	if err != nil {
		return err
	}
	for _, r := range gs {
		fmt.Printf("%6d %20.2f %22.2f\n", r.Size, r.GroupFetch.MedianMs, r.Propagation.MedianMs)
	}

	fmt.Println("\n== Ablation: cache capacity (LRU, §6.1) ==")
	fmt.Printf("%8s %10s\n", "limit", "hit rate")
	cs, err := bench.AblationCacheSize(nil, 150, scale, seed)
	if err != nil {
		return err
	}
	for _, r := range cs {
		fmt.Printf("%8d %9.1f%%\n", r.Limit, 100*r.HitRate)
	}
	return nil
}

// clientSweep builds the exponential load axis 4, 8, …, max.
func clientSweep(max int) []int {
	var out []int
	for c := 4; c <= max; c *= 2 {
		out = append(out, c)
	}
	return out
}

func printFig4(pts []bench.Fig4Point, obsDump bool) {
	fmt.Println("\n== Figure 4 — performance of Colony (throughput vs response time, log-log in the paper) ==")
	fmt.Printf("%-18s %8s %14s %10s %10s %10s %7s %7s %7s\n",
		"config", "clients", "tput(txn/s)", "mean(ms)", "p95(ms)", "p99(ms)", "hit%", "grp%", "dc%")
	for _, p := range pts {
		fmt.Printf("%-18s %8d %14.1f %10.2f %10.2f %10.2f %6.1f%% %6.1f%% %6.1f%%\n",
			p.Label(), p.Clients, p.ThroughputTx,
			p.Latency.MeanMs, p.Latency.P95Ms, p.Latency.P99Ms,
			100*p.Hits.Cache, 100*p.Hits.Group, 100*p.Hits.DC)
	}
	fmt.Println("\ncsv: config,clients,throughput_txs,mean_ms,p95_ms,p99_ms,cache,group,dc")
	for _, p := range pts {
		fmt.Printf("csv: %s,%d,%.1f,%.3f,%.3f,%.3f,%.3f,%.3f,%.3f\n",
			p.Label(), p.Clients, p.ThroughputTx,
			p.Latency.MeanMs, p.Latency.P95Ms, p.Latency.P99Ms,
			p.Hits.Cache, p.Hits.Group, p.Hits.DC)
	}
	if !obsDump {
		return
	}
	// Per-run instrumentation snapshots — the same figures colony-server
	// serves at /metrics, captured once per deployment after the run.
	fmt.Println("\n== Figure 4 — per-run instrumentation snapshots ==")
	for _, p := range pts {
		fmt.Printf("\nobs[%s, %d clients]:\n", p.Label(), p.Clients)
		printIndented(p.Obs.String())
	}
}

// printIndented writes a multi-line dump with a two-space indent.
func printIndented(s string) {
	for _, line := range strings.Split(strings.TrimRight(s, "\n"), "\n") {
		fmt.Printf("  %s\n", line)
	}
}

func printTimeline(title string, res *bench.TimelineResult) {
	fmt.Printf("\n== %s ==\n", title)
	fmt.Printf("events: first at %v, second at %v (model time)\n", res.Disconnect, res.Reconnect)
	buckets := bench.Bucketize(res.Samples)
	srcs := []string{edge.SourceCache.String(), edge.SourceGroup.String(), edge.SourceDC.String()}
	fmt.Printf("%6s", "t(s)")
	for _, s := range srcs {
		fmt.Printf(" %12s", s+"(ms)")
	}
	fmt.Printf(" %8s\n", "samples")
	for _, b := range buckets {
		fmt.Printf("%6d", b.Second)
		for _, s := range srcs {
			if st, ok := b.BySrc[s]; ok && st.Count > 0 {
				fmt.Printf(" %12.2f", st.MeanMs)
			} else {
				fmt.Printf(" %12s", "-")
			}
		}
		fmt.Printf(" %8d\n", b.Samples)
	}
	if len(res.FocusUsers) > 0 {
		fmt.Printf("focus user(s): %v\n", res.FocusUsers)
		var focus []bench.Sample
		for _, s := range res.Samples {
			for _, u := range res.FocusUsers {
				if s.User == u {
					focus = append(focus, s)
				}
			}
		}
		sort.Slice(focus, func(i, j int) bool { return focus[i].At < focus[j].At })
		fmt.Println("csv: t_s,latency_ms,source (focus user)")
		for _, s := range focus {
			fmt.Printf("csv: %.2f,%.3f,%s\n",
				s.At.Seconds(), float64(s.Latency)/float64(time.Millisecond), s.Source)
		}
	}
}

func printClaims(c bench.Claims) {
	fmt.Println("\n== Headline claims (§1, §7.3) — paper vs measured ==")
	row := func(name, paper string, measured float64, unit string) {
		fmt.Printf("%-46s %10s %12.2f%s\n", name, paper, measured, unit)
	}
	row("local caching: throughput gain vs cloud", "1.4x", c.ThroughputGainSwiftCloud, "x")
	row("group caching: throughput gain vs cloud", "1.6x", c.ThroughputGainColony, "x")
	row("local caching: response-time gain vs cloud", "8x", c.LatencyGainSwiftCloud, "x")
	row("group caching: response-time gain vs cloud", "20x", c.LatencyGainColony, "x")
	row("1->3 DCs: max throughput gain (no cache)", "+40%", (c.AntidoteDC3Gain-1)*100, "%")
	row("SwiftCloud local-cache hit rate", "90%", c.SwiftCloudHitRate*100, "%")
	row("Colony combined cache hit rate", "95%", c.ColonyCombinedHitRate*100, "%")
	row("offline/online latency ratio (hits)", "1.0", c.OfflineLatencyRatio, "")
}
