// Command benchmark is Colony's end-to-end performance ledger: four workloads
// driven from one process against the deployed shape of the system (3 DCs,
// each on its own TCP mesh, edges on dial-only meshes, WAL with SyncWrites),
// reporting what a user would see with tracing off and, in a second traced
// pass, a per-layer budget measured from outside. See README.md.
//
//	go run ./benchmark                          # whole suite, untraced + traced
//	go run ./benchmark --workload chat_paced --seed 1 --seconds 16 --trace 0
//	go run ./benchmark -aa                      # same build twice, against the bounds
//	go run ./benchmark -compare old.json new.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime/pprof"
	"sort"
)

const defaultSeconds = 16

func workloads(scale float64) []workload {
	return []workload{newChatPaced(scale), newWriteSaturate(scale), newFanoutBroadcast(scale), newGroupEdit(scale)}
}

func workloadByName(name string) workload {
	for _, w := range workloads(1) {
		if w.name() == name {
			return w
		}
	}
	return nil
}

// metricValue is one entry of the result line.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the last line of standard output in single-workload mode.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	var (
		name    = flag.String("workload", "", "run one workload and print its result line (empty: whole suite)")
		seed    = flag.Int64("seed", 1, "generator seed")
		seconds = flag.Float64("seconds", defaultSeconds, "measured seconds per run")
		trace   = flag.Int("trace", 0, "1: traced pass, print the per-layer metrics; 0: end-to-end metrics")
		aa      = flag.Bool("aa", false, "run the untraced suite twice on this build and compare against the bounds")
		compare = flag.Bool("compare", false, "compare two suite files: -compare old.json new.json")
		runs    = flag.Int("runs", 1, "suite and -aa: runs per workload (seeds seed, seed+1, ...), reported as medians")
		profile = flag.String("cpuprofile", "", "write a CPU profile of the whole invocation to this file")
	)
	flag.Parse()
	if *profile != "" {
		f, err := os.Create(*profile)
		if err == nil {
			err = pprof.StartCPUProfile(f)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			os.Exit(1)
		}
		defer f.Close()
		defer pprof.StopCPUProfile()
	}
	var err error
	switch {
	case *compare:
		err = runCompare(flag.Args())
	case *aa:
		err = runAA(*seed, *seconds, *runs)
	case *name != "":
		err = runOne(*name, *seed, *seconds, *trace == 1)
	default:
		err = runSuite(*seed, *seconds, *runs)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		pprof.StopCPUProfile()
		os.Exit(1)
	}
}

// measure runs one workload once and returns its metrics, by name.
func measure(w workload, seed int64, seconds float64, traced bool) (*resultLine, error) {
	res, err := runWorkload(w, runOpts{seed: seed, seconds: seconds, traced: traced, warmup: defaultWarmup})
	if err != nil {
		return nil, err
	}
	sum := summarize(res)
	line := &resultLine{
		Correct:   res.e.trk.nviol == 0,
		Attempted: sum.attempted,
		Failed:    sum.failed,
		Metrics:   make(map[string]metricValue),
	}
	for _, v := range res.e.trk.violations {
		fmt.Fprintln(os.Stderr, "oracle:", v)
	}
	for _, v := range res.e.trk.anomalies {
		fmt.Fprintln(os.Stderr, "oracle (counted as failed):", v)
	}
	for _, g := range res.gens {
		for _, e := range g.errs {
			fmt.Fprintln(os.Stderr, "generator:", e)
		}
	}
	fmt.Fprintf(os.Stderr, "%s samples: commit_ack %d, commit_kstable %d, commit_visible %d, read_hit %d, commit_tput %d\n", w.name(),
		sum.n["commit_ack"], sum.n["commit_kstable"], sum.n["commit_visible"], sum.n["read_hit"], sum.n["commit_tput"])
	if sum.lateP99us > 1000 {
		fmt.Fprintf(os.Stderr, "generator-bound: %s ran %.0f us late at p99; its latencies include generator delay\n", w.name(), sum.lateP99us)
	}
	if traced {
		layers, err := layerMetrics(res, sum)
		if err != nil {
			return nil, err
		}
		for _, m := range perLayer {
			line.Metrics[m.Name] = metricValue{Value: layers[m.Name], Unit: m.Unit}
		}
	} else {
		for _, m := range endToEnd {
			line.Metrics[m.Name] = metricValue{Value: sum.values[m.Name], Unit: m.Unit}
		}
	}
	return line, nil
}

func printMetrics(w string, line *resultLine) {
	names := make([]string, 0, len(line.Metrics))
	for n := range line.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(os.Stderr, "%-16s %-36s %14.4f %s\n", w, n, line.Metrics[n].Value, line.Metrics[n].Unit)
	}
}

func runOne(name string, seed int64, seconds float64, traced bool) error {
	w := workloadByName(name)
	if w == nil {
		return fmt.Errorf("unknown workload %q", name)
	}
	line, err := measure(w, seed, seconds, traced)
	if err != nil {
		return err
	}
	printMetrics(name, line)
	out, err := json.Marshal(line)
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	if !line.Correct {
		return fmt.Errorf("%s: the oracle found violations", name)
	}
	return nil
}
