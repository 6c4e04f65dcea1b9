package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
)

// suiteFile is what the suite writes to benchmark/out/suite.json and what
// -compare reads: every value of every metric, per workload and pass.
type suiteFile struct {
	Seed    int64       `json:"seed"`
	Seconds float64     `json:"seconds"`
	Runs    int         `json:"runs"`
	Passes  []suitePass `json:"passes"`
}

type suitePass struct {
	Workload string `json:"workload"`
	Traced   bool   `json:"traced"`
	Correct  bool   `json:"correct"`
	// Attempted and Failed are summed over the runs.
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]suiteMetric `json:"metrics"`
}

type suiteMetric struct {
	Unit   string    `json:"unit"`
	Values []float64 `json:"values"`
}

// spread is the distance between the first and third quartile as a share of
// the median (0 with fewer than two values), the same rule the bounds are
// judged by.
func spread(v []float64) float64 {
	if len(v) < 2 {
		return 0
	}
	s := sortedCopy(v)
	med := quantile(s, 0.5)
	if med == 0 {
		return 0
	}
	return (quantile(s, 0.75) - quantile(s, 0.25)) / med
}

// runChild runs one workload once in a process of its own, the way the
// driver does: peak memory, heap size and collector state do not carry over
// from one run to the next. The child's metric table is dropped (the caller
// prints its own); its oracle, generator and sample-count lines pass through.
func runChild(name string, seed int64, seconds float64, traced bool) (*resultLine, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	trace := "0"
	if traced {
		trace = "1"
	}
	cmd := exec.Command(exe, "--workload", name, "--seed", fmt.Sprint(seed), "--seconds", fmt.Sprint(seconds), "--trace", trace)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, runErr := cmd.Output()
	for _, l := range strings.Split(stderr.String(), "\n") {
		if l != "" && !strings.HasPrefix(l, name+" ") || strings.Contains(l, " samples: ") {
			fmt.Fprintln(os.Stderr, l)
		}
	}
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	var line resultLine
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil {
		if runErr != nil {
			return nil, runErr
		}
		return nil, fmt.Errorf("no result line: %w", err)
	}
	return &line, nil // a run the oracle failed still has a result line, with correct=false
}

// runPass runs one workload `runs` times (seeds seed, seed+1, ...).
func runPass(name string, seed int64, seconds float64, traced bool, runs int) (suitePass, error) {
	pass := suitePass{Workload: name, Traced: traced, Correct: true, Metrics: make(map[string]suiteMetric)}
	for i := 0; i < runs; i++ {
		line, err := runChild(name, seed+int64(i), seconds, traced)
		if err != nil {
			return pass, fmt.Errorf("%s: %w", name, err)
		}
		pass.Correct = pass.Correct && line.Correct
		pass.Attempted += line.Attempted
		pass.Failed += line.Failed
		for n, m := range line.Metrics {
			sm := pass.Metrics[n]
			sm.Unit = m.Unit
			sm.Values = append(sm.Values, m.Value)
			pass.Metrics[n] = sm
		}
	}
	return pass, nil
}

func printPass(p suitePass, defs []metricDef) {
	kind := "end-to-end"
	if p.Traced {
		kind = "per-layer"
	}
	fmt.Printf("\n%s  %s  correct=%v attempted=%d failed=%d\n", p.Workload, kind, p.Correct, p.Attempted, p.Failed)
	for _, d := range defs {
		m := p.Metrics[d.Name]
		fmt.Printf("  %-40s %14.4f %-6s", d.Name, median(m.Values), m.Unit)
		if len(m.Values) > 1 {
			fmt.Printf("  spread %.3f over %d runs", spread(m.Values), len(m.Values))
		}
		fmt.Println()
	}
}

// runSuite prints every metric of every workload: the end-to-end pass with
// tracing off, then the traced pass at half length.
func runSuite(seed int64, seconds float64, runs int) error {
	out := suiteFile{Seed: seed, Seconds: seconds, Runs: runs}
	correct := true
	for _, w := range workloads(1) {
		for _, traced := range []bool{false, true} {
			secs, defs, n := seconds, endToEnd, runs
			if traced {
				secs, defs, n = seconds/2, perLayer, 1
			}
			pass, err := runPass(w.name(), seed, secs, traced, n)
			if err != nil {
				return err
			}
			printPass(pass, defs)
			out.Passes = append(out.Passes, pass)
			correct = correct && pass.Correct
		}
	}
	if err := os.MkdirAll(outDir(), 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(out, "", " ")
	if err != nil {
		return err
	}
	path := filepath.Join(outDir(), "suite.json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return err
	}
	fmt.Println("\nwrote", path)
	if !correct {
		return errors.New("the oracle found violations")
	}
	return nil
}

// worsening is how much b is worse than a, as a share of a (negative: better).
func worsening(d metricDef, a, b float64) float64 {
	if a == 0 {
		return 0
	}
	if d.Better == "higher" {
		return (a - b) / a
	}
	return (b - a) / a
}

// runAA runs the untraced suite twice on this build and holds every
// (metric, workload) pair against the metric's own bound. A pair that misses
// means the benchmark, not the program, needs work: lengthen the phase or
// move the metric to the per-layer list.
func runAA(seed int64, seconds float64, runs int) error {
	var sets [2][]suitePass
	for i := range sets {
		for _, w := range workloads(1) {
			pass, err := runPass(w.name(), seed+int64(i*runs), seconds, false, runs)
			if err != nil {
				return err
			}
			if !pass.Correct {
				return fmt.Errorf("%s: the oracle found violations", w.name())
			}
			sets[i] = append(sets[i], pass)
		}
	}
	fmt.Printf("%-18s %-26s %14s %14s %9s %7s\n", "workload", "metric", "first", "second", "worse by", "bound")
	missed := 0
	for i, first := range sets[0] {
		second := sets[1][i]
		for _, d := range endToEnd {
			a, b := median(first.Metrics[d.Name].Values), median(second.Metrics[d.Name].Values)
			w := worsening(d, a, b)
			if w < 0 {
				w = -w // either run may be the worse one
			}
			verdict := ""
			if w > d.Bound {
				verdict = "  MISSES ITS BOUND"
				missed++
			}
			fmt.Printf("%-18s %-26s %14.4f %14.4f %8.1f%% %6.0f%%%s\n", first.Workload, d.Name, a, b, 100*w, 100*d.Bound, verdict)
		}
	}
	if missed > 0 {
		return fmt.Errorf("%d (metric, workload) pairs differ by more than their bound between two runs of the same build", missed)
	}
	return nil
}

func readSuite(path string) (*suiteFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s suiteFile
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// runCompare prints, per (end-to-end metric, workload), whether new is
// improved, unchanged, regressed or unresolved against old.
func runCompare(args []string) error {
	if len(args) != 2 {
		return errors.New("usage: -compare old.json new.json")
	}
	old, err := readSuite(args[0])
	if err != nil {
		return err
	}
	cur, err := readSuite(args[1])
	if err != nil {
		return err
	}
	find := func(s *suiteFile, workload string) *suitePass {
		for i := range s.Passes {
			if s.Passes[i].Workload == workload && !s.Passes[i].Traced {
				return &s.Passes[i]
			}
		}
		return nil
	}
	fmt.Printf("%-18s %-26s %14s %14s %9s  %s\n", "workload", "metric", "old", "new", "worse by", "verdict")
	regressed := 0
	for _, w := range workloads(1) {
		a, b := find(old, w.name()), find(cur, w.name())
		if a == nil || b == nil {
			continue
		}
		for _, d := range endToEnd {
			va, vb := a.Metrics[d.Name].Values, b.Metrics[d.Name].Values
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			ma, mb := median(va), median(vb)
			worse := worsening(d, ma, mb)
			verdict := "unchanged"
			switch {
			case spread(va) > d.Bound || spread(vb) > d.Bound:
				verdict = "unresolved (spread wider than the bound)"
			case worse > d.Bound:
				verdict = "REGRESSED"
				regressed++
			case -worse > spread(va) && -worse > spread(vb) && worse < 0:
				verdict = "improved"
			}
			fmt.Printf("%-18s %-26s %14.4f %14.4f %8.1f%%  %s\n", w.name(), d.Name, ma, mb, 100*worse, verdict)
		}
	}
	if regressed > 0 {
		return fmt.Errorf("%d (metric, workload) pairs regressed past their bound", regressed)
	}
	return nil
}
