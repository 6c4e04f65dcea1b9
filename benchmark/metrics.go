package main

import (
	"sort"
)

// metricDef names one metric of the ledger. BENCHMARK.json lists the same
// names (TestBenchmarkJSONMatches keeps the two in step).
type metricDef struct {
	Name   string
	Unit   string
	Better string  // "lower" or "higher"
	Bound  float64 // end-to-end only: share of the parent's median it may worsen by
}

// endToEnd are the metrics a user of the system would see, measured with
// tracing off. Every workload reports every one of them; where a workload
// has only one kind of phase the metric is taken there (see README).
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"commit_ack_p50_ms", "ms", "lower", 0.25},
	{"commit_kstable_p50_ms", "ms", "lower", 0.25},
	{"commit_visible_p50_ms", "ms", "lower", 0.25},
	{"commit_tput_tps", "1/s", "higher", 0.25},
	{"cpu_s_per_ktx", "s", "lower", 0.25},
	{"setup_heap_mb", "MB", "lower", 0.25},
}

// sample is a latency population.
type sample []float64

func (s sample) p(q float64) float64 { return quantile(sortedCopy(s), q) }

// e2e boils a run down to the end-to-end metrics.
type e2e struct {
	values map[string]float64
	// n is the sample count behind each latency metric family.
	n map[string]int
	// attempted and failed feed the result line.
	attempted, failed int
	lateP99us         float64
	// visible is kept for trace.overhead_ratio: visible latencies (ms) with
	// the due time of each.
	visibleAt []int64
	visibleMs []float64
}

func ms(ns int64) float64 { return float64(ns) / 1e6 }

func inWin(t int64, w window) bool { return t >= w.from && t < w.to }

func summarize(res *runResult) *e2e {
	out := &e2e{values: make(map[string]float64), n: make(map[string]int)}
	latPhase := phSat
	if res.e.w.pacedRate() > 0 {
		latPhase = phPaced
	}
	var ack, kst, vis, hit sample
	var doneTimes, late []int64
	for _, g := range res.gens {
		out.attempted += g.attempted
		out.failed += g.failed
		late = append(late, g.late...)
		doneTimes = append(doneTimes, g.doneAt...)
		for _, o := range g.ops {
			if d := o.done.Load(); d != 0 {
				doneTimes = append(doneTimes, d)
			}
			if o.phase != latPhase || !inWin(o.due, res.latWin) {
				continue
			}
			if t := o.ack.Load(); t != 0 {
				ack = append(ack, ms(t-o.due))
			}
			if t := o.kstable.Load(); t != 0 {
				kst = append(kst, ms(t-o.due))
			}
			if t := o.visible.Load(); t != 0 {
				vis = append(vis, ms(t-o.due))
				out.visibleAt = append(out.visibleAt, o.due)
				out.visibleMs = append(out.visibleMs, ms(t-o.due))
			}
		}
		for _, r := range g.reads {
			if r.ph == latPhase && !r.miss {
				hit = append(hit, float64(r.dur)/1e3)
			}
		}
	}
	out.failed += res.undelivered
	out.failed += res.e.trk.nanom

	out.values["setup_s"] = median(res.setups)
	out.values["commit_ack_p50_ms"] = ack.p(0.50)
	out.values["commit_ack_p95_ms"] = ack.p(0.95)
	out.values["commit_kstable_p50_ms"] = kst.p(0.50)
	out.values["commit_visible_p50_ms"] = vis.p(0.50)
	out.values["commit_visible_p95_ms"] = vis.p(0.95)
	out.values["read_hit_p50_us"] = hit.p(0.50)
	out.n["commit_ack"], out.n["commit_kstable"], out.n["commit_visible"], out.n["read_hit"] = len(ack), len(kst), len(vis), len(hit)

	// Throughput: completions inside the window, whenever they were issued.
	w := res.tputWin
	third := (w.to - w.from) / 3
	var n, first, last int
	for _, t := range doneTimes {
		if !inWin(t, w) {
			continue
		}
		n++
		switch {
		case t < w.from+third:
			first++
		case t >= w.to-third:
			last++
		}
	}
	secs := float64(w.to-w.from) / 1e9
	out.n["commit_tput"] = n
	if n > 0 && secs > 0 {
		out.values["commit_tput_tps"] = float64(n) / secs
		out.values["cpu_s_per_ktx"] = (w.cpu[1] - w.cpu[0]) / float64(n) * 1000
	}
	if first > 0 {
		out.values["tput_hold_ratio"] = float64(last) / float64(first)
	}
	out.values["peak_rss_mb"] = peakRSSMB()
	out.values["live_heap_mb"] = res.liveHeapMB
	out.values["setup_heap_mb"] = res.setupHeapMB

	if len(late) > 0 {
		sort.Slice(late, func(i, j int) bool { return late[i] < late[j] })
		out.lateP99us = float64(late[len(late)*99/100]) / 1e3
	}
	return out
}
