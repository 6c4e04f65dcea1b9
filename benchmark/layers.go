package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime/metrics"

	"colony/internal/obs"
	"colony/internal/wire"
)

// Stage spans of the traced pass, in path order. The chain from
// gen.due_to_commit (how late the generator ran, plus the reads a post makes
// before it commits) to edge.apply partitions commit_visible along the path
// to the last interested edge (consecutive timestamps, so the durations sum
// to the whole); tcp.ack_return is the side branch that closes commit_ack,
// and the last three exist only where a peer group runs.
var stageNames = []string{
	"gen.due_to_commit", "edge.commit_local", "edge.sender_wait", "tcp.edge_to_dc", "tcp.ack_return", "dc.accept",
	"dc.repl_outbox_wait", "tcp.dc_to_dc", "dc.admit", "dc.stabilise_push_wait",
	"edge.relay", "tcp.dc_to_edge", "edge.apply",
	"epaxos.propose_to_commit", "group.execute_apply", "group.syncpoint_uplink_wait",
}

var kernelNames = []metricDef{
	{Name: "wire.encode_ns_per_tx", Unit: "ns"}, {Name: "wire.decode_ns_per_tx", Unit: "ns"},
	{Name: "wire.bytes_per_tx", Unit: "B"}, {Name: "wire.decode_allocs_per_tx", Unit: "count"},
	{Name: "wal.append_ns_per_tx", Unit: "ns"}, {Name: "wal.appendwait_us", Unit: "us"},
	{Name: "clocksi.commit_ns_per_tx", Unit: "ns"}, {Name: "store.apply_ns_per_tx", Unit: "ns"},
	{Name: "store.read_cached_ns", Unit: "ns"}, {Name: "store.read_replay_ns_per_entry", Unit: "ns"},
	{Name: "crdt.rga_insert_ns", Unit: "ns"}, {Name: "crdt.ormap_apply_ns", Unit: "ns"},
	{Name: "replication.admit_ns_per_tx", Unit: "ns"}, {Name: "replication.kstable_ns", Unit: "ns"},
	{Name: "vclock.join_ns", Unit: "ns"}, {Name: "txn.clone_ns", Unit: "ns"},
	{Name: "epaxos.commit_noconflict_us", Unit: "us"}, {Name: "epaxos.commit_conflict_us", Unit: "us"},
}

// perLayer are the metrics of single layers, printed by a traced run. A
// metric that does not apply to a workload reads 0 there.
var perLayer = buildPerLayer()

func buildPerLayer() []metricDef {
	var out []metricDef
	for _, s := range stageNames {
		out = append(out, metricDef{Name: s + "_p50_us", Unit: "us"}, metricDef{Name: s + "_p95_us", Unit: "us"})
	}
	add := func(unit string, names ...string) {
		for _, n := range names {
			out = append(out, metricDef{Name: n, Unit: unit})
		}
	}
	add("ratio", "dc.busy_share", "edge.busy_share")
	add("us", "dc.handle.EdgeCommit_us", "dc.handle.ReplBatch_us_per_tx", "dc.handle.ReplHeartbeat_us",
		"dc.handle.Subscribe_us", "dc.handle.FetchObject_us", "dc.handle.TreeAck_us",
		"edge.handle.Push_us_per_tx", "group.handle.EPaxos_us_per_msg")
	add("count", "tcp.wan_frames_per_tx", "tcp.wan_units_per_tx")
	add("B", "tcp.wan_bytes_per_tx")
	add("count", "tcp.dc_egress_frames_per_tx")
	add("B", "tcp.dc_egress_bytes_per_tx")
	add("ratio", "dc.tree_push_share")
	add("count", "edge.relay_forwards_per_tx", "dc.push_frame_txs_mean", "tcp.edge_uplink_frames_per_tx",
		"dc.repl_batch_txs_mean", "tcp.send_refused", "tcp.call_timeouts", "epaxos.msgs_per_tx",
		"wal.fsyncs_per_tx", "wal.batch_txs_p50")
	add("us", "wal.flush_p50_us")
	add("ratio", "store.cache_hit_ratio", "edge.cache_hit_ratio")
	add("count", "edge.dc_fetches_per_read", "store.max_journal_len", "store.base_advances")
	add("ratio", "dc.push_frames_shared_ratio")
	add("count", "dc.tree_repairs")
	add("ratio", "dc.repl_stub_share")
	add("count", "dc.edge_nacks")
	add("us", "dc.repl_propagation_p50_us")
	out = append(out, kernelNames...)
	add("count", "proc.allocs_per_tx")
	add("B", "proc.alloc_bytes_per_tx")
	add("ratio", "proc.gc_cpu_share")
	add("count", "proc.goroutines_peak")
	add("us", "gen.late_p99_us")
	add("ratio", "trace.overhead_ratio", "trace.stage_sum_ratio")
	add("count", "trace.unpaired")
	add("us", "group.visible_p50_us", "group.visible_p95_us")
	add("us", "read_hit_p50_us")
	add("ms", "edge.read_miss_p50_ms", "commit_ack_p95_ms", "commit_visible_p95_ms")
	add("ratio", "tput_hold_ratio")
	add("MB", "peak_rss_mb", "live_heap_mb")
	for i := range out {
		out[i].Better = "lower"
		if higherIsBetter[out[i].Name] {
			out[i].Better = "higher"
		}
	}
	return out
}

// higherIsBetter names the per-layer metrics that improve upwards: sharing,
// batching and hit ratios. Everything else is a time, a cost or a count of
// work per transaction.
var higherIsBetter = map[string]bool{
	"dc.tree_push_share": true, "dc.push_frame_txs_mean": true, "dc.repl_batch_txs_mean": true,
	"wal.batch_txs_p50": true, "store.cache_hit_ratio": true, "edge.cache_hit_ratio": true,
	"dc.push_frames_shared_ratio": true, "dc.repl_stub_share": true, "tput_hold_ratio": true,
}

// span is one entry of the trace file.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent string `json:"parent,omitempty"`
	Dot    string `json:"dot"`
}

// chain cuts one op's path to its last interested edge into stage spans.
// Boundaries are made monotone first (a sender goroutine may hand the commit
// to the transport before Commit has returned to the generator, and a shard
// worker may push before the admitting handler has returned), so stages are
// never negative and always sum to the last boundary minus the first.
func chain(o *op, ct *commitTrace) []span {
	last := o.last
	if last == nil || ct == nil || ct.rec == nil || ct.dc < 0 {
		return nil
	}
	relay := last.parent
	fromDC := last
	if relay != nil {
		fromDC = relay
	}
	x := dcIndexOf(fromDC.from)
	if x < 0 {
		return nil
	}
	names := []string{"gen.due_to_commit", "edge.commit_local", "edge.sender_wait", "tcp.edge_to_dc", "dc.accept"}
	bounds := []int64{o.due, o.commitStart, o.commitEnd, ct.callEnter, ct.rec.entry.Load(), ct.rec.exit.Load()}
	if x != ct.dc {
		r := &ct.repl[x]
		names = append(names, "dc.repl_outbox_wait", "tcp.dc_to_dc", "dc.admit")
		bounds = append(bounds, r.send.Load(), r.entry.Load(), r.exit.Load())
	}
	names = append(names, "dc.stabilise_push_wait", "tcp.dc_to_edge")
	bounds = append(bounds, fromDC.sendT, fromDC.entry)
	if relay != nil {
		names = append(names, "edge.relay", "tcp.dc_to_edge")
		bounds = append(bounds, last.sendT, last.entry)
	}
	names = append(names, "edge.apply")
	bounds = append(bounds, last.exit.Load())
	for _, b := range bounds {
		if b == 0 {
			return nil // a hop happened while recording was off
		}
	}
	dot := fmt.Sprintf("%s:%d", o.w.name, o.seq)
	spans := make([]span, len(names))
	for i, n := range names {
		if bounds[i+1] < bounds[i] {
			bounds[i+1] = bounds[i]
		}
		spans[i] = span{Name: n, Start: bounds[i], End: bounds[i+1], Dot: dot}
		if i > 0 {
			spans[i].Parent = names[i-1]
		}
	}
	return spans
}

func counterDelta(after, before obs.Snapshot, name string) float64 {
	return float64(after.Counters[name] - before.Counters[name])
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func histMean(s obs.Summary) float64 { return ratio(float64(s.Sum), float64(s.Count)) }

// gcCPU reads the runtime's cumulative GC and total CPU seconds.
func gcCPU() (gc, total float64) {
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/total:cpu-seconds"}}
	metrics.Read(s)
	if s[0].Value.Kind() == metrics.KindFloat64 && s[1].Value.Kind() == metrics.KindFloat64 {
		return s[0].Value.Float64(), s[1].Value.Float64()
	}
	return 0, 0
}

// layerMetrics turns a traced run into the per-layer metrics and writes the
// trace file.
func layerMetrics(res *runResult, sum *e2e) (map[string]float64, error) {
	out := make(map[string]float64, len(perLayer))
	tr, trk := res.e.tr, res.e.trk
	latPhase := phSat
	if res.e.w.pacedRate() > 0 {
		latPhase = phPaced
	}

	// Stage spans, per transaction of the recorded slices of the latency window.
	stages := make(map[string]sample)
	var sums sample
	var spans []span
	var gvis sample
	for _, g := range res.gens {
		for _, o := range g.ops {
			if o.phase != latPhase || !res.rec.on(o.due) {
				continue
			}
			if t := o.gvisible.Load(); t != 0 {
				gvis = append(gvis, float64(t-o.due)/1e3)
			}
			ct := tr.commitOf(dotOf(o))
			if ct != nil && ct.rec != nil {
				if exit, ret := ct.rec.exit.Load(), ct.callReturn.Load(); exit != 0 && ret >= exit {
					stages["tcp.ack_return"] = append(stages["tcp.ack_return"], float64(ret-exit)/1e3)
				}
				if pv := o.pvisible.Load(); pv != 0 && ct.callEnter >= pv {
					stages["group.syncpoint_uplink_wait"] = append(stages["group.syncpoint_uplink_wait"], float64(ct.callEnter-pv)/1e3)
				}
			}
			id := dotOf(o).String()
			if v, ok := tr.epaxos.Load(id); ok {
				ep := v.(*epaxosTrace)
				if pa, cm := ep.preAccept.Load(), ep.commit.Load(); pa != 0 && cm >= pa {
					stages["epaxos.propose_to_commit"] = append(stages["epaxos.propose_to_commit"], float64(cm-pa)/1e3)
				}
				// The slowest member: Commit received last, document seen last.
				var lastRcv int64
				for _, w := range trk.wlist {
					if rcv, ok := tr.commitRcv.Load(w.name + "|" + id); ok && rcv.(int64) > lastRcv {
						lastRcv = rcv.(int64)
					}
				}
				if gv := o.gvisible.Load(); lastRcv != 0 && gv >= lastRcv {
					stages["group.execute_apply"] = append(stages["group.execute_apply"], float64(gv-lastRcv)/1e3)
				}
			}
			c := chain(o, ct)
			if c == nil {
				continue
			}
			perStage := make(map[string]float64, len(c))
			for _, s := range c {
				perStage[s.Name] += float64(s.End-s.Start) / 1e3 // two tcp.dc_to_edge hops add up
			}
			for n, v := range perStage {
				stages[n] = append(stages[n], v)
			}
			if vis := o.visible.Load(); vis > o.due {
				sums = append(sums, float64(c[len(c)-1].End-c[0].Start)/float64(vis-o.due))
			}
			if len(spans) < 20000 {
				spans = append(spans, c...)
			}
		}
	}
	for _, n := range stageNames {
		out[n+"_p50_us"] = stages[n].p(0.50)
		out[n+"_p95_us"] = stages[n].p(0.95)
	}
	out["trace.stage_sum_ratio"] = sums.p(0.50)
	out["group.visible_p50_us"], out["group.visible_p95_us"] = gvis.p(0.50), gvis.p(0.95)

	// Handler time and traffic, over the time recording was on.
	wall := float64(res.recordedNs)
	h := func(c nodeClass, tags ...wire.Tag) (ns, count, units float64) {
		for _, t := range tags {
			st := &tr.handlers[c][t]
			ns += float64(st.ns.Load())
			count += float64(st.count.Load())
			units += float64(st.units.Load())
		}
		return
	}
	var allTags []wire.Tag
	for t := wire.Tag(0); t < maxTag; t++ {
		allTags = append(allTags, t)
	}
	dcNs, _, _ := h(classDC, allTags...)
	edgeNs, _, _ := h(classEdge, allTags...)
	out["dc.busy_share"], out["edge.busy_share"] = ratio(dcNs, wall), ratio(edgeNs, wall)
	perCall := func(name string, tag wire.Tag) {
		ns, count, _ := h(classDC, tag)
		out[name] = ratio(ns, count) / 1e3
	}
	perCall("dc.handle.EdgeCommit_us", wire.TagEdgeCommit)
	perCall("dc.handle.ReplHeartbeat_us", wire.TagReplHeartbeat)
	perCall("dc.handle.Subscribe_us", wire.TagSubscribe)
	perCall("dc.handle.FetchObject_us", wire.TagFetchObject)
	perCall("dc.handle.TreeAck_us", wire.TagTreeAck)
	ns, _, units := h(classDC, wire.TagReplBatch)
	out["dc.handle.ReplBatch_us_per_tx"] = ratio(ns, units) / 1e3
	ns, _, units = h(classEdge, wire.TagPushTxs, wire.TagTreePush)
	out["edge.handle.Push_us_per_tx"] = ratio(ns, units) / 1e3
	ns, count, _ := h(classGroup, wire.TagEPaxosPreAccept, wire.TagEPaxosPreAcceptOK, wire.TagEPaxosAccept,
		wire.TagEPaxosAcceptOK, wire.TagEPaxosCommit, wire.TagEPaxosCommitAck)
	out["group.handle.EPaxos_us_per_msg"] = ratio(ns, count) / 1e3

	_, txs, _ := h(classDC, wire.TagEdgeCommit) // transactions accepted while recording
	traffic := func(src, dst []nodeClass, tags ...wire.Tag) (frames, units, bytes float64) {
		if len(tags) == 0 {
			tags = allTags
		}
		for _, s := range src {
			for _, d := range dst {
				for _, t := range tags {
					st := &tr.traffic[s][d][t]
					frames += float64(st.frames.Load())
					units += float64(st.units.Load())
					bytes += float64(st.bytes.Load())
				}
			}
		}
		return
	}
	dcs, edges := []nodeClass{classDC}, []nodeClass{classEdge, classGroup}
	f, u, b := traffic(dcs, dcs)
	out["tcp.wan_frames_per_tx"], out["tcp.wan_units_per_tx"], out["tcp.wan_bytes_per_tx"] = ratio(f, txs), ratio(u, txs), ratio(b, txs)
	f, _, b = traffic(dcs, edges)
	out["tcp.dc_egress_frames_per_tx"], out["tcp.dc_egress_bytes_per_tx"] = ratio(f, txs), ratio(b, txs)
	tree, _, _ := traffic(dcs, edges, wire.TagTreePush)
	direct, _, _ := traffic(dcs, edges, wire.TagPushTxs)
	out["dc.tree_push_share"] = ratio(tree, tree+direct)
	f, _, _ = traffic([]nodeClass{classEdge}, []nodeClass{classEdge}, wire.TagPushTxs)
	out["edge.relay_forwards_per_tx"] = ratio(f, txs)
	f, _, _ = traffic(edges, dcs)
	out["tcp.edge_uplink_frames_per_tx"] = ratio(f, txs)
	out["tcp.send_refused"] = float64(tr.refused.Load())
	out["tcp.call_timeouts"] = float64(tr.timeouts.Load())
	out["trace.unpaired"] = float64(tr.unpaired.Load())

	// The program's own counters, as deltas over the measured time.
	dcA, dcB := res.obsDC[1], res.obsDC[0]
	edA, edB := res.obsEdge[1], res.obsEdge[0]
	commits := counterDelta(dcA, dcB, "dc.edge_commits")
	out["dc.push_frame_txs_mean"] = histMean(dcA.Histograms["dc.push_batch_txs"])
	out["dc.repl_batch_txs_mean"] = histMean(dcA.Histograms["dc.repl_batch_txs"])
	out["epaxos.msgs_per_tx"] = ratio(counterDelta(edA, edB, "group.epaxos_msgs"), counterDelta(edA, edB, "group.epaxos_proposed"))
	out["wal.fsyncs_per_tx"] = ratio(counterDelta(dcA, dcB, "wal.fsyncs"), commits)
	out["wal.batch_txs_p50"] = float64(dcA.Histograms["wal.batch_txs"].P50)
	out["wal.flush_p50_us"] = float64(dcA.Histograms["wal.flush_ns"].P50) / 1e3
	hit, miss := counterDelta(dcA, dcB, "store.cache_hit"), counterDelta(dcA, dcB, "store.cache_miss")
	out["store.cache_hit_ratio"] = ratio(hit, hit+miss)
	reads := counterDelta(edA, edB, "edge.reads")
	out["edge.cache_hit_ratio"] = ratio(counterDelta(edA, edB, "edge.cache_hits"), reads)
	out["edge.dc_fetches_per_read"] = ratio(counterDelta(edA, edB, "edge.dc_fetches"), reads)
	out["store.max_journal_len"] = float64(max(dcA.Gauges["store.max_journal_len"], edA.Gauges["store.max_journal_len"]))
	out["store.base_advances"] = counterDelta(dcA, dcB, "store.base_advance") + counterDelta(edA, edB, "store.base_advance")
	built, shared := counterDelta(dcA, dcB, "dc.push_frames_built"), counterDelta(dcA, dcB, "dc.push_frames_shared")
	out["dc.push_frames_shared_ratio"] = ratio(shared, built+shared)
	out["dc.tree_repairs"] = counterDelta(dcA, dcB, "dc.tree_repairs")
	stub, full := counterDelta(dcA, dcB, "dc.repl_stub_txs"), counterDelta(dcA, dcB, "dc.repl_full_txs")
	out["dc.repl_stub_share"] = ratio(stub, stub+full)
	out["dc.edge_nacks"] = counterDelta(dcA, dcB, "dc.edge_nacks")
	out["dc.repl_propagation_p50_us"] = float64(dcA.Histograms["dc.repl_propagation_ns"].P50) / 1e3

	// Process counters over the throughput window.
	w := res.tputWin
	n := float64(sum.n["commit_tput"])
	out["proc.allocs_per_tx"] = ratio(float64(w.mem[1].Mallocs-w.mem[0].Mallocs), n)
	out["proc.alloc_bytes_per_tx"] = ratio(float64(w.mem[1].TotalAlloc-w.mem[0].TotalAlloc), n)
	out["proc.gc_cpu_share"] = ratio(w.gc[1]-w.gc[0], w.total[1]-w.total[0])
	out["proc.goroutines_peak"] = float64(res.goroutines)
	out["gen.late_p99_us"] = sum.lateP99us

	// Tracing overhead: recorded against unrecorded slices of the same window.
	var on, off, miss2 sample
	for i, due := range sum.visibleAt {
		if res.rec.on(due) {
			on = append(on, sum.visibleMs[i])
		} else {
			off = append(off, sum.visibleMs[i])
		}
	}
	out["trace.overhead_ratio"] = ratio(on.p(0.50), off.p(0.50))
	for _, g := range res.gens {
		for _, r := range g.reads {
			if r.ph != phWarm && r.miss {
				miss2 = append(miss2, float64(r.dur)/1e6)
			}
		}
	}
	out["edge.read_miss_p50_ms"] = miss2.p(0.50)
	// End-to-end measurements too unsteady to carry a bound live on this list
	// (see README).
	for _, n := range []string{"read_hit_p50_us", "commit_ack_p95_ms", "commit_visible_p95_ms", "tput_hold_ratio", "peak_rss_mb", "live_heap_mb"} {
		out[n] = sum.values[n]
	}

	kernels, err := runKernels(tr, res.e.seed)
	if err != nil {
		return nil, fmt.Errorf("kernels: %w", err)
	}
	for k, v := range kernels {
		out[k] = v
	}
	return out, writeTrace(res.e.w.name(), res.e.seed, spans, out)
}

// outDir is benchmark/out whether the process runs from the repository root
// (go run ./benchmark) or from the package directory (go test).
func outDir() string {
	if st, err := os.Stat("benchmark"); err == nil && st.IsDir() {
		return filepath.Join("benchmark", "out")
	}
	return "out"
}

// writeTrace writes the stage spans and the per-layer table of a traced run.
func writeTrace(workload string, seed int64, spans []span, layers map[string]float64) error {
	dir := outDir()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, "trace-"+workload+".json"))
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	err = enc.Encode(struct {
		Workload string             `json:"workload"`
		Seed     int64              `json:"seed"`
		Layers   map[string]float64 `json:"per_layer"`
		Spans    []span             `json:"spans"`
	}{workload, seed, layers, spans})
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
