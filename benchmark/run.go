package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"syscall"
	"time"

	"colony/internal/edge"
	"colony/internal/obs"
	"colony/internal/txn"
)

// Run shape shared by every workload (see README "Load shape").
const (
	numGenerators = 2
	defaultWarmup = 2 * time.Second        // discarded start of every run
	satSettle     = 500 * time.Millisecond // start of a closed-loop phase left out of throughput
	// drainLimit bounds the wait for what is still in flight when the phases
	// end. On a quiet host the drain takes milliseconds; the limit only has to
	// outlast a stall of the shared host's disk, during which one durable
	// commit can take seconds and a queue of them that many times longer.
	drainLimit   = 30 * time.Second
	setupRepeats = 3 // set-ups per run; setup_s is their median
)

// action is one generator step. The workload that planned it interprets
// kind/a/b.
type action struct {
	actor      int
	kind, a, b int
}

// workload is one of the four traffic mixes.
type workload interface {
	name() string
	// deploy returns the DC-side configuration.
	deploy() deployConfig
	// setup connects and subscribes every edge and registers writers and
	// receivers with the tracker (ending with tracker.seal).
	setup(e *env) error
	// pacedRate is the open-loop rate in actions/s (0: no paced phase) and
	// pacedShare the share of the measured time it takes; the rest is the
	// closed-loop phase.
	pacedRate() float64
	pacedShare() float64
	// plan returns n open-loop actions, deterministic in e.seed.
	plan(e *env, n int) []action
	// actors is the number of closed-loop actors; actor i belongs to
	// generator i%numGenerators.
	actors() int
	// ready admits the actor's next closed-loop action.
	ready(e *env, actor int) bool
	// next draws the actor's next closed-loop action.
	next(rng *rand.Rand, actor int) action
	// do performs one action.
	do(g *genCtx, a action, ph phase, due int64)
	// verify is the workload's half of the oracle: generator model against
	// every replica. It reports through e.trk.violate.
	verify(e *env)
}

// env is one booted run.
type env struct {
	w    workload
	d    *deployment
	trk  *tracker
	tr   *tracer
	seed int64
}

// readSample is one timed Begin+Read.
type readSample struct {
	dur  int64
	ph   phase
	miss bool
}

// genCtx is one generator goroutine's private state.
type genCtx struct {
	id        int
	e         *env
	rng       *rand.Rand
	ops       []*op
	reads     []readSample
	late      []int64 // ns behind schedule at the start of each paced action
	doneAt    []int64 // completion times of actions that are not ops (reads)
	attempted int
	failed    int
	errs      []string
	// lane takes the actions that block on a DC round trip (cold reads), so
	// they never delay the open-loop schedule; a helper goroutine with its
	// own genCtx runs them.
	lane chan func(h *genCtx)
}

// async hands a blocking action to the helper lane, or runs it in place if
// the lane is full.
func (g *genCtx) async(f func(h *genCtx)) {
	select {
	case g.lane <- f:
	default:
		f(g)
	}
}

func (g *genCtx) fail(err error) {
	g.failed++
	if len(g.errs) < 5 {
		g.errs = append(g.errs, err.Error())
	}
}

// window is a measured interval with the process counters at both ends.
type window struct {
	from, to  int64
	cpu       [2]float64
	mem       [2]runtime.MemStats
	gc, total [2]float64 // runtime's cumulative GC and total CPU seconds
}

func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

func heapAfterGC() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// runResult is everything a finished run measured, before it is boiled down
// to named metrics.
type runResult struct {
	e           *env
	setups      []float64 // seconds
	gens        []*genCtx
	latWin      window // where latency samples come from
	tputWin     window // where throughput, CPU and allocation figures come from
	goroutines  int
	undelivered int
	// Heap in use after a forced collection: once the last set-up is done
	// (what a deployment of this size holds at rest) and after the drain
	// (that plus what the run left in logs, journals and caches).
	setupHeapMB, liveHeapMB float64
	// Traced runs: when recording was on and for how long, and the program's
	// own counters at the start and the end of the measured time.
	rec            recPlan
	recordedNs     int64
	obsDC, obsEdge [2]obs.Snapshot
}

// runOpts parameterises one run.
type runOpts struct {
	seed    int64
	seconds float64 // measured time
	traced  bool
	warmup  time.Duration
}

// runWorkload boots the system (setupRepeats times, keeping the last),
// drives the phases, drains, and runs the oracle.
func runWorkload(w workload, o runOpts) (*runResult, error) {
	seed, traced, warmup := o.seed, o.traced, o.warmup
	res := &runResult{}
	var e *env
	for i := 0; i < setupRepeats; i++ {
		if e != nil {
			e.d.close()
		}
		var tr *tracer
		if traced {
			tr = newTracer()
		}
		start := time.Now()
		d, err := boot(w.deploy(), tr)
		if err != nil {
			return nil, fmt.Errorf("boot: %w", err)
		}
		e = &env{w: w, d: d, tr: tr, seed: seed}
		if err := w.setup(e); err != nil {
			d.close()
			return nil, fmt.Errorf("setup: %w", err)
		}
		res.setups = append(res.setups, time.Since(start).Seconds())
	}
	defer e.d.close()
	res.e = e
	res.setupHeapMB = heapAfterGC()

	measured := time.Duration(o.seconds * float64(time.Second))
	pacedLen := time.Duration(float64(measured) * w.pacedShare())
	satLen := measured - pacedLen
	rate := w.pacedRate()
	if rate == 0 {
		pacedLen, satLen = 0, measured
	}

	// Plan the open-loop part (warm-up included) up front, from the seed.
	var slots [numGenerators][]slot
	t0 := nowNs() + int64(50*time.Millisecond)
	warmEnd := t0 + int64(warmup)
	pacedEnd := warmEnd + int64(pacedLen)
	satEnd := pacedEnd + int64(satLen)
	if rate > 0 {
		n := int(rate * (warmup + pacedLen).Seconds())
		step := float64(time.Second) / rate
		for i, a := range w.plan(e, n) {
			due := t0 + int64(float64(i)*step)
			ph := phPaced
			if due < warmEnd {
				ph = phWarm
			}
			g := a.actor % numGenerators
			slots[g] = append(slots[g], slot{a: a, due: due, ph: ph})
		}
	}

	res.gens = make([]*genCtx, numGenerators)
	var wg, helpers sync.WaitGroup
	var helperCtxs []*genCtx
	for i := range res.gens {
		// 256 deep: a burst of cold reads queues instead of stalling the schedule.
		g := &genCtx{id: i, e: e, rng: rand.New(rand.NewSource(seed*7919 + int64(i) + 1)), lane: make(chan func(*genCtx), 256)}
		res.gens[i] = g
		h := &genCtx{id: i, e: e}
		helpers.Add(1)
		go func() {
			defer helpers.Done()
			for f := range g.lane {
				f(h)
			}
		}()
		helperCtxs = append(helperCtxs, h)
		wg.Add(1)
		go func(g *genCtx, mine []slot) {
			defer wg.Done()
			g.runPaced(mine)
			if satLen > 0 {
				// Without a paced phase the closed loop does the warm-up too.
				from := pacedEnd
				if rate == 0 {
					from = t0
				}
				g.runClosed(from, warmEnd, satEnd)
			}
		}(g, slots[i])
	}

	// Latencies come from the paced phase and throughput from the closed
	// loop; a workload with only one of the two takes both there.
	pacedWin := window{from: warmEnd, to: pacedEnd}
	closedWin := window{from: pacedEnd + int64(satSettle), to: satEnd}
	switch {
	case rate == 0:
		res.latWin, res.tputWin = closedWin, closedWin
	case satLen == 0:
		res.latWin, res.tputWin = pacedWin, pacedWin
	default:
		res.latWin, res.tputWin = pacedWin, closedWin
	}
	stopRecording := func() int64 { return 0 }
	if traced {
		res.rec = recPlan{from: res.latWin.from, to: res.latWin.to, tail: satEnd, slices: 6}
		stopRecording = e.tr.follow(res.rec)
	}
	// The throughput window's edges are the instants the counters were
	// actually sampled, not the instants asked for.
	sampleAt := func(at int64, i int) int64 {
		sleepUntil(at)
		t := nowNs()
		res.tputWin.cpu[i] = cpuSeconds()
		res.tputWin.gc[i], res.tputWin.total[i] = gcCPU()
		runtime.ReadMemStats(&res.tputWin.mem[i])
		if n := runtime.NumGoroutine(); n > res.goroutines {
			res.goroutines = n
		}
		return t
	}
	snapshot := func(i int) {
		if traced {
			res.obsDC[i], res.obsEdge[i] = e.d.regDC.Snapshot(), e.d.regEdge.Snapshot()
		}
	}
	sleepUntil(warmEnd)
	snapshot(0)
	res.tputWin.from = sampleAt(res.tputWin.from, 0)
	res.tputWin.to = sampleAt(res.tputWin.to, 1)
	wg.Wait()
	snapshot(1)
	for _, g := range res.gens {
		close(g.lane)
	}
	helpers.Wait()
	res.gens = append(res.gens, helperCtxs...)
	res.recordedNs = stopRecording()

	// Drain: everything committed must reach everyone it should.
	deadline := time.Now().Add(drainLimit)
	for e.trk.outstanding.Load() > 0 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	res.undelivered = int(e.trk.outstanding.Load())
	runOracle(e)
	res.liveHeapMB = heapAfterGC()
	return res, nil
}

func sleepUntil(at int64) {
	if d := at - nowNs(); d > 0 {
		time.Sleep(time.Duration(d))
	}
}

// commit commits tx as op o and registers it with the tracker; it returns
// nil (and counts a failure) if the commit failed.
func (g *genCtx) commit(o *op, tx *edge.Tx) *txn.Transaction {
	o.commitStart = nowNs()
	rec, err := tx.Commit()
	o.commitEnd = nowNs()
	if err != nil {
		g.e.trk.abandon(o)
		g.fail(fmt.Errorf("commit at %s: %w", o.w.name, err))
		return nil
	}
	g.e.trk.register(o, rec.Dot.Seq)
	g.ops = append(g.ops, o)
	return rec
}

// slot is one planned open-loop action.
type slot struct {
	a   action
	due int64
	ph  phase
}

// runPaced executes this generator's share of the open-loop plan, each
// action at its due time.
func (g *genCtx) runPaced(mine []slot) {
	for _, s := range mine {
		sleepUntil(s.due)
		if s.ph != phWarm {
			g.late = append(g.late, nowNs()-s.due)
		}
		g.attempted++
		g.e.w.do(g, s.a, s.ph, s.due)
	}
}

// runClosed keeps every actor of this generator at its window until end.
// Actions issued before measureFrom are warm-up.
func (g *genCtx) runClosed(start, measureFrom, end int64) {
	sleepUntil(start)
	w := g.e.w
	var mine []int
	for a := g.id; a < w.actors(); a += numGenerators {
		mine = append(mine, a)
	}
	wake := g.e.trk.wake[g.id]
	for {
		now := nowNs()
		if now >= end {
			return
		}
		ph := phSat
		if now < measureFrom {
			ph = phWarm
		}
		progressed := false
		for _, a := range mine {
			if !w.ready(g.e, a) {
				continue
			}
			progressed = true
			g.attempted++
			w.do(g, w.next(g.rng, a), ph, nowNs())
		}
		if !progressed {
			// Every window is full: sleep until an ack or completion frees
			// one (or the phase ends).
			select {
			case <-wake:
			case <-time.After(time.Duration(end-now) + time.Millisecond):
			}
		}
	}
}

// --- sample reduction ---

func sortedCopy(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

// quantile is the linear-interpolated q-quantile of an ascending slice; 0 on
// an empty one.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	lo := int(pos)
	if lo+1 >= len(sorted) {
		return sorted[len(sorted)-1]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[lo+1]*frac
}

func median(v []float64) float64 { return quantile(sortedCopy(v), 0.5) }
