// Package obs is Colony's unified observability layer: a lightweight,
// allocation-conscious instrumentation API shared by every layer of the
// system (store, edge, dc, replication, group, simnet).
//
// A Registry holds named metrics — atomic counters, gauges, bounded
// log-linear histograms with p50/p95/p99. Registries are *per deployment*, never process-global: each core.Cluster
// (and therefore each bench run and each test) owns its own, so concurrent
// deployments never bleed counters into each other.
//
// # Disabled-path cost
//
// Every handle type is nil-safe: methods on a nil *Counter, *Gauge,
// *Histogram or *Registry are no-ops. Components resolve their metric
// handles once at construction (against a possibly-nil registry) and call
// them unconditionally on the hot path — the disabled path costs one
// predictable nil check per call site, no map lookups, no locks, no
// allocation. The enabled path costs one atomic add (counters, gauges) or a
// few atomic adds (histograms).
package obs

import (
	"sort"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing atomic counter.
type Counter struct {
	v atomic.Int64
}

// Inc adds one. Safe on a nil receiver (no-op).
func (c *Counter) Inc() {
	if c != nil {
		c.v.Add(1)
	}
}

// Add adds n. Safe on a nil receiver (no-op).
func (c *Counter) Add(n int64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Value returns the current count; zero on a nil receiver.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an atomic instantaneous value.
type Gauge struct {
	v atomic.Int64
}

// Set stores v. Safe on a nil receiver (no-op).
func (g *Gauge) Set(v int64) {
	if g != nil {
		g.v.Store(v)
	}
}

// Add adjusts the gauge by delta (e.g. in-flight tracking). Safe on nil.
func (g *Gauge) Add(delta int64) {
	if g != nil {
		g.v.Add(delta)
	}
}

// Value returns the current value; zero on a nil receiver.
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Agg selects how multiple gauge sources registered under one name fold into
// a single snapshot value.
type Agg int

// The aggregation modes.
const (
	// AggSum adds the sources (e.g. unacked transactions across devices).
	AggSum Agg = iota
	// AggMax takes the largest source (e.g. the longest journal anywhere).
	AggMax
)

// gaugeSource is one registered pull-based gauge callback.
type gaugeSource struct {
	agg Agg
	fns []func() int64
}

// Registry is one deployment's metric namespace. The zero value is not
// usable; call New. A nil *Registry is the disabled layer: every accessor
// returns a nil handle whose methods are no-ops.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	sources  map[string]*gaugeSource
	hists    map[string]*Histogram
}

// New creates an empty registry.
func New() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		sources:  make(map[string]*gaugeSource),
		hists:    make(map[string]*Histogram),
	}
}

// Counter returns the counter registered under name, creating it on first
// use. Handles are shared: two components asking for the same name increment
// the same counter (deployment-wide aggregation). Nil-safe: returns nil on a
// nil registry.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c := r.counters[name]
	if c == nil {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the push-style gauge registered under name, creating it on
// first use. Nil-safe: returns nil on a nil registry.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g := r.gauges[name]
	if g == nil {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// RegisterGauge adds a pull-based gauge source: fn is called at snapshot
// time. Multiple sources may register under one name; agg decides how they
// fold (the first registration fixes the mode). Sources must be fast and
// must not call back into the registry. Nil-safe no-op on a nil registry.
func (r *Registry) RegisterGauge(name string, agg Agg, fn func() int64) {
	if r == nil || fn == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	src := r.sources[name]
	if src == nil {
		src = &gaugeSource{agg: agg}
		r.sources[name] = src
	}
	src.fns = append(src.fns, fn)
}

// Histogram returns the histogram registered under name, creating it on
// first use. Nil-safe: returns nil on a nil registry.
func (r *Registry) Histogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h := r.hists[name]
	if h == nil {
		h = newHistogram()
		r.hists[name] = h
	}
	return h
}

// names returns the sorted keys of a map (snapshot/exposition determinism).
func names[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
