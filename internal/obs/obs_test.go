package obs

import (
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
)

// TestNilSafety drives every handle method through a nil receiver — the
// disabled-instrumentation path must never panic.
func TestNilSafety(t *testing.T) {
	var r *Registry
	r.Counter("x").Inc()
	r.Counter("x").Add(5)
	if got := r.Counter("x").Value(); got != 0 {
		t.Fatalf("nil counter value = %d", got)
	}
	r.Gauge("g").Set(7)
	r.Gauge("g").Add(1)
	if got := r.Gauge("g").Value(); got != 0 {
		t.Fatalf("nil gauge value = %d", got)
	}
	r.RegisterGauge("g2", AggSum, func() int64 { return 1 })
	r.Histogram("h").Observe(42)
	if got := r.Histogram("h").Count(); got != 0 {
		t.Fatalf("nil histogram count = %d", got)
	}
	if got := r.Histogram("h").Quantile(0.5); got != 0 {
		t.Fatalf("nil histogram quantile = %d", got)
	}
	snap := r.Snapshot()
	if len(snap.Counters) != 0 || len(snap.Gauges) != 0 || len(snap.Histograms) != 0 {
		t.Fatalf("nil registry snapshot not empty: %+v", snap)
	}
}

func TestCounterSharedByName(t *testing.T) {
	r := New()
	a := r.Counter("edge.reads")
	b := r.Counter("edge.reads")
	if a != b {
		t.Fatal("same name should return the same counter handle")
	}
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				a.Inc()
			}
		}()
	}
	wg.Wait()
	if got := b.Value(); got != 8000 {
		t.Fatalf("counter = %d, want 8000", got)
	}
}

func TestGaugeAggregation(t *testing.T) {
	r := New()
	r.RegisterGauge("store.max_journal_len", AggMax, func() int64 { return 3 })
	r.RegisterGauge("store.max_journal_len", AggMax, func() int64 { return 9 })
	r.RegisterGauge("store.max_journal_len", AggMax, func() int64 { return 5 })
	r.RegisterGauge("edge.unacked", AggSum, func() int64 { return 2 })
	r.RegisterGauge("edge.unacked", AggSum, func() int64 { return 4 })
	snap := r.Snapshot()
	if got := snap.Gauges["store.max_journal_len"]; got != 9 {
		t.Fatalf("AggMax = %d, want 9", got)
	}
	if got := snap.Gauges["edge.unacked"]; got != 6 {
		t.Fatalf("AggSum = %d, want 6", got)
	}
}

func TestSnapshotIsCopy(t *testing.T) {
	r := New()
	r.Counter("c").Add(1)
	snap := r.Snapshot()
	snap.Counters["c"] = 99
	if got := r.Counter("c").Value(); got != 1 {
		t.Fatalf("mutating snapshot leaked into registry: %d", got)
	}
	if got := r.Snapshot().Counters["c"]; got != 1 {
		t.Fatalf("second snapshot = %d, want 1", got)
	}
}

func TestCacheHitRate(t *testing.T) {
	r := New()
	if got := r.Snapshot().CacheHitRate(); got != -1 {
		t.Fatalf("empty hit rate = %v, want -1", got)
	}
	r.Counter("store.cache_hit").Add(3)
	r.Counter("store.cache_miss").Add(1)
	if got := r.Snapshot().CacheHitRate(); got != 0.75 {
		t.Fatalf("hit rate = %v, want 0.75", got)
	}
}

func TestHTTPHandler(t *testing.T) {
	r := New()
	r.Counter("store.cache_hit").Add(10)
	r.Gauge("net.in_flight").Set(2)
	h := r.Histogram("edge.commit_to_kstable_ns")
	for i := int64(1); i <= 100; i++ {
		h.Observe(i * 1000)
	}
	rec := httptest.NewRecorder()
	r.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	body := rec.Body.String()
	for _, want := range []string{
		"# TYPE store_cache_hit counter",
		"store_cache_hit 10",
		"# TYPE net_in_flight gauge",
		"net_in_flight 2",
		"# TYPE edge_commit_to_kstable_ns summary",
		`edge_commit_to_kstable_ns{quantile="0.5"}`,
		"edge_commit_to_kstable_ns_count 100",
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("exposition missing %q in:\n%s", want, body)
		}
	}
}

func TestSnapshotString(t *testing.T) {
	r := New()
	r.Counter("b.second").Inc()
	r.Counter("a.first").Inc()
	r.Histogram("h.lat").Observe(5)
	out := r.Snapshot().String()
	ia := strings.Index(out, "a.first")
	ib := strings.Index(out, "b.second")
	if ia < 0 || ib < 0 || ia > ib {
		t.Fatalf("dump not sorted:\n%s", out)
	}
	if !strings.Contains(out, "h.lat count=1") {
		t.Fatalf("dump missing histogram line:\n%s", out)
	}
}
