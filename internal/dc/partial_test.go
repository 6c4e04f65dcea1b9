package dc

import (
	"fmt"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"colony/internal/crdt"
	"colony/internal/obs"
	"colony/internal/simnet"
	"colony/internal/txn"
)

// partialCluster builds n partially replicating DCs, with per-DC boot
// interest sets.
func partialCluster(t *testing.T, net *simnet.Network, n, k int, buckets map[int][]string, tweak func(*Config)) []*DC {
	t.Helper()
	dcs := make([]*DC, n)
	peers := make(map[int]string, n)
	for i := 0; i < n; i++ {
		peers[i] = fmt.Sprintf("dc%d", i)
	}
	for i := 0; i < n; i++ {
		cfg := Config{
			Index: i, Name: peers[i], NumDCs: n, Shards: 2, K: k,
			Heartbeat:   5 * time.Millisecond,
			PartialRepl: true,
			Buckets:     buckets[i],
		}
		if tweak != nil {
			tweak(&cfg)
		}
		d, err := New(net.Transport(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		d.SetPeers(peers)
		t.Cleanup(d.Close)
		dcs[i] = d
	}
	// Let the first BucketVec gossip round finish so interest scoping is
	// actually exercised (before it, peers are treated as universal).
	deadline := time.Now().Add(5 * time.Second)
	for _, d := range dcs {
		for !d.ScopesKnown() {
			if time.Now().After(deadline) {
				t.Fatal("bucket gossip never completed")
			}
			time.Sleep(time.Millisecond)
		}
	}
	return dcs
}

// counterValue reads the counter at the DC's current state, or -1.
func partialCounter(d *DC, id txn.ObjectID) int64 {
	obj, err := d.ReadAt(id, d.State())
	if err != nil {
		return -1
	}
	v, _ := obj.Value().(int64)
	return v
}

func waitCounter(t *testing.T, d *DC, id txn.ObjectID, want int64) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		if got := partialCounter(d, id); got == want {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%s: %s stuck at %d, want %d", d.Name(), id, partialCounter(d, id), want)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestPartialScopedConvergence: a bucket shared by all DCs converges
// everywhere; a bucket private to DC0/DC1 reaches both of them but is never
// made resident at DC2, whose state vector still converges (stubs keep the
// stability lattice dense).
func TestPartialScopedConvergence(t *testing.T) {
	net := simnet.New(simnet.Config{})
	defer net.Close()
	dcs := partialCluster(t, net, 3, 2, map[int][]string{
		0: {"shared", "ab"},
		1: {"shared", "ab"},
		2: {"shared"},
	}, nil)

	sharedID := txn.ObjectID{Bucket: "shared", Key: "k"}
	abID := txn.ObjectID{Bucket: "ab", Key: "k"}
	const each = 20
	for i := 0; i < each; i++ {
		for at, d := range dcs {
			tx := d.Begin(fmt.Sprintf("a%d", at))
			tx.Update(sharedID, crdt.KindCounter, crdt.Op{Counter: &crdt.CounterOp{Delta: 1}})
			if at != 2 {
				tx.Update(abID, crdt.KindCounter, crdt.Op{Counter: &crdt.CounterOp{Delta: 1}})
			}
			if _, err := tx.Commit(); err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, d := range dcs {
		waitCounter(t, d, sharedID, 3*each)
	}
	waitCounter(t, dcs[0], abID, 2*each)
	waitCounter(t, dcs[1], abID, 2*each)

	// DC2 never asked for "ab": it must not be resident there.
	if b, _, _ := dcs[2].ResidentStats(); b != 1 {
		t.Fatalf("dc2 resident buckets = %d, want 1 (shared only)", b)
	}

	// But on demand DC2 can still pull it: EnsureBuckets backfills from a
	// replica and the read sees the full total.
	if err := dcs[2].EnsureBuckets("ab"); err != nil {
		t.Fatal(err)
	}
	waitCounter(t, dcs[2], abID, 2*each)
}

// TestPartialSubscribeBackfillRacesLiveCommits drives continuous commits
// into a bucket at DC0 while DC2 — which has no interest in it — subscribes
// mid-stream. The backfill snapshot and the journal catch-up must compose
// without losing or double-applying any increment. Run under -race via
// make ci.
func TestPartialSubscribeBackfillRacesLiveCommits(t *testing.T) {
	net := simnet.New(simnet.Config{})
	defer net.Close()
	dcs := partialCluster(t, net, 3, 2, map[int][]string{
		0: {"hot"},
		1: {"hot"},
		2: {},
	}, nil)

	id := txn.ObjectID{Bucket: "hot", Key: "k"}
	const committers, perCommitter = 4, 50
	var wg sync.WaitGroup
	for c := 0; c < committers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			d := dcs[c%2] // DC0 and DC1 both write
			for i := 0; i < perCommitter; i++ {
				tx := d.Begin(fmt.Sprintf("actor%d", c))
				tx.Update(id, crdt.KindCounter, crdt.Op{Counter: &crdt.CounterOp{Delta: 1}})
				if _, err := tx.Commit(); err != nil {
					t.Errorf("committer %d: %v", c, err)
					return
				}
				if i%8 == 0 {
					time.Sleep(time.Millisecond)
				}
			}
		}(c)
	}

	// Subscribe mid-stream, several times from several goroutines: the
	// pending-bucket state machine must serialise concurrent ensures.
	var ewg sync.WaitGroup
	for g := 0; g < 3; g++ {
		ewg.Add(1)
		go func() {
			defer ewg.Done()
			time.Sleep(5 * time.Millisecond)
			if err := dcs[2].EnsureBuckets("hot"); err != nil {
				t.Errorf("ensure: %v", err)
			}
		}()
	}
	wg.Wait()
	ewg.Wait()

	const total = committers * perCommitter
	for _, d := range dcs {
		waitCounter(t, d, id, total)
	}
}

// TestPartialGenesisBucket: the first commit to a bucket nobody in an
// all-partial mesh has ever held must succeed — every replica candidate
// answers NotLive, which the subscriber treats as genesis (live, empty)
// rather than a failed backfill. The commit then replicates normally.
func TestPartialGenesisBucket(t *testing.T) {
	net := simnet.New(simnet.Config{})
	defer net.Close()
	dcs := partialCluster(t, net, 3, 2, map[int][]string{
		0: {}, 1: {}, 2: {},
	}, nil)

	id := txn.ObjectID{Bucket: "fresh", Key: "k"}
	tx := dcs[0].Begin("w")
	tx.Update(id, crdt.KindCounter, crdt.Op{Counter: &crdt.CounterOp{Delta: 1}})
	if _, err := tx.Commit(); err != nil {
		t.Fatalf("first commit to a fresh bucket: %v", err)
	}
	waitCounter(t, dcs[0], id, 1)

	// A second DC pulls the young bucket: a normal backfill this time.
	if err := dcs[1].EnsureBuckets("fresh"); err != nil {
		t.Fatal(err)
	}
	waitCounter(t, dcs[1], id, 1)
}

// TestPartialMetricsExposed drives a backfill through a partial cluster and
// asserts the interest-scoping series appear on the /metrics exposition.
func TestPartialMetricsExposed(t *testing.T) {
	reg := obs.New()
	net := simnet.New(simnet.Config{Obs: reg})
	defer net.Close()
	dcs := partialCluster(t, net, 3, 2, map[int][]string{
		0: {"m"},
		1: {"m"},
		2: {},
	}, func(cfg *Config) { cfg.Obs = reg })

	id := txn.ObjectID{Bucket: "m", Key: "k"}
	for i := 0; i < 5; i++ {
		tx := dcs[0].Begin("w")
		tx.Update(id, crdt.KindCounter, crdt.Op{Counter: &crdt.CounterOp{Delta: 1}})
		if _, err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	if err := dcs[2].EnsureBuckets("m"); err != nil {
		t.Fatal(err)
	}
	waitCounter(t, dcs[2], id, 5)

	rec := httptest.NewRecorder()
	reg.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	body := rec.Body.String()
	for _, want := range []string{
		"# TYPE store_resident_buckets gauge",
		"store_resident_bytes",
		"# TYPE dc_backfills counter",
		"dc_backfills 1",
		"dc_repl_skipped_buckets",
		"dc_repl_stub_txs",
		"dc_repl_full_txs",
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("exposition missing %q in:\n%s", want, body)
		}
	}
}

// TestPartialBackfillFailureRetries: a backfill that finds no reachable
// holder fails every caller waiting on it and leaves the bucket absent —
// neither live nor pending in the DC's advertisement — so the next ensure
// after the partition heals starts a fresh backfill and reads the full state.
func TestPartialBackfillFailureRetries(t *testing.T) {
	net := simnet.New(simnet.Config{})
	defer net.Close()
	dcs := partialCluster(t, net, 3, 2, map[int][]string{
		0: {"b"},
		1: {},
		2: {},
	}, nil)

	id := txn.ObjectID{Bucket: "b", Key: "k"}
	for i := 0; i < 5; i++ {
		tx := dcs[0].Begin("w")
		tx.Update(id, crdt.KindCounter, crdt.Op{Counter: &crdt.CounterOp{Delta: 1}})
		if _, err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}

	net.Partition("dc0", "dc2")
	errs := make([]error, 2)
	var wg sync.WaitGroup
	for i := range errs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = dcs[2].EnsureBuckets("b")
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err == nil {
			t.Fatalf("ensure %d succeeded with the only holder partitioned away", i)
		}
	}
	bv := dcs[2].bucketVec()
	for _, b := range append(bv.Live, bv.Pending...) {
		if b == "b" {
			t.Fatalf("failed backfill left b in the advertisement: live %v, pending %v", bv.Live, bv.Pending)
		}
	}

	net.Heal("dc0", "dc2")
	if err := dcs[2].EnsureBuckets("b"); err != nil {
		t.Fatalf("ensure after heal: %v", err)
	}
	waitCounter(t, dcs[2], id, 5)
}
