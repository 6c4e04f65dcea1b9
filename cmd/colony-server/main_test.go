package main

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"colony/internal/obs"
)

// reservePorts grabs n distinct loopback ports by binding and releasing
// them. There is an inherent race between release and reuse, but the window
// is tiny and the kernel hands out fresh ephemeral ports.
func reservePorts(t *testing.T, n int) []string {
	t.Helper()
	addrs := make([]string, n)
	lns := make([]net.Listener, n)
	for i := 0; i < n; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns[i] = ln
		addrs[i] = ln.Addr().String()
	}
	for _, ln := range lns {
		ln.Close()
	}
	return addrs
}

// TestThreeProcessMeshConvergence is the deployment-mode e2e: build the real
// binary, spawn three colony-server processes forming a TCP mesh on
// loopback, have each commit a workload, and assert via /status that all
// three converge on the same counter total and state vector.
func TestThreeProcessMeshConvergence(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process e2e; skipped in -short")
	}
	bin := filepath.Join(t.TempDir(), "colony-server")
	build := exec.Command("go", "build", "-o", bin, ".")
	build.Stderr = os.Stderr
	if err := build.Run(); err != nil {
		t.Fatalf("go build: %v", err)
	}

	const (
		nProcs = 3
		perDC  = 30
	)
	ports := reservePorts(t, 2*nProcs)
	meshAddrs := ports[:nProcs]
	httpAddrs := ports[nProcs:]

	procs := make([]*exec.Cmd, nProcs)
	for i := 0; i < nProcs; i++ {
		peers := ""
		for j := 0; j < nProcs; j++ {
			if j == i {
				continue
			}
			if peers != "" {
				peers += ","
			}
			peers += fmt.Sprintf("dc%d=%s", j, meshAddrs[j])
		}
		cmd := exec.Command(bin,
			"-listen", meshAddrs[i],
			"-index", fmt.Sprint(i),
			"-peers", peers,
			"-metrics", httpAddrs[i],
			"-workload", fmt.Sprint(perDC),
			"-k", "2",
			"-shards", "2",
			"-status", "500ms",
		)
		cmd.Stdout = os.Stderr
		cmd.Stderr = os.Stderr
		if err := cmd.Start(); err != nil {
			t.Fatalf("start dc%d: %v", i, err)
		}
		procs[i] = cmd
		t.Cleanup(func() {
			cmd.Process.Kill()
			cmd.Wait()
		})
	}

	type status struct {
		Name         string   `json:"name"`
		State        []uint64 `json:"state"`
		Counter      int64    `json:"counter"`
		WorkloadDone bool     `json:"workload_done"`
	}
	fetch := func(i int) (status, error) {
		var st status
		resp, err := http.Get(fmt.Sprintf("http://%s/status", httpAddrs[i]))
		if err != nil {
			return st, err
		}
		defer resp.Body.Close()
		return st, json.NewDecoder(resp.Body).Decode(&st)
	}

	want := int64(nProcs * perDC)
	deadline := time.Now().Add(60 * time.Second)
	for {
		converged := true
		var states [][]uint64
		for i := 0; i < nProcs; i++ {
			st, err := fetch(i)
			if err != nil || !st.WorkloadDone || st.Counter != want {
				converged = false
				break
			}
			states = append(states, st.State)
		}
		if converged {
			for i := 1; i < len(states); i++ {
				if !reflect.DeepEqual(states[i], states[0]) {
					converged = false
					break
				}
			}
		}
		if converged {
			break
		}
		if time.Now().After(deadline) {
			for i := 0; i < nProcs; i++ {
				st, err := fetch(i)
				t.Logf("dc%d: %+v (err %v)", i, st, err)
			}
			t.Fatal("mesh did not converge within 60s")
		}
		time.Sleep(100 * time.Millisecond)
	}

	// Metrics endpoint serves alongside /status (the README's curl check).
	resp, err := http.Get(fmt.Sprintf("http://%s/metrics", httpAddrs[0]))
	if err != nil {
		t.Fatalf("GET /metrics: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics status %d", resp.StatusCode)
	}
}

// TestMetricsMuxEndpoints: both modes serve one HTTP surface — the registry,
// expvar and the profiler — and only mesh mode adds /status.
func TestMetricsMuxEndpoints(t *testing.T) {
	for _, mode := range []struct {
		name       string
		status     func() meshStatus
		statusCode int
	}{
		{"simnet", nil, http.StatusNotFound},
		{"mesh", func() meshStatus { return meshStatus{Name: "dc0"} }, http.StatusOK},
	} {
		t.Run(mode.name, func(t *testing.T) {
			srv := httptest.NewServer(metricsMux(obs.New(), mode.status))
			defer srv.Close()
			for path, want := range map[string]int{
				"/metrics":             http.StatusOK,
				"/debug/vars":          http.StatusOK,
				"/debug/pprof/cmdline": http.StatusOK,
				"/status":              mode.statusCode,
			} {
				resp, err := http.Get(srv.URL + path)
				if err != nil {
					t.Fatalf("GET %s: %v", path, err)
				}
				resp.Body.Close()
				if resp.StatusCode != want {
					t.Errorf("GET %s = %d, want %d", path, resp.StatusCode, want)
				}
			}
		})
	}
}
