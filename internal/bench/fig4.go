package bench

import (
	"fmt"
	"time"

	"colony/internal/chat"
	"colony/internal/obs"
)

// Fig4Config parameterises the throughput/response-time study (Figure 4):
// for each of the six {1,3}-DC × {AntidoteDB, SwiftCloud, Colony}
// configurations, the client count grows exponentially until saturation.
type Fig4Config struct {
	// Modes and DCCounts to sweep (defaults: all three modes × {1,3}).
	Modes    []Mode
	DCCounts []int
	// ClientCounts is the load axis (default 4,8,...,256).
	ClientCounts []int
	// ActionsPerClient is the closed-loop work per client (default 20).
	ActionsPerClient int
	// GroupSize for Colony mode (default 12, as in §7.3.1).
	GroupSize int
	// Scale shrinks network latencies; default 0.1 (10× accelerated).
	Scale float64
	// ServiceTime/Workers model DC capacity; defaults 10ms of model time
	// per client-facing request (pre-scaled by Scale at deployment) and 8
	// workers — a per-DC capacity of ~800 requests/s of model time, chosen
	// so the AntidoteDB configuration saturates inside the default sweep.
	ServiceTime time.Duration
	Workers     int
	Seed        int64
}

// Fig4Point is one measured point of the curve.
type Fig4Point struct {
	Mode         Mode
	DCs          int
	Clients      int
	ThroughputTx float64 // committed transactions per second
	Latency      LatencyStats
	Hits         HitRates
	// Obs is the deployment-wide instrumentation snapshot taken after the
	// run (wall-clock durations: divide by Scale for model time).
	Obs obs.Snapshot
}

// Label renders the configuration like the paper's legend.
func (p Fig4Point) Label() string { return fmt.Sprintf("%d-DC %s", p.DCs, p.Mode) }

// RunFig4 produces the full curve set.
func RunFig4(cfg Fig4Config, progress func(string)) ([]Fig4Point, error) {
	if len(cfg.Modes) == 0 {
		cfg.Modes = []Mode{ModeAntidote, ModeSwiftCloud, ModeColony}
	}
	if len(cfg.DCCounts) == 0 {
		cfg.DCCounts = []int{1, 3}
	}
	if len(cfg.ClientCounts) == 0 {
		cfg.ClientCounts = []int{4, 8, 16, 32, 64, 128, 256}
	}
	if cfg.ActionsPerClient <= 0 {
		cfg.ActionsPerClient = 20
	}
	if cfg.Scale == 0 {
		cfg.Scale = 0.1
	}
	if cfg.ServiceTime == 0 {
		cfg.ServiceTime = 10 * time.Millisecond
	}
	if cfg.Workers <= 0 {
		cfg.Workers = 8
	}
	var out []Fig4Point
	for _, dcs := range cfg.DCCounts {
		for _, mode := range cfg.Modes {
			for _, clients := range cfg.ClientCounts {
				if progress != nil {
					progress(fmt.Sprintf("fig4: %d-DC %s, %d clients", dcs, mode, clients))
				}
				pt, err := runFig4Point(cfg, mode, dcs, clients)
				if err != nil {
					return out, fmt.Errorf("fig4 %d-DC %s %d clients: %w", dcs, mode, clients, err)
				}
				out = append(out, pt)
			}
		}
	}
	return out, nil
}

// runFig4Point measures one configuration at one load level.
func runFig4Point(cfg Fig4Config, mode Mode, dcs, clients int) (Fig4Point, error) {
	traceCfg := chat.DefaultTraceConfig(0, clients*cfg.ActionsPerClient, cfg.Seed+int64(clients))
	traceCfg.Users = clients
	// The load sweep is closed-loop per client: spread the actions evenly so
	// throughput measures the system, not the single most Pareto-active
	// user. (The timeline experiments keep the skewed per-user activity.)
	traceCfg.ParetoAlpha = 1e9
	tr := chat.Generate(traceCfg)

	dep, err := Deploy(DeployConfig{
		Mode: mode, DCs: dcs, K: minInt(2, dcs), Clients: clients,
		GroupSize: cfg.GroupSize, Trace: tr, Scale: cfg.Scale,
		// The service time scales with the network so that the ratio between
		// processing and propagation matches the modelled system.
		ServiceTime: time.Duration(float64(cfg.ServiceTime) * cfg.Scale),
		Workers:     cfg.Workers, Seed: cfg.Seed,
	})
	if err != nil {
		return Fig4Point{}, err
	}
	defer dep.Close()

	start := time.Now()
	samples := RunActions(dep, tr.Actions, false, cfg.Scale)
	elapsed := time.Since(start)

	// Report in model time: wall-clock divided by the acceleration factor.
	modelSeconds := elapsed.Seconds() / cfg.Scale
	samples = rescale(samples, cfg.Scale)
	pt := Fig4Point{
		Mode: mode, DCs: dcs, Clients: clients,
		ThroughputTx: float64(len(samples)) / modelSeconds,
		Latency:      Stats(samples),
		Hits:         ComputeHitRates(samples),
		Obs:          dep.Cluster.Obs().Snapshot(),
	}
	return pt, nil
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}
