package sim

// Scheduler/time determinism: the event engine must produce byte-identical
// wire traces under a fixed seed — across runs, and across the FIFO mode and
// an explicit zero-delay latency mode (which exercise the same event
// schedule through different configuration paths) — and the scheduler-driven
// periodic mode must drive the protocol to the same health the cycle-driven
// mode reaches.

import (
	"fmt"
	"strings"
	"testing"

	"hyparview/internal/core"
	"hyparview/internal/id"
	"hyparview/internal/msg"
	"hyparview/internal/netsim"
	"hyparview/internal/rng"
)

// clusterTrace builds a HyParView cluster, then records every delivered wire
// message (with its virtual timestamp) over stabilization and a measured
// burst.
func clusterTrace(opts Options, stabilize, msgs int) string {
	c := NewCluster(HyParView, opts)
	var b strings.Builder
	c.Sim.Tap = func(from, to id.ID, m msg.Message) {
		fmt.Fprintf(&b, "%d>%d:%d:%d@%d\n", from, to, m.Type, m.Round, c.Sim.Now())
	}
	c.Stabilize(stabilize)
	c.MeasureBurst(msgs)
	return b.String()
}

func TestSameSeedSameEventTrace(t *testing.T) {
	opts := Options{N: 120, Seed: 7, Broadcast: BroadcastPlumtree}
	a := clusterTrace(opts, 5, 3)
	b := clusterTrace(opts, 5, 3)
	if a == "" {
		t.Fatal("empty event trace")
	}
	if a != b {
		t.Fatal("same seed produced diverging event traces")
	}
}

func TestFIFOMatchesZeroDelayLatencyMode(t *testing.T) {
	// FIFO mode is, by construction, delay-0 scheduling on the shared event
	// schedule: installing an explicit always-zero latency function must yield a
	// byte-identical trace, timestamps included.
	base := Options{N: 80, Seed: 3, Broadcast: BroadcastPlumtree}
	fifo := clusterTrace(base, 4, 2)
	zeroOpts := base
	zeroOpts.Latency = func(id.ID, id.ID, *rng.Rand) uint64 { return 0 }
	zero := clusterTrace(zeroOpts, 4, 2)
	if fifo == "" {
		t.Fatal("empty event trace")
	}
	if fifo != zero {
		t.Fatal("FIFO and delay-0 latency mode diverged")
	}
}

func TestPeriodicModeDeterministic(t *testing.T) {
	opts := Options{N: 100, Seed: 5, ShuffleInterval: 20, Broadcast: BroadcastPlumtree}
	a := clusterTrace(opts, 10, 3)
	b := clusterTrace(opts, 10, 3)
	if a == "" {
		t.Fatal("empty event trace")
	}
	if a != b {
		t.Fatal("scheduler-driven periodic mode is not deterministic under a fixed seed")
	}
}

func TestPeriodicShuffleRoundsDriveProtocol(t *testing.T) {
	c := NewCluster(HyParView, Options{N: 300, Seed: 2, ShuffleInterval: 50})
	sentBefore := c.Sim.Stats().Sent
	nowBefore := c.Sim.Now()
	c.Stabilize(10) // = RunFor(500): ten self-scheduled rounds per node
	if got := c.Sim.Now() - nowBefore; got != 500 {
		t.Fatalf("virtual clock advanced %d ticks, want 500", got)
	}
	if c.Sim.Stats().Sent == sentBefore {
		t.Fatal("scheduled shuffle rounds generated no traffic")
	}
	var shuffles uint64
	for _, nodeID := range c.Sim.AliveIDs() {
		if hv, ok := c.Membership(nodeID).(*core.Node); ok {
			shuffles += hv.Stats().ShufflesInitiated
		}
	}
	// Every node self-schedules ΔT rounds: expect roughly one shuffle per
	// node per round (some nodes may skip a round while isolated).
	if shuffles < 300*5 {
		t.Errorf("shuffles initiated = %d over 10 scheduled rounds of 300 nodes, want >= 1500", shuffles)
	}
	if rel := c.Broadcast(); rel != 1.0 {
		t.Errorf("reliability after periodic stabilization = %v, want 1.0", rel)
	}
}

// TestPeriodicModeWithLatencyModelTerminates pins the Drain/RunFor split:
// with per-link delays, self-scheduled shuffle rounds generate delayed
// traffic forever, so a Drain that fired periodic rounds would never
// quiesce. The cluster must build, stabilize and measure a burst — with
// delivery-latency percentiles populated — in bounded work.
func TestPeriodicModeWithLatencyModelTerminates(t *testing.T) {
	c := NewCluster(HyParView, Options{
		N: 200, Seed: 4, ShuffleInterval: 100,
		LatencyModel: netsim.NewEuclidean(4),
	})
	c.Stabilize(10)
	stats := c.MeasureBurst(3)
	if stats.MeanReliability != 1.0 {
		t.Errorf("reliability = %v, want 1.0", stats.MeanReliability)
	}
	if stats.LatencyP50 <= 0 || stats.LatencyP99 < stats.LatencyP50 {
		t.Errorf("latency percentiles p50=%v p99=%v, want 0 < p50 <= p99",
			stats.LatencyP50, stats.LatencyP99)
	}
}
