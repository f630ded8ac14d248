package sim

// The cross-shard conformance suite: the wave/barrier engine must report
// exactly the same aggregate results — reliability, RMR, hop counts, and
// every simulator counter — at every shard count, for the paper's scenarios
// at a scale where event interleaving inside a wave genuinely differs (10k
// nodes; 2k under -short). The expected values are golden: they were
// recorded from the serial heap engine (one event at a time off a global
// (at, seq) heap) that the simulator carried as its reference until commit
// 0a9dd4e, run at the same seeds. Trace-level equality is pinned separately
// in shard_test.go at small n; this suite pins the aggregate contract at
// population scale, for flood, Plumtree and the paper's kill-80% headline
// scenario. Floats are compared exactly.

import (
	"testing"

	"hyparview/internal/netsim"
)

// confSummary is everything a conformance run must reproduce exactly.
type confSummary struct {
	burst BurstStats
	stats netsim.Stats
	alive int
}

// confRun builds a cluster, stabilizes it, optionally kills 80% of the
// population, measures a burst and returns the aggregate summary.
func confRun(t *testing.T, opts Options, kill80 bool) confSummary {
	t.Helper()
	c := NewCluster(HyParView, opts)
	c.Stabilize(5)
	if kill80 {
		c.FailFraction(0.8)
	}
	return confSummary{
		burst: c.MeasureBurst(5),
		stats: c.Sim.Stats(),
		alive: c.Sim.AliveCount(),
	}
}

// confSweep runs the scenario at every shard count and compares each
// summary with golden, keyed by population size.
func confSweep(t *testing.T, opts Options, kill80 bool, golden map[int]confSummary) {
	t.Helper()
	want, ok := golden[opts.N]
	if !ok {
		t.Fatalf("no golden summary for n=%d", opts.N)
	}
	for _, shards := range shardMatrix {
		o := opts
		o.Shards = shards
		if got := confRun(t, o, kill80); got != want {
			t.Errorf("shards=%d diverged from the golden summary:\n got %+v\nwant %+v",
				shards, got, want)
		}
	}
}

func confN(t *testing.T) int {
	if testing.Short() {
		return 2_000
	}
	return 10_000
}

func TestConformanceFlood10k(t *testing.T) {
	confSweep(t, Options{N: confN(t), Seed: 21}, false, map[int]confSummary{
		2_000: {
			burst: BurstStats{MeanReliability: 1, FinalReliability: 1, RMR: 2.9844922461230614, MeanMaxHops: 7},
			stats: netsim.Stats{Sent: 282142, Delivered: 282142, BytesSent: 21344704},
			alive: 2000,
		},
		10_000: {
			burst: BurstStats{MeanReliability: 1, FinalReliability: 1, RMR: 2.987698769876988, MeanMaxHops: 8.2},
			stats: netsim.Stats{Sent: 1419498, Delivered: 1419498, BytesSent: 107258688},
			alive: 10000,
		},
	})
}

func TestConformancePlumtree10k(t *testing.T) {
	confSweep(t, Options{N: confN(t), Seed: 22, Broadcast: BroadcastPlumtree}, false, map[int]confSummary{
		2_000: {
			burst: BurstStats{MeanReliability: 1, FinalReliability: 1, RMR: 0.5970985492746372, MeanMaxHops: 10.8},
			stats: netsim.Stats{Sent: 286490, Delivered: 286490, BytesSent: 21605280},
			alive: 2000,
		},
		10_000: {
			burst: BurstStats{MeanReliability: 1, FinalReliability: 1, RMR: 0.5967396739673967, MeanMaxHops: 13.8},
			stats: netsim.Stats{Sent: 1462155, Delivered: 1462155, BytesSent: 109818932},
			alive: 10000,
		},
	})
}

func TestConformanceKill80(t *testing.T) {
	// The paper's headline scenario: 80% of the population crashes at once
	// and the burst measures recovery. Failure notifications, parked timers
	// and dropped in-flight traffic must all aggregate identically.
	confSweep(t, Options{N: confN(t), Seed: 23, Broadcast: BroadcastPlumtree}, true, map[int]confSummary{
		2_000: {
			burst: BurstStats{MeanReliability: 1, FinalReliability: 1, RMR: 0.21052631578947367, MeanMaxHops: 13},
			stats: netsim.Stats{Sent: 244492, Delivered: 244492, SendFailures: 1746, BytesSent: 19084072},
			alive: 400,
		},
		10_000: {
			burst: BurstStats{MeanReliability: 0.7988999999999999, FinalReliability: 0.9985, RMR: 0.18897795591182365, MeanMaxHops: 25.4},
			stats: netsim.Stats{Sent: 1255576, Delivered: 1255576, SendFailures: 8206, BytesSent: 97421696},
			alive: 2000,
		},
	})
}
