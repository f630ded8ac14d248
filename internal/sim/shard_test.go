package sim

// The shard-determinism matrix: the wave/barrier engine must honor the
// repository's determinism contract at every shard count — same seed ⇒
// byte-identical event traces, timestamps included, whatever the shard
// count (the canonical barrier merge reproduces the serial delivery order
// exactly; see internal/netsim/shards.go). The expected traces are pinned as
// SHA-256 digests of the Tap text, recorded from the serial heap engine (one
// event at a time off a global (at, seq) heap) that the simulator carried as
// its reference until commit 0a9dd4e, run at the same seeds.

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"runtime"
	"strings"
	"testing"

	"hyparview/internal/faults"
	"hyparview/internal/id"
	"hyparview/internal/msg"
	"hyparview/internal/netsim"
)

// shardMatrix is the shard-count matrix every determinism test sweeps.
var shardMatrix = []int{1, 2, 4, 8}

// traceDigest is the hex SHA-256 of a trace: the form golden traces are
// pinned in.
func traceDigest(trace string) string {
	sum := sha256.Sum256([]byte(trace))
	return hex.EncodeToString(sum[:])
}

// shardTraceSweep runs trace twice at every shard count and checks that
// both runs match the golden digest.
func shardTraceSweep(t *testing.T, golden string, trace func(shards int) string) {
	t.Helper()
	for _, shards := range shardMatrix {
		a, b := trace(shards), trace(shards)
		if a == "" {
			t.Fatalf("shards=%d: empty event trace", shards)
		}
		if a != b {
			t.Fatalf("shards=%d: same seed produced diverging event traces", shards)
		}
		if got := traceDigest(a); got != golden {
			t.Fatalf("shards=%d: trace digest %s, want the golden %s", shards, got, golden)
		}
	}
}

func shardTraceOpts(t *testing.T, opts Options, golden string) {
	t.Helper()
	shardTraceSweep(t, golden, func(shards int) string {
		o := opts
		o.Shards = shards
		return clusterTrace(o, 5, 3)
	})
}

func TestShardTraceMatrixFIFO(t *testing.T) {
	shardTraceOpts(t, Options{N: 120, Seed: 7, Broadcast: BroadcastPlumtree},
		"19c4ea6c3ea64c529e51ab41d708b1ad06ef4947f4fe079863b7183b243c451d")
}

func TestShardTraceMatrixFlood(t *testing.T) {
	shardTraceOpts(t, Options{N: 100, Seed: 11},
		"3c43341b964539c4aa95389117c26e588cc09479aeeb3f950544034cdb8695f6")
}

func TestShardTraceMatrixPeriodic(t *testing.T) {
	// Scheduler-driven shuffles exercise the periodic heap and the RunFor
	// wave loop (due rounds spliced into waves by (at, seq)).
	shardTraceOpts(t, Options{N: 100, Seed: 5, ShuffleInterval: 20, Broadcast: BroadcastPlumtree},
		"f6e16db1571b5be18e409c163e3ac98ca5b77695db172adc1616d23eda942f3e")
}

func TestShardTraceMatrixLatency(t *testing.T) {
	// Per-link delays scatter traffic across future time buckets; the merge
	// must draw every delay from the root stream in canonical order.
	shardTraceOpts(t, Options{
		N: 100, Seed: 9, Broadcast: BroadcastPlumtree,
		LatencyModel: netsim.NewEuclidean(9),
	}, "e76a56a66c68f2472ffe8ed9d7dc1460425dd22b6a01c0c08b517a11031cd293")
}

func TestShardTraceMatrixUnderFailures(t *testing.T) {
	// Failure notifications (OnPeerDown), parked timers and revives must all
	// sequence identically across shard counts.
	shardTraceSweep(t, "560a7e113b0906f3acfb0e629741942b0ab0be153d75f4413bac2727510d7927", func(shards int) string {
		c := NewCluster(HyParView, Options{
			N: 150, Seed: 13, Shards: shards, Broadcast: BroadcastPlumtree,
		})
		var b strings.Builder
		c.Sim.Tap = func(from, to id.ID, m msg.Message) {
			fmt.Fprintf(&b, "%d>%d:%d:%d@%d\n", from, to, m.Type, m.Round, c.Sim.Now())
		}
		c.Stabilize(5)
		c.FailFraction(0.3)
		c.MeasureBurst(2)
		victims := 0
		for _, nodeID := range c.IDs() {
			if !c.Sim.Alive(nodeID) {
				c.Sim.Revive(nodeID)
				victims++
				if victims == 10 {
					break
				}
			}
		}
		c.Stabilize(3)
		c.MeasureBurst(2)
		return b.String()
	})
}

// TestShardedClusterRaceSmoke is the full-stack companion to netsim's
// parallel-wave exerciser: the whole HyParView + Plumtree stack on the
// sharded engine with goroutine waves genuinely enabled (GOMAXPROCS raised
// before construction), under fault injection and mass failure. It exists
// for the CI -race step: the tracker mutex, the hook pre-pass and the
// barrier merge all get exercised with real concurrency.
func TestShardedClusterRaceSmoke(t *testing.T) {
	old := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(old)

	c := NewCluster(HyParView, Options{N: 600, Seed: 31, Shards: 4, Broadcast: BroadcastPlumtree})
	inj := c.InstallFaults(&faults.Injector{
		Default: faults.Profile{Drop: 0.02, Duplicate: 0.02, DupDelay: 2, Delay: 0.05, MaxDelay: 3},
	})
	c.Stabilize(5)
	if st := c.MeasureBurst(3); st.MeanReliability < 0.95 {
		t.Errorf("pre-failure reliability = %v, want >= 0.95 under light faults", st.MeanReliability)
	}
	c.FailFraction(0.5)
	c.MeasureBurst(3)
	if inj.Stats().Inspected == 0 {
		t.Error("injector idle during race smoke")
	}
}
