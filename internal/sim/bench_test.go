package sim

// Full-stack cluster benchmarks: the companion to internal/netsim's
// BenchmarkEngine pair. Where the engine benchmarks isolate wave formation and
// dispatch with a protocol-free forwarding ring, these run the complete
// HyParView + broadcast stack — membership views, gossip dedup caches, the
// delivery tracker — so the gap between raw engine throughput and protocol
// throughput is measured, tracked in BENCH_sim.json, and cannot silently
// regress. One iteration is one broadcast delivered to the whole live
// population plus all reactive protocol traffic it triggers; the benchmark
// reports protocol events/sec (simulator deliveries, the same unit as
// BenchmarkEngine) and the steady-state allocations per full-cluster
// broadcast. BenchmarkCluster10k/100k measure the engine a zero
// Options.Shards selects — what users run; BenchmarkCluster1M compares
// shard counts explicitly. Run with:
//
//	go test ./internal/sim/ -run '^$' -bench BenchmarkCluster -benchtime 20x

import (
	"fmt"
	"runtime"
	"testing"
)

func benchCluster(b *testing.B, n int) { benchClusterSharded(b, n, 0) }

func benchClusterSharded(b *testing.B, n, shards int) {
	before := heapInUse()
	c := NewCluster(HyParView, Options{N: n, Seed: 1, Shards: shards})
	c.Stabilize(2)
	// Warm a few broadcasts so lazily-grown state (tracker slots, per-node
	// seen caches, the sharded engine's wave/output vectors — successive
	// broadcasts differ slightly in shape, so capacities ratchet for a few
	// rounds) reaches steady state before measurement.
	for i := 0; i < 3; i++ {
		if rel := c.Broadcast(); rel != 1.0 {
			b.Fatalf("warm-up broadcast reliability = %v, want 1.0", rel)
		}
	}
	// The build phase allocates heavily; collect before measuring so a GC
	// cycle triggered by construction garbage does not land inside the
	// (allocation-free) measured loop.
	runtime.GC()
	d0 := c.Sim.Stats().Delivered
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if rel := c.Broadcast(); rel != 1.0 {
			b.Fatalf("broadcast %d reliability = %v, want 1.0", i, rel)
		}
	}
	b.StopTimer()
	events := float64(c.Sim.Stats().Delivered - d0)
	b.ReportMetric(events/b.Elapsed().Seconds(), "events/sec")
	// Marginal heap per node for the whole stack (engine slot, shard
	// vectors, protocol state, tracker) — the memory half of the
	// million-node claim, pinned against a budget in alloc_test.go.
	b.ReportMetric(float64(heapInUse()-before)/float64(n), "bytes/node")
	runtime.KeepAlive(c)
}

// heapInUse returns the live heap after a forced collection.
func heapInUse() uint64 {
	var ms runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

func BenchmarkCluster10k(b *testing.B) { benchCluster(b, 10_000) }

func BenchmarkCluster100k(b *testing.B) {
	if testing.Short() {
		b.Skip("100k-node full-stack benchmark skipped in -short mode")
	}
	benchCluster(b, 100_000)
}

// BenchmarkCluster1M is the million-node barrier benchmark: the complete
// HyParView + flood stack at n=1,000,000, at one, two and four shards. One
// iteration is one full-population broadcast (~5M protocol events); each run
// also reports the marginal bytes/node of the built cluster. Expect minutes per sub-benchmark
// (the build alone walks one million one-by-one joins); run with
// -benchtime 3x and a generous -timeout.
func BenchmarkCluster1M(b *testing.B) {
	if testing.Short() {
		b.Skip("1M-node benchmark skipped in -short mode")
	}
	for _, shards := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			benchClusterSharded(b, 1_000_000, shards)
		})
	}
}
