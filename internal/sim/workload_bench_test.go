package sim

// BenchmarkPubSub10k is the pub/sub companion to BenchmarkCluster10k: the
// full HyParView + flood + pubsub.Router stack at n=10k under the Zipfian
// workload's subscription tables, publish-side batching enabled. One
// iteration replays a fixed slice of the publish schedule (paced, flushed and
// drained), so the measured loop covers Publish batching, topic-tagged
// dissemination, batch-frame unpacking and per-subscriber dispatch. It
// reports simulator events/sec — the unit benchdelta tracks against
// BENCH_workload.json. Run with:
//
//	go test ./internal/sim/ -run '^$' -bench BenchmarkPubSub10k -benchtime 5x

import (
	"encoding/binary"
	"runtime"
	"sync/atomic"
	"testing"

	"hyparview/internal/pubsub"
	"hyparview/internal/workload"
)

func BenchmarkPubSub10k(b *testing.B) {
	const (
		n       = 10_000
		perIter = 64 // publish events replayed per benchmark iteration
		rate    = 8  // publishes per virtual tick
	)
	opts := Options{
		N:    n,
		Seed: 1,
		PubSub: &pubsub.Config{
			MaxBatch:      16,
			MaxBatchBytes: 4096,
			FlushInterval: 20,
		},
	}
	c := NewCluster(HyParView, opts)
	c.Stabilize(2)
	w := workload.New(workload.Config{Seed: 1, Nodes: n})
	// Shards dispatch to subscribers concurrently.
	var delivered atomic.Uint64
	handler := func(uint32, []byte, int) { delivered.Add(1) }
	for i, nodeID := range c.ids {
		r := c.Router(nodeID)
		for _, topic := range w.Subscriptions(i) {
			if err := r.Subscribe(topic, handler); err != nil {
				b.Fatal(err)
			}
		}
	}
	// One reusable payload: the batched Publish path copies the bytes into
	// the pending frame before returning, so mutating it between calls never
	// touches a frozen frame.
	payload := make([]byte, w.PayloadBytes())
	// Warm one slice of the schedule so lazily-grown state (seen caches,
	// batch frames, tracker slots) reaches steady state before measurement.
	replay := func() {
		for i := 0; i < perIter; i++ {
			ev := w.Next()
			binary.BigEndian.PutUint64(payload, c.Sim.Now())
			if err := c.Router(c.ids[ev.Node]).Publish(ev.Topic, payload); err != nil {
				b.Fatal(err)
			}
			if (i+1)%rate == 0 {
				c.Sim.RunFor(1)
			}
		}
		c.Sim.RunFor(20 + 1)
		c.Sim.Drain()
	}
	replay()
	if delivered.Load() == 0 {
		b.Fatal("warm-up replay delivered nothing")
	}
	runtime.GC()
	d0 := c.Sim.Stats().Delivered
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		replay()
	}
	b.StopTimer()
	events := float64(c.Sim.Stats().Delivered - d0)
	b.ReportMetric(events/b.Elapsed().Seconds(), "events/sec")
}
