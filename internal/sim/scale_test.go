package sim

// Production-scale smoke: the ROADMAP's north star is simulating overlays at
// the scale PeerSim ran for the paper (§5 uses n=10,000) and beyond. The
// rewritten event engine — index-based node table, time-bucketed waves —
// makes an n=100,000 HyParView population practical; this test proves it
// end to end: build, stabilize, broadcast, full reliability.

import "testing"

func TestScale100kBroadcastReliability(t *testing.T) {
	if testing.Short() {
		t.Skip("100k-node scale smoke skipped in -short mode")
	}
	scaleSmoke(t, 100_000, 1)
}

// TestScale1MBroadcastReliability breaks the million-node barrier end to end
// on the sharded wave/barrier engine: build n=1,000,000, stabilize,
// broadcast, and demand full reliability. Expect several minutes and ~10 GB
// of heap; CI runs it in a dedicated non-short step.
func TestScale1MBroadcastReliability(t *testing.T) {
	if testing.Short() {
		t.Skip("1M-node scale smoke skipped in -short mode")
	}
	scaleSmoke(t, 1_000_000, 2)
}

func scaleSmoke(t *testing.T, n, shards int) {
	c := NewCluster(HyParView, Options{N: n, Seed: 1, Shards: shards})
	c.Stabilize(2)
	stats := c.MeasureBurst(2)
	if stats.MeanReliability != 1.0 {
		t.Fatalf("%d-node burst reliability = %v, want 1.0", n, stats.MeanReliability)
	}
	if stats.RMR < 0 {
		t.Errorf("RMR = %v, want >= 0", stats.RMR)
	}
	st := c.Sim.Stats()
	t.Logf("%d-node cluster (shards=%d): %d events delivered, %d bytes simulated wire traffic, RMR %.2f",
		n, shards, st.Delivered, st.BytesSent, stats.RMR)
}
