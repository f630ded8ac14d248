package sim

// Whole-stack allocation and aliasing pins for the copy-on-write message
// regime (see "Message ownership" in package peer): broadcast fan-out must
// share one payload buffer across every delivery, per-hop mutation must stay
// on struct copies, and the steady-state delivery path through the full
// HyParView + broadcast stack must allocate nothing.

import (
	"bytes"
	"runtime"
	"testing"
	"unsafe"

	"hyparview/internal/id"
	"hyparview/internal/msg"
)

// TestBroadcastSteadyStateZeroAlloc pins the acceptance criterion across the
// whole stack: one full-cluster broadcast — source Broadcast, every
// delivery, every forward, tracker accounting, drain — allocates nothing
// once warm. This subsumes the per-package pins: a regression in core's
// GossipTargets, netsim's dispatch, or the harness shows up here.
func TestBroadcastSteadyStateZeroAlloc(t *testing.T) {
	c := NewCluster(HyParView, Options{N: 300, Seed: 1})
	c.Stabilize(2)
	for i := 0; i < 3; i++ { // warm wave vectors, buckets, scratch buffers
		if rel := c.Broadcast(); rel != 1.0 {
			t.Fatalf("warm-up reliability %v, want 1.0", rel)
		}
	}
	allocs := testing.AllocsPerRun(50, func() {
		if rel := c.Broadcast(); rel != 1.0 {
			t.Fatal("reliability dropped during measurement")
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state full-stack broadcast allocates %.1f/op, want 0", allocs)
	}
}

// TestBroadcastSteadyStateZeroAllocPlumtree is the same pin over Plumtree:
// eager pushes, lazy IHAVEs, prune/graft control traffic and the tree
// convergence already behind it must all run allocation-free.
func TestBroadcastSteadyStateZeroAllocPlumtree(t *testing.T) {
	c := NewCluster(HyParView, Options{N: 300, Seed: 1, Broadcast: BroadcastPlumtree})
	c.Stabilize(2)
	for i := 0; i < 10; i++ { // converge the tree, then warm
		if rel := c.Broadcast(); rel != 1.0 {
			t.Fatalf("warm-up reliability %v, want 1.0", rel)
		}
	}
	allocs := testing.AllocsPerRun(50, func() {
		if rel := c.Broadcast(); rel != 1.0 {
			t.Fatal("reliability dropped during measurement")
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state plumtree broadcast allocates %.1f/op, want 0", allocs)
	}
}

// TestShardedBroadcastSteadyStateZeroAlloc extends the zero-alloc pin to
// several shards: once the wave vectors, output logs and buckets are warm, a
// full-cluster broadcast — wave formation, delivery, canonical merge — must
// allocate nothing. The pin holds at every P count: with more than one P, large waves run on
// the engine's persistent shard workers, and handing a wave to them must not
// allocate either. It covers an explicit 4-shard engine and the engine a
// zero Options selects.
func TestShardedBroadcastSteadyStateZeroAlloc(t *testing.T) {
	old := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(old)
	for _, procs := range []int{1, 2, runtime.NumCPU()} {
		runtime.GOMAXPROCS(procs) // before construction: the engine captures it
		for _, shards := range []int{4, 0} {
			for _, bcast := range []BroadcastProtocol{BroadcastGossip, BroadcastPlumtree} {
				c := NewCluster(HyParView, Options{N: 300, Seed: 1, Shards: shards, Broadcast: bcast})
				c.Stabilize(2)
				for i := 0; i < 10; i++ { // warm wave vectors, logs and scratch buffers
					if rel := c.Broadcast(); rel != 1.0 {
						t.Fatalf("procs=%d shards=%d broadcast=%d: warm-up reliability %v, want 1.0", procs, shards, bcast, rel)
					}
				}
				allocs := testing.AllocsPerRun(50, func() {
					if rel := c.Broadcast(); rel != 1.0 {
						t.Fatal("reliability dropped during measurement")
					}
				})
				if allocs != 0 {
					t.Errorf("procs=%d shards=%d broadcast=%d: steady-state broadcast allocates %.1f/op, want 0", procs, shards, bcast, allocs)
				}
			}
		}
	}
}

// TestShardedFootprintPerNode pins the sharded engine's memory budget: the
// marginal heap cost of a stabilized flood-broadcast cluster node — protocol
// state, engine slot, shard bucket storage, tracker accounting — must stay
// within the documented budget (see docs/EXPERIMENTS.md, "Breaking the
// million-node barrier"). The budget is deliberately loose (the measured
// figure is ~7 KiB/node); it exists to catch order-of-magnitude regressions
// such as a per-node goroutine, an unpooled per-wave allocation surviving
// drain, or an accidental O(n) structure per shard. Flood is the
// configuration the 1M-node claim is made for; Plumtree adds a fixed
// ~195 KiB/node delivered-round cache (Config.CacheWindow) on top, which is
// a protocol design constant, not an engine cost.
func TestShardedFootprintPerNode(t *testing.T) {
	const n = 20_000
	const budget = 16 << 10 // bytes per node

	measure := func() uint64 {
		var ms runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	before := measure()
	c := NewCluster(HyParView, Options{N: n, Seed: 1, Shards: 4})
	c.Stabilize(3)
	c.MeasureBurst(2)
	after := measure()
	runtime.KeepAlive(c)

	perNode := (after - before) / n
	t.Logf("sharded cluster footprint: %d bytes/node (%d nodes, %.1f MiB total)",
		perNode, n, float64(after-before)/(1<<20))
	if perNode > budget {
		t.Errorf("footprint = %d bytes/node, budget %d (order-of-magnitude guard)", perNode, budget)
	}
}

// TestPayloadFanOutSharesOneBuffer proves the copy-on-write half of the
// regime: every copy of a broadcast payload crossing the simulated wire
// aliases the source's single backing array (no Clone-style deep copies),
// and after the broadcast the buffer is byte-identical to what was sent —
// no layer mutated the shared bytes.
func TestPayloadFanOutSharesOneBuffer(t *testing.T) {
	c := NewCluster(HyParView, Options{N: 200, Seed: 1})
	c.Stabilize(2)

	payload := []byte("frozen-after-send payload")
	orig := append([]byte(nil), payload...)
	base := unsafe.SliceData(payload)

	copies, aliased := 0, 0
	c.Sim.Tap = func(_, _ id.ID, m msg.Message) {
		if m.Type != msg.Gossip || m.Payload == nil {
			return
		}
		copies++
		if unsafe.SliceData(m.Payload) == base {
			aliased++
		}
	}
	defer func() { c.Sim.Tap = nil }()

	round := c.Tracker.NextRound()
	c.Gossiper(c.IDs()[0]).Broadcast(round, payload)
	c.Sim.Drain()

	if delivered := c.Tracker.Delivered(round); delivered != 200 {
		t.Fatalf("delivered %d of 200", delivered)
	}
	if copies == 0 {
		t.Fatal("tap saw no payload traffic")
	}
	if aliased != copies {
		t.Fatalf("%d of %d wire copies aliased the original buffer; want all (zero-copy fan-out)", aliased, copies)
	}
	if !bytes.Equal(payload, orig) {
		t.Fatalf("shared payload mutated during dissemination: %q", payload)
	}
}

// TestHopMutationStaysOnStructCopy proves the write half of copy-on-write:
// forwarders increment Hops on their own struct copy, so observed hop counts
// rise along paths while every copy keeps sharing the one payload buffer —
// one node's mutation is never visible through another's copy.
func TestHopMutationStaysOnStructCopy(t *testing.T) {
	c := NewCluster(HyParView, Options{N: 200, Seed: 1})
	c.Stabilize(2)

	hopsSeen := map[uint16]int{}
	c.Sim.Tap = func(_, _ id.ID, m msg.Message) {
		if m.Type == msg.Gossip && m.Payload != nil {
			hopsSeen[m.Hops]++
		}
	}
	defer func() { c.Sim.Tap = nil }()

	round := c.Tracker.NextRound()
	c.Gossiper(c.IDs()[0]).Broadcast(round, []byte("x"))
	c.Sim.Drain()

	if len(hopsSeen) < 2 {
		t.Fatalf("expected multiple distinct hop counts on the wire, saw %v", hopsSeen)
	}
	// Hop counts must start at 0 (source's own sends); if a forwarder's
	// increment leaked into a shared struct, the source-adjacent copies
	// would show inflated hops.
	if hopsSeen[0] == 0 {
		t.Fatalf("no zero-hop copies observed: %v", hopsSeen)
	}
}

// TestShuffleListFrozenInFlight proves relayed SHUFFLE walks share the
// origin's Nodes list without mutating it: TTL decrements happen on struct
// copies while every relay carries the identical identifier list.
func TestShuffleListFrozenInFlight(t *testing.T) {
	c := NewCluster(HyParView, Options{N: 100, Seed: 1})
	c.Stabilize(2)

	type shuffleObs struct {
		ttl   uint8
		nodes []id.ID
		data  *id.ID
	}
	var walks map[id.ID][]shuffleObs // keyed by walk origin (Subject)
	c.Sim.Tap = func(_, _ id.ID, m msg.Message) {
		if m.Type != msg.Shuffle || m.Nodes == nil {
			return
		}
		walks[m.Subject] = append(walks[m.Subject], shuffleObs{
			ttl:   m.TTL,
			nodes: append([]id.ID(nil), m.Nodes...),
			data:  unsafe.SliceData(m.Nodes),
		})
	}
	defer func() { c.Sim.Tap = nil }()

	walks = make(map[id.ID][]shuffleObs)
	c.Sim.RunCycle() // every node initiates one shuffle

	relayed := 0
	for origin, obs := range walks {
		first := obs[0]
		for _, o := range obs[1:] {
			relayed++
			if o.data != first.data {
				t.Fatalf("walk from %v re-allocated its Nodes list mid-flight (copy instead of share)", origin)
			}
			if o.ttl >= first.ttl {
				t.Fatalf("walk from %v: TTL did not decrease along the relay (%d -> %d)", origin, first.ttl, o.ttl)
			}
			if len(o.nodes) != len(first.nodes) {
				t.Fatalf("walk from %v: Nodes list changed length in flight", origin)
			}
			for i := range o.nodes {
				if o.nodes[i] != first.nodes[i] {
					t.Fatalf("walk from %v: shared Nodes list mutated in flight at %d", origin, i)
				}
			}
		}
	}
	if relayed == 0 {
		t.Skip("no shuffle walk was relayed this cycle; topology too small")
	}
}
