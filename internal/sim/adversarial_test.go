package sim

import (
	"fmt"
	"strings"
	"testing"

	"hyparview/internal/faults"
	"hyparview/internal/id"
	"hyparview/internal/msg"
)

// The adversarial suite's regression pins: the envelope table holds at a CI
// scale, the partition-heal-mid-broadcast scenario converges with no phantom
// eager edges (the bug the suite originally surfaced), and fault injection
// preserves trace determinism.

func TestAdversarialEnvelopesHold(t *testing.T) {
	opts := Options{N: 300, Seed: 42}
	points, table := Adversarial(opts, 15)
	if len(points) != 8 {
		t.Fatalf("scenarios = %d, want 8", len(points))
	}
	classes := make(map[string]bool)
	for _, p := range points {
		if p.Class != "none" {
			classes[p.Class] = true
		}
		if !p.OK {
			t.Errorf("scenario %q outside its envelope: rel=%.4f final=%.4f floor=%.4f note=%q",
				p.Scenario, p.Rel, p.FinalRel, p.Floor, p.Note)
		}
	}
	if len(classes) < 4 {
		t.Errorf("distinct fault classes = %d, want >= 4 (got %v)", len(classes), classes)
	}
	if !AdversarialOK(points) {
		t.Error("AdversarialOK = false")
	}
	if s := table.String(); !strings.Contains(s, "kill-80pct") {
		t.Error("table missing the paper's headline scenario row")
	}
}

func TestAdversarialHeadlineAtPaperScale(t *testing.T) {
	// The paper's most hostile data point at full scale: 80% of 1000 nodes
	// crash at once, and broadcast reliability must recover to >= 0.99.
	if testing.Short() {
		t.Skip("full-scale envelope; run without -short")
	}
	p := advMassFailure(Options{N: 1000, Seed: 42}.withDefaults(), 25)
	if !p.OK {
		t.Errorf("kill-80pct at n=1000 outside envelope: final=%.4f floor=%.2f note=%q",
			p.FinalRel, p.Floor, p.Note)
	}
	if p.FinalRel < 0.99 {
		t.Errorf("final reliability = %.4f, want >= 0.99", p.FinalRel)
	}
}

func TestPartitionHealMidcastConverges(t *testing.T) {
	res := PartitionHealMidcast(Options{N: 300, Seed: 7},
		faults.AsymmetricPartition(40, 160, 0.20))
	// The cut must land genuinely mid-flight: some but not all nodes held
	// the payload when the partition landed.
	if res.DeliveredAtCut == 0 || res.DeliveredAtCut >= 300 {
		t.Errorf("delivered at cut = %d, want strictly mid-flight (0 < x < 300)", res.DeliveredAtCut)
	}
	if res.Reliability != 1.0 {
		t.Errorf("post-heal reliability = %.4f, want 1.0", res.Reliability)
	}
	if res.MinorityDelivered != res.MinoritySize {
		t.Errorf("minority delivered = %d/%d, want all", res.MinorityDelivered, res.MinoritySize)
	}
	if res.PhantomEagerEdges != 0 {
		t.Errorf("phantom eager edges = %d, want 0", res.PhantomEagerEdges)
	}
}

// injectedTrace records every delivered wire message of a faulted run.
func injectedTrace(opts Options, stabilize, msgs int) (string, faults.Stats) {
	c := NewCluster(HyParView, opts)
	inj := c.InstallFaults(&faults.Injector{
		Default: faults.Profile{Drop: 0.02, Duplicate: 0.02, DupDelay: 2, Delay: 0.10, MaxDelay: 3},
	})
	var b strings.Builder
	c.Sim.Tap = func(from, to id.ID, m msg.Message) {
		fmt.Fprintf(&b, "%d>%d:%d:%d@%d\n", from, to, m.Type, m.Round, c.Sim.Now())
	}
	c.Stabilize(stabilize)
	c.MeasureBurst(msgs)
	return b.String(), inj.Stats()
}

func TestInjectionPreservesTraceDeterminism(t *testing.T) {
	opts := Options{N: 120, Seed: 7, Broadcast: BroadcastPlumtree}
	a, sa := injectedTrace(opts, 5, 3)
	b, sb := injectedTrace(opts, 5, 3)
	if a == "" {
		t.Fatal("empty event trace")
	}
	if sa.Inspected == 0 || sa.Dropped == 0 {
		t.Fatalf("injector idle: %+v", sa)
	}
	if sa != sb {
		t.Fatalf("fault stats diverge under the same seed: %+v vs %+v", sa, sb)
	}
	if a != b {
		t.Fatal("same seed produced diverging traces under injection")
	}
	// And the faulted trace really differs from the clean one (the injector
	// is not a no-op).
	if clean := clusterTrace(opts, 5, 3); clean == a {
		t.Error("injected trace identical to clean trace")
	}
}

// TestInjectionTraceDeterminismShardMatrix extends the injection-determinism
// pin over the shard counts: at every shard count, same seed ⇒ identical
// fault stats and byte-identical traces, and every shard count gives the
// same trace. The hook pre-pass runs injector state in canonical order over
// whole waves, and waves do not depend on how many shards split them or on
// whether they are delivered in parallel.
func TestInjectionTraceDeterminismShardMatrix(t *testing.T) {
	ref := ""
	for _, shards := range shardMatrix {
		opts := Options{N: 120, Seed: 7, Shards: shards, Broadcast: BroadcastPlumtree}
		a, sa := injectedTrace(opts, 5, 3)
		b, sb := injectedTrace(opts, 5, 3)
		if a == "" {
			t.Fatalf("shards=%d: empty event trace", shards)
		}
		if sa.Inspected == 0 || sa.Dropped == 0 {
			t.Fatalf("shards=%d: injector idle: %+v", shards, sa)
		}
		if sa != sb {
			t.Fatalf("shards=%d: fault stats diverge under the same seed: %+v vs %+v", shards, sa, sb)
		}
		if a != b {
			t.Fatalf("shards=%d: same seed produced diverging traces under injection", shards)
		}
		if ref == "" {
			ref = a
		} else if a != ref {
			t.Fatalf("shards=%d: injected trace diverged from shards=%d", shards, shardMatrix[0])
		}
	}
}
