package main

import (
	"fmt"
	"time"

	"hyparview/internal/core"
	"hyparview/internal/id"
	"hyparview/internal/msg"
	"hyparview/internal/netsim"
	"hyparview/internal/plumtree"
	"hyparview/internal/sim"
)

// simPhases are the sim-massfail phases whose engine counters are reported.
var simPhases = []string{"build", "stabilize", "burst", "failover"}

// simSize is the shape of one simulated workload's run.
type simSize struct {
	Broadcast    sim.BroadcastProtocol
	N            int
	Setups       int // clusters built; set-up time is their median
	MinBurst     int // healthy broadcasts at least, however short --seconds is
	PostFail     int // broadcasts right after the 80% kill
	Recovery     int // broadcasts after Stabilize(10)
	StabilizeN   int // set-up membership rounds (paper: 50)
	RecoveryN    int // membership rounds between the kill and the recovery burst
	KillFraction float64
}

// simMassfail is the paper's headline: 10,000 nodes flooding.
var simMassfail = simSize{Broadcast: sim.BroadcastGossip, N: 10000, Setups: 3, MinBurst: 100, PostFail: 300, Recovery: 100, StabilizeN: 50, RecoveryN: 10, KillFraction: 0.8}

// simPlumtree runs the same experiment over Plumtree. Each Plumtree node
// keeps a fixed ~200 KiB round cache, so the cluster is smaller.
var simPlumtree = simSize{Broadcast: sim.BroadcastPlumtree, N: 1000, Setups: 3, MinBurst: 100, PostFail: 300, Recovery: 100, StabilizeN: 50, RecoveryN: 10, KillFraction: 0.8}

// smoke shrinks s to a self-test size.
func (s simSize) smoke() simSize {
	s.N, s.Setups, s.MinBurst, s.PostFail, s.Recovery, s.StabilizeN, s.RecoveryN = 200, 1, 20, 30, 10, 10, 5
	return s
}

// runSim is the paper's headline experiment on the simulator: a HyParView
// cluster with default engine options is joined one node at a time and
// stabilized, broadcasts a healthy burst for --seconds, loses 80% of its
// nodes, broadcasts again, and recovers.
func runSim(cfg config, size simSize) (*report, error) {
	if cfg.Smoke {
		size = size.smoke()
	}
	rep := newReport()
	origin := time.Now()
	var tr *tracer
	if cfg.Trace {
		tr = newTracer(origin, 400000)
		rep.Spans = tr
	}

	// Set-up: the kept cluster (built from --seed) comes last, so the others
	// are garbage before its heap is measured.
	var c *sim.Cluster
	var setupS, buildS, stabS []float64
	var heapPerNode float64
	var stBuild, stStab netsim.Stats
	var counter *msgCounter
	for i := 0; i < size.Setups; i++ {
		keep := i == size.Setups-1
		seed := cfg.Seed
		if !keep {
			seed = cfg.Seed ^ uint64(i+1)<<32
		}
		heap0 := liveHeap()
		_, endBuild := tr.phase(fmt.Sprintf("setup%d.build", i))
		t0 := time.Now()
		cl := sim.NewCluster(sim.HyParView, sim.Options{N: size.N, Seed: seed, Broadcast: size.Broadcast})
		t1 := time.Now()
		endBuild()
		s1 := cl.Sim.Stats()
		if keep && cfg.Trace {
			counter = newMsgCounter(simMsgKinds, 97, 4096)
			cl.Sim.Intercept = func(_ id.ID, m *msg.Message) (*msg.Message, bool) {
				counter.observe(m)
				return nil, true
			}
		}
		_, endStab := tr.phase(fmt.Sprintf("setup%d.stabilize", i))
		cl.Stabilize(size.StabilizeN)
		t2 := time.Now()
		endStab()
		cl.Sim.Intercept = nil
		buildS = append(buildS, t1.Sub(t0).Seconds())
		stabS = append(stabS, t2.Sub(t1).Seconds())
		setupS = append(setupS, t2.Sub(t0).Seconds())
		if keep {
			c = cl
			stBuild = s1
			stStab = sub(cl.Sim.Stats(), s1)
			heapPerNode = heapGrowth(heap0, liveHeap()) / float64(size.N)
		}
	}
	rep.E2E["setup_s"] = median(setupS)
	rep.E2E["heap_bytes_per_node"] = heapPerNode
	rep.Layer["sim.build_s"] = median(buildS)
	rep.Layer["sim.stabilize_s"] = median(stabS)
	rep.note("setup: %d clusters of %d nodes, build %v s, stabilize(%d) %v s", size.Setups, size.N, fmtList(buildS), size.StabilizeN, fmtList(stabS))

	// Delivery spans come from the intercept hook: the first payload copy
	// to reach a node is its delivery of that round. One traced broadcast a
	// second records them, which keeps a 10,000-node run's span file to a
	// few hundred thousand spans spread over every phase.
	var curSpan int
	var curRound uint64
	var spanDeliveries bool
	var lastDeliveries time.Time
	lastRound := make([]uint64, size.N+1)
	spanHook := func(node id.ID, m *msg.Message) (*msg.Message, bool) {
		counter.observe(m)
		if spanDeliveries && (m.Type == msg.Gossip || m.Type == msg.PlumtreeGossip) && lastRound[node] != m.Round {
			lastRound[node] = m.Round
			now := tr.ns(time.Now())
			tr.addNs(curSpan, m.Round, "sim.deliver", now, now)
		}
		return nil, true
	}
	// broadcast runs one Cluster.Broadcast; traced ones carry the hook and
	// a span, untraced ones run bare.
	broadcast := func(traced bool, phaseSpan int) (rel float64, dt time.Duration) {
		curRound++ // Cluster rounds are numbered 1, 2, 3, ... by its tracker
		if traced {
			c.Sim.Intercept = spanHook
		}
		t0 := time.Now()
		if traced {
			curSpan = tr.add(phaseSpan, curRound, "Cluster.Broadcast", t0, t0)
			spanDeliveries = t0.Sub(lastDeliveries) >= time.Second
			if spanDeliveries {
				lastDeliveries = t0
			}
		}
		rel = c.Broadcast()
		t1 := time.Now()
		if traced {
			if curSpan > 0 {
				tr.spans[curSpan-1].EndNs = tr.ns(t1)
			}
			c.Sim.Intercept = nil
		}
		return rel, t1.Sub(t0)
	}

	// Healthy burst: broadcasts back to back for --seconds. A traced run
	// alternates bare and traced broadcasts, which prices the tracing.
	burstSpan, endBurst := tr.phase("burst")
	d0, dup0, _, _ := c.CounterTotals()
	pt0 := plumtreeTotals(c)
	st0 := c.Sim.Stats()
	m0 := readMem()
	cpu0 := processCPU()
	start := time.Now()
	deadline := start.Add(time.Duration(cfg.Seconds) * time.Second)
	var wallMs, bareMs, tracedMs []float64
	var second []int64         // the second of the burst each broadcast started in
	var unhealthy, appDups int // broadcasts that missed a live node or reached one twice; duplicate deliveries
	// A traced run takes the runtime's counters from its bare broadcasts
	// only: tracing allocates.
	var bareMem memSample
	var bareEvents uint64
	for i := 0; i < size.MinBurst || time.Now().Before(deadline); i++ {
		traced := cfg.Trace && i%2 == 1
		second = append(second, int64(time.Since(start)/time.Second))
		var m0 memSample
		var e0 uint64
		if cfg.Trace && !traced {
			m0, e0 = readMem(), c.Sim.Stats().Delivered
		}
		rel, dt := broadcast(traced, burstSpan)
		if cfg.Trace && !traced {
			bareMem = bareMem.add(readMem().sub(m0))
			bareEvents += c.Sim.Stats().Delivered - e0
		}
		ms := float64(dt.Nanoseconds()) / 1e6
		wallMs = append(wallMs, ms)
		if traced {
			tracedMs = append(tracedMs, ms)
		} else {
			bareMs = append(bareMs, ms)
		}
		if rel != 1 {
			unhealthy++
		}
		if rel > 1 {
			appDups += int(rel*float64(c.Sim.AliveCount())+0.5) - c.Sim.AliveCount()
		}
	}
	elapsed := time.Since(start)
	cpu := processCPU().sub(cpu0)
	m1 := readMem()
	stBurst := sub(c.Sim.Stats(), st0)
	d1, dup1, _, _ := c.CounterTotals()
	pt := plumtreeTotals(c)
	endBurst()
	bursts := len(wallMs)
	if unhealthy > 0 {
		rep.problem("healthy burst: %d of %d broadcasts did not reach every live node exactly once (%d duplicate deliveries)", unhealthy, bursts, appDups)
	}
	p99, _ := windowedP99(second, wallMs, 10)
	lat := summarize(append([]float64(nil), wallMs...))
	rep.noteSummary("healthy burst wall time per Cluster.Broadcast (start to last delivery)", "ms", lat)
	rep.note("healthy burst p99: median over 1s windows %.4gms", p99)
	rep.E2E["deliver_p50_ms"] = lat.P50
	rep.Layer["bench.deliver_p99_ms"] = p99
	rep.E2E["max_rate_bcast_per_s"] = float64(bursts) / elapsed.Seconds()
	rep.E2E["cpu_ms_per_bcast"] = float64(cpu.total().Nanoseconds()) / 1e6 / float64(bursts)
	rep.Layer["sim.broadcast_ms_p50"] = lat.P50
	rep.Layer["sim.broadcast_ms_p99"] = lat.P99
	rep.Layer["gossip.dup_per_delivery"] = ratio(float64(dup1-dup0), float64(d1-d0))
	rep.Layer["gossip.app_duplicates"] = float64(appDups)
	rep.Layer["plumtree.ihaves"] = float64(pt.IHavesSent - pt0.IHavesSent)
	rep.Layer["plumtree.grafts"] = float64(pt.GraftsSent - pt0.GraftsSent)
	rep.Layer["plumtree.prunes"] = float64(pt.PrunesSent - pt0.PrunesSent)
	rep.Layer["plumtree.timer_fires"] = float64(pt.TimerFires - pt0.TimerFires)
	if cfg.Trace {
		runtimeLayer(rep.Layer, bareMem, cpu, float64(len(bareMs)), float64(bareEvents))
	} else {
		runtimeLayer(rep.Layer, m1.sub(m0), cpu, float64(bursts), float64(stBurst.Delivered))
	}
	rep.Layer["netsim.burst.events_per_bcast"] = ratio(float64(stBurst.Delivered), float64(bursts))
	rep.note("healthy burst: %d broadcasts in %.2fs, %d events, %.0f events/s", bursts, elapsed.Seconds(), stBurst.Delivered, float64(stBurst.Delivered)/elapsed.Seconds())
	if cfg.Trace {
		rep.Layer["bench.trace_overhead_pct"] = 100 * (median(tracedMs)/median(bareMs) - 1)
	} else {
		rep.Layer["bench.trace_overhead_pct"] = 0
	}

	// Mass failure: kill 80%, then an immediate burst (paper Fig. 2).
	failSpan, endFail := tr.phase("failover")
	_, _, _, sf0 := c.CounterTotals()
	st0 = c.Sim.Stats()
	killed := c.FailFraction(size.KillFraction)
	failStart := time.Now()
	var relSum float64
	for i := 0; i < size.PostFail; i++ {
		rel, _ := broadcast(cfg.Trace && i%8 == 0, failSpan)
		relSum += rel
	}
	failElapsed := time.Since(failStart)
	stFail := sub(c.Sim.Stats(), st0)
	_, _, _, sf1 := c.CounterTotals()
	endFail()
	postFail := relSum / float64(size.PostFail)
	rep.E2E["reliability_post_fail"] = postFail
	rep.Layer["gossip.send_fails"] = float64(sf1 - sf0)
	rep.Layer["netsim.failover.events_per_bcast"] = ratio(float64(stFail.Delivered), float64(size.PostFail))
	rep.Layer["netsim.failover.dropped"] = float64(stFail.Dropped)
	rep.Layer["netsim.failover.send_failures"] = float64(stFail.SendFailures)
	rep.Layer["netsim.failover.overflowed"] = float64(stFail.Overflowed)
	rep.note("failover: killed %d of %d nodes, mean reliability of the next %d broadcasts %.4f", killed, size.N, size.PostFail, postFail)

	// Recovery: a few membership rounds heal the overlay.
	recSpan, endRec := tr.phase("recovery")
	c.Stabilize(size.RecoveryN)
	relSum = 0
	for i := 0; i < size.Recovery; i++ {
		rel, _ := broadcast(cfg.Trace && i%8 == 0, recSpan)
		relSum += rel
	}
	endRec()
	rep.note("recovery: after Stabilize(%d), mean reliability of %d broadcasts %.4f", size.RecoveryN, size.Recovery, relSum/float64(size.Recovery))

	// Operations are broadcasts; a healthy-burst broadcast that missed a
	// live node (or reached one twice) is a failed one. Missed deliveries
	// after the kill are the measured reliability, not failures.
	rep.Attempted = int64(bursts + size.PostFail + size.Recovery)
	rep.Failed = int64(unhealthy)

	for ph, st := range map[string]netsim.Stats{"build": stBuild, "stabilize": stStab, "burst": stBurst, "failover": stFail} {
		rep.Layer["netsim."+ph+".events"] = float64(st.Delivered)
		rep.Layer["netsim."+ph+".sent"] = float64(st.Sent)
		rep.Layer["netsim."+ph+".bytes_sent"] = float64(st.BytesSent)
	}
	rep.Layer["netsim.build.ns_per_event"] = ratio(buildS[len(buildS)-1]*1e9, float64(stBuild.Delivered))
	rep.Layer["netsim.stabilize.ns_per_event"] = ratio(stabS[len(stabS)-1]*1e9, float64(stStab.Delivered))
	rep.Layer["netsim.burst.ns_per_event"] = ratio(float64(elapsed.Nanoseconds()), float64(stBurst.Delivered))
	rep.Layer["netsim.failover.ns_per_event"] = ratio(float64(failElapsed.Nanoseconds()), float64(stFail.Delivered))
	fillCoreSim(rep.Layer, c)

	// Layers this workload bypasses.
	for _, k := range []string{
		"transport.agent_call_us_p50", "transport.agent_call_us_p99", "transport.frames_per_bcast",
		"transport.frames_per_write", "transport.frames_per_read", "transport.overflowed",
		"transport.redials", "transport.suspected", "transport.dial_races_lost",
		"transport.rx_bytes_per_delivery", "core.view_churn_per_s", "bench.gen_lag_p99_ms",
	} {
		rep.Layer[k] = 0
	}
	zeroKinds(rep.Layer, "transport.rx_frames.", rxMsgKinds)
	rep.Layer["bench.delivery_fail_ratio"] = ratio(float64(rep.Failed), float64(rep.Attempted))
	if counter != nil {
		_, sample := counter.fill(rep.Layer, "netsim.msgs.")
		enc, dec, err := codecTiming(sample, 200*time.Millisecond)
		if err != nil {
			rep.problem("codec: %v", err)
		}
		rep.Layer["msg.encode_ns"], rep.Layer["msg.decode_ns"] = enc, dec
		rep.note("codec timed over %d captured messages", len(sample))
	} else {
		zeroKinds(rep.Layer, "netsim.msgs.", simMsgKinds)
		rep.Layer["msg.encode_ns"], rep.Layer["msg.decode_ns"] = 0, 0
	}
	return rep, nil
}

func sub(a, b netsim.Stats) netsim.Stats {
	return netsim.Stats{
		Sent:         a.Sent - b.Sent,
		Delivered:    a.Delivered - b.Delivered,
		Dropped:      a.Dropped - b.Dropped,
		SendFailures: a.SendFailures - b.SendFailures,
		Overflowed:   a.Overflowed - b.Overflowed,
		FaultDropped: a.FaultDropped - b.FaultDropped,
		Redelivered:  a.Redelivered - b.Redelivered,
		BytesSent:    a.BytesSent - b.BytesSent,
	}
}

// plumtreeTotals sums the Plumtree control counters over every node; zero
// on a flood cluster.
func plumtreeTotals(c *sim.Cluster) plumtree.ControlStats {
	var t plumtree.ControlStats
	for _, nodeID := range c.IDs() {
		if n, ok := c.Gossiper(nodeID).(*plumtree.Node); ok {
			s := n.Control()
			t.IHavesSent += s.IHavesSent
			t.GraftsSent += s.GraftsSent
			t.PrunesSent += s.PrunesSent
			t.TimerFires += s.TimerFires
		}
	}
	return t
}

// fillCoreSim sums the HyParView counters over every node, dead or alive.
func fillCoreSim(layer map[string]float64, c *sim.Cluster) {
	var total core.Stats
	for _, nodeID := range c.IDs() {
		if n, ok := c.Membership(nodeID).(*core.Node); ok {
			addCore(&total, n.Stats())
		}
	}
	fillCore(layer, total)
}

func addCore(t *core.Stats, s core.Stats) {
	t.ShufflesInitiated += s.ShufflesInitiated
	t.ForwardJoins += s.ForwardJoins
	t.NeighborRequests += s.NeighborRequests
	t.NeighborRejects += s.NeighborRejects
	t.Promotions += s.Promotions
	t.PeerFailures += s.PeerFailures
}

func fillCore(layer map[string]float64, s core.Stats) {
	layer["core.shuffles"] = float64(s.ShufflesInitiated)
	layer["core.forward_joins"] = float64(s.ForwardJoins)
	layer["core.neighbor_requests"] = float64(s.NeighborRequests)
	layer["core.neighbor_rejects"] = float64(s.NeighborRejects)
	layer["core.promotions"] = float64(s.Promotions)
	layer["core.peer_failures"] = float64(s.PeerFailures)
}

func fmtList(xs []float64) string {
	out := "["
	for i, x := range xs {
		if i > 0 {
			out += " "
		}
		out += fmt.Sprintf("%.3f", x)
	}
	return out + "]"
}
