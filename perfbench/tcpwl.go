package main

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"hyparview/internal/core"
	"hyparview/internal/id"
	"hyparview/internal/msg"
	"hyparview/internal/plumtree"
	"hyparview/internal/transport"
)

// tcpParams shapes one TCP workload.
type tcpParams struct {
	Mode    transport.BroadcastMode
	Agents  int
	Payload int // bytes per broadcast
	// Nominal is the open-loop rate of the measured phase, in broadcasts
	// per second: a quarter of the CPU-saturation rate measured on the
	// reference machine (see README.md).
	Nominal float64
	// LimitMs is the p99 delivery latency a ladder step must stay under.
	LimitMs float64
	// The max-rate ladder bisects the rates LadderLo×ladderStep^k for k in
	// [0, LadderRungs).
	LadderLo    float64
	LadderRungs int
	StepSeconds float64 // measured length of one ladder step
	PostFail    int     // broadcasts in the post-fail burst
	// NominalClusters is how many fresh overlays share the nominal phase.
	NominalClusters int
	// ExtraSetups are set-ups timed on top of the nominal clusters and the
	// ladder's: set-up time is the median of them all.
	ExtraSetups int
}

var tcpFlood = tcpParams{
	Mode: transport.BroadcastFlood, Agents: 16, Payload: 64,
	Nominal: 600, LimitMs: 25,
	LadderLo: 1500, LadderRungs: 40, StepSeconds: 1.5,
	PostFail: 100, NominalClusters: 4, ExtraSetups: 2,
}

var tcpPlumtree = tcpParams{
	Mode: transport.BroadcastPlumtree, Agents: 16, Payload: 1024,
	Nominal: 400, LimitMs: 1000,
	LadderLo: 500, LadderRungs: 32, StepSeconds: 1.5,
	PostFail: 100, NominalClusters: 4, ExtraSetups: 2,
}

const (
	// ladderStep is the ratio between neighbouring ladder rungs: finer
	// than the 25% bound of max_rate_bcast_per_s.
	ladderStep = 1.05
	// killShare is the share of agents closed before the post-fail burst;
	// the paper's 80% would leave 3 of 16 agents.
	killShare = 0.5
)

// smoke shrinks p to a self-test size.
func (p tcpParams) smoke() tcpParams {
	p.Agents = 4
	p.Nominal /= 10
	p.LadderLo /= 10
	p.LadderRungs = 4
	p.StepSeconds = 0.3
	p.PostFail = 10
	p.NominalClusters = 1
	p.ExtraSetups = 0
	return p
}

// Phase tags tell the payloads of one phase from stragglers of another.
const (
	tagWarm uint64 = 0x5741524d00000000 + iota
	tagNominal
	tagPostFail
	tagLadder
)

// tcpCluster is a set of loopback agents forming one overlay.
type tcpCluster struct {
	agents []*transport.Agent
	closed []bool
	sink   atomic.Pointer[phaseSink]
	churn  atomic.Int64 // NeighborUp + NeighborDown callbacks
	rxOn   atomic.Bool  // count received frames (traced runs)
	// asymmetric records that some active-view link was still one-sided
	// when the warm-up began.
	asymmetric bool
}

// phaseSink routes deliveries to the current phase's ledger: slot[agent]
// is the agent's ledger slot, -1 for an agent the phase does not expect.
type phaseSink struct {
	l    *ledger
	slot []int
}

func (cl *tcpCluster) deliver(agent int, payload []byte) {
	s := cl.sink.Load()
	if s == nil {
		return
	}
	if k := s.slot[agent]; k >= 0 {
		s.l.deliver(k, payload, time.Now())
	}
}

// startCluster starts p.Agents agents, joins them through the first one,
// and warms the overlay up with serial broadcasts that must each reach
// every agent: that opens the connections and lets Plumtree prune its tree
// before anything is measured.
//
// A non-nil rx counts the frames the agents receive while rxOn is set.
func startCluster(p tcpParams, seed uint64, rx *msgCounter) (*tcpCluster, error) {
	cl := &tcpCluster{closed: make([]bool, p.Agents)}
	var tcfg transport.Config
	if rx != nil {
		tcfg.Intercept = func(_ id.ID, m *msg.Message) (*msg.Message, bool) {
			if cl.rxOn.Load() {
				rx.observe(m)
			}
			return nil, true
		}
	}
	for i := 0; i < p.Agents; i++ {
		i := i
		a, err := transport.NewAgent("127.0.0.1:0", transport.AgentConfig{
			CyclePeriod:    time.Second,
			Seed:           seed<<8 + uint64(i) + 1,
			Broadcast:      p.Mode,
			Transport:      tcfg,
			OnDeliver:      func(b []byte) { cl.deliver(i, b) },
			OnNeighborUp:   func(id.ID) { cl.churn.Add(1) },
			OnNeighborDown: func(id.ID, core.DownReason) { cl.churn.Add(1) },
		})
		if err != nil {
			cl.close()
			return nil, fmt.Errorf("start agent %d: %w", i, err)
		}
		cl.agents = append(cl.agents, a)
	}
	for i, a := range cl.agents[1:] {
		if err := a.Join(cl.agents[0].Addr()); err != nil {
			cl.close()
			return nil, fmt.Errorf("join agent %d: %w", i+1, err)
		}
	}
	// Joins complete asynchronously: give every active-view link up to a
	// second to become known at both ends. Some overlays keep a one-sided
	// link for longer; the warm-up below still proves that every agent is
	// reachable.
	n := p.Agents
	settle := time.Now().Add(time.Second)
	for !cl.settled() && time.Now().Before(settle) {
		time.Sleep(2 * time.Millisecond)
	}
	cl.asymmetric = !cl.settled()
	// Warm-up: 2n serial broadcasts must each reach every agent. A
	// broadcast that misses one while views still settle is retried, a
	// bounded number of times and for at most ten seconds in all.
	warm, attempts := 2*n, 0
	giveUp := time.Now().Add(10 * time.Second)
	l := newLedger(n, 4*warm, p.Payload, tagWarm, time.Now(), func(uint64) int64 { return 0 }, false)
	cl.sink.Store(&phaseSink{l: l, slot: identitySlots(n)})
	defer cl.sink.Store(nil)
	for ok := 0; ok < warm; attempts++ {
		if attempts == 4*warm || time.Now().After(giveUp) {
			cl.close()
			return nil, fmt.Errorf("warm-up: only %d of %d broadcasts reached every agent", ok, attempts)
		}
		before := l.uniqueTotal()
		if err := cl.agents[attempts%n].Broadcast(makePayload(p.Payload, tagWarm, uint64(attempts), seed)); err != nil {
			cl.close()
			return nil, fmt.Errorf("warm-up broadcast: %w", err)
		}
		deadline := time.Now().Add(time.Second)
		for l.uniqueTotal() < before+int64(n) && time.Now().Before(deadline) {
			time.Sleep(100 * time.Microsecond)
		}
		if l.uniqueTotal() >= before+int64(n) {
			ok++
		}
	}
	return cl, nil
}

// settled reports whether every agent has a neighbor and every active-view
// link is symmetric.
func (cl *tcpCluster) settled() bool {
	views := make(map[id.ID]map[id.ID]bool, len(cl.agents))
	for _, a := range cl.agents {
		v := map[id.ID]bool{}
		for _, p := range a.ActiveView() {
			v[p] = true
		}
		if len(v) == 0 {
			return false
		}
		views[a.Self()] = v
	}
	for self, v := range views {
		for p := range v {
			if !views[p][self] {
				return false
			}
		}
	}
	return true
}

func identitySlots(n int) []int {
	s := make([]int, n)
	for i := range s {
		s[i] = i
	}
	return s
}

// close stops every agent still running, concurrently, and waits for all.
func (cl *tcpCluster) close() {
	var wg sync.WaitGroup
	for i, a := range cl.agents {
		if cl.closed[i] {
			continue
		}
		cl.closed[i] = true
		wg.Add(1)
		go func(a *transport.Agent) {
			defer wg.Done()
			_ = a.Close() // teardown errors do not change any measurement
		}(a)
	}
	wg.Wait()
}

// kill closes the agents in victims, concurrently.
func (cl *tcpCluster) kill(victims []int) {
	var wg sync.WaitGroup
	for _, i := range victims {
		cl.closed[i] = true
		wg.Add(1)
		go func(a *transport.Agent) {
			defer wg.Done()
			_ = a.Close() // a crash, as far as the survivors can tell
		}(cl.agents[i])
	}
	wg.Wait()
}

func (cl *tcpCluster) live() []int {
	var out []int
	for i := range cl.agents {
		if !cl.closed[i] {
			out = append(out, i)
		}
	}
	return out
}

// counters are the exported counters of one agent, or their sum or
// difference over several.
type counters struct {
	core  core.Stats
	bcast transport.BroadcastStats
	ptree plumtree.ControlStats
	tx    transport.Stats
}

// add adds a-b to c. With txOnly it leaves the protocol counters alone.
func (c *counters) add(a, b counters, txOnly bool) {
	c.tx.FramesSent += a.tx.FramesSent - b.tx.FramesSent
	c.tx.WriteCalls += a.tx.WriteCalls - b.tx.WriteCalls
	c.tx.ReadSyscalls += a.tx.ReadSyscalls - b.tx.ReadSyscalls
	c.tx.Overflowed += a.tx.Overflowed - b.tx.Overflowed
	c.tx.Redials += a.tx.Redials - b.tx.Redials
	c.tx.Suspected += a.tx.Suspected - b.tx.Suspected
	c.tx.DialRacesLost += a.tx.DialRacesLost - b.tx.DialRacesLost
	if txOnly {
		return
	}
	c.core.ShufflesInitiated += a.core.ShufflesInitiated - b.core.ShufflesInitiated
	c.core.ForwardJoins += a.core.ForwardJoins - b.core.ForwardJoins
	c.core.NeighborRequests += a.core.NeighborRequests - b.core.NeighborRequests
	c.core.NeighborRejects += a.core.NeighborRejects - b.core.NeighborRejects
	c.core.Promotions += a.core.Promotions - b.core.Promotions
	c.core.PeerFailures += a.core.PeerFailures - b.core.PeerFailures
	c.bcast.Delivered += a.bcast.Delivered - b.bcast.Delivered
	c.bcast.Duplicates += a.bcast.Duplicates - b.bcast.Duplicates
	c.bcast.SendFails += a.bcast.SendFails - b.bcast.SendFails
	c.ptree.IHavesSent += a.ptree.IHavesSent - b.ptree.IHavesSent
	c.ptree.GraftsSent += a.ptree.GraftsSent - b.ptree.GraftsSent
	c.ptree.PrunesSent += a.ptree.PrunesSent - b.ptree.PrunesSent
	c.ptree.TimerFires += a.ptree.TimerFires - b.ptree.TimerFires
}

// snapshot reads every agent's counters; running[i] reports whether agent
// i was running, so that its protocol counters could be read. Each read
// runs on the agent's actor goroutine, so it also orders every delivery
// callback that agent made before it ahead of the caller.
func (cl *tcpCluster) snapshot() (out []counters, running []bool) {
	out = make([]counters, len(cl.agents))
	running = make([]bool, len(cl.agents))
	for i, a := range cl.agents {
		out[i].tx = a.TransportStats()
		if cl.closed[i] {
			continue
		}
		running[i] = true
		out[i].core = a.Stats()
		out[i].bcast = a.BroadcastStats()
		out[i].ptree, _ = a.PlumtreeStats()
	}
	return out, running
}

// delta sums after-before over the agents: transport counters over every
// agent (they survive Close), the rest over agents running at both reads.
func delta(before, after []counters, ranBefore, ranAfter []bool) counters {
	var d counters
	for i := range after {
		d.add(after[i], before[i], !ranBefore[i] || !ranAfter[i])
	}
	return d
}

// phaseSpec is one open-loop phase on a running cluster.
type phaseSpec struct {
	Rate     float64
	Count    int
	Size     int
	Tag      uint64
	Seed     uint64
	Drain    time.Duration // how long to wait for stragglers after generation
	Deadline time.Time     // storm guard: hard wall-clock end of the phase
	// OnHalf, when set, runs on the generator goroutine just before the
	// broadcast at Count/2 (the traced run's switch to tracing).
	OnHalf func()
	Tracer *tracer // records Agent.Broadcast spans from Count/2 on
	// TraceBase is added to broadcast i's span trace id, i+1, to keep ids
	// unique across phases.
	TraceBase uint64
}

// p99Window is the length of the windows whose p99 latencies are reduced
// to their median (see ledger.windowP99).
const p99Window = 100 * time.Millisecond

// phaseResult is what one phase measured.
type phaseResult struct {
	Gen        genResult
	Tally      tally
	Lat        summary
	P99        float64   // median over p99Window windows of their p99 latency
	P99Windows []float64 // the windows' p99 latencies
	CPU        cpuTime
	CPUHalf    cpuTime   // CPU of the first half, up to the OnHalf switch
	MemHalf    memSample // runtime counters of the first half
	FramesHalf uint64    // frames the agents sent in the first half
	Mem        memSample // change in the runtime's allocation and GC counters
	Backlog    float64   // broadcasts not yet everywhere when generation ended
	Stormed    bool      // the storm guard closed the agents
	Elapsed    time.Duration
	Counters   counters
	Churn      int64
	Ledger     *ledger
}

// runPhase drives one open-loop phase from the running agents, in turn,
// and tallies its deliveries at the running agents.
func (cl *tcpCluster) runPhase(s phaseSpec) phaseResult {
	live := cl.live()
	slots := make([]int, len(cl.agents))
	for i := range slots {
		slots[i] = -1
	}
	for k, i := range live {
		slots[i] = k
	}
	payloads := make([][]byte, s.Count)
	for i := range payloads {
		payloads[i] = makePayload(s.Size, s.Tag, uint64(i), s.Seed)
	}
	start := time.Now().Add(5 * time.Millisecond)
	ol := newOpenLoop(start, s.Rate)
	l := newLedger(len(live), s.Count, s.Size, s.Tag, start, ol.dueNs, s.Tracer != nil)
	var res phaseResult
	res.Ledger = l
	before, ranBefore := cl.snapshot()
	churn0 := cl.churn.Load()
	cl.sink.Store(&phaseSink{l: l, slot: slots})

	// Storm guard: at the deadline, stop generating and close the agents,
	// which unblocks a generator stuck in Agent.Broadcast.
	stop := make(chan struct{})
	guardDone := make(chan struct{})
	var stormed atomic.Bool
	timer := time.AfterFunc(time.Until(s.Deadline), func() {
		defer close(guardDone)
		stormed.Store(true)
		close(stop)
		for _, i := range live {
			_ = cl.agents[i].Close() // the phase is over; its tally counts what arrived
		}
	})

	mem0 := readMem()
	cpu0 := processCPU()
	half := s.Count / 2
	bcastSpan := make([]int, s.Count)
	res.Gen = ol.run(wallClock{}, s.Count, s.Deadline, stop, func(i int) error {
		if i == half && s.OnHalf != nil {
			res.CPUHalf = processCPU().sub(cpu0)
			res.MemHalf = readMem().sub(mem0)
			for k, a := range cl.agents {
				res.FramesHalf += a.TransportStats().FramesSent - before[k].tx.FramesSent
			}
			s.OnHalf()
		}
		a := cl.agents[live[i%len(live)]]
		if s.Tracer == nil || i < half {
			return a.Broadcast(payloads[i])
		}
		t0 := time.Now()
		err := a.Broadcast(payloads[i])
		bcastSpan[i] = s.Tracer.add(0, s.TraceBase+uint64(i)+1, "Agent.Broadcast", t0, time.Now())
		return err
	})
	want := int64(res.Gen.Issued) * int64(len(live))
	res.Backlog = float64(want-l.uniqueTotal()) / float64(len(live))
	drainEnd := time.Now().Add(s.Drain)
	if drainEnd.After(s.Deadline) {
		drainEnd = s.Deadline
	}
	for l.uniqueTotal() < want && time.Now().Before(drainEnd) {
		time.Sleep(200 * time.Microsecond)
	}
	res.CPU = processCPU().sub(cpu0)
	res.Elapsed = time.Since(start)
	res.Mem = readMem().sub(mem0)

	if timer.Stop() {
		close(guardDone)
	}
	<-guardDone
	if stormed.Load() {
		res.Stormed = true
		for _, i := range live {
			cl.closed[i] = true
		}
	}
	// Detach the ledger, then pass a barrier through every agent (snapshot
	// runs on each actor goroutine): no delivery callback touches the
	// ledger after this.
	cl.sink.Store(nil)
	after, ranAfter := cl.snapshot()
	res.Counters = delta(before, after, ranBefore, ranAfter)
	res.Churn = cl.churn.Load() - churn0
	res.Tally = l.tally(res.Gen.Issued)
	res.Lat = summarize(l.latencies())
	res.P99, res.P99Windows = l.windowP99(p99Window)

	if s.Tracer != nil {
		for k := range l.slots {
			sl := &l.slots[k]
			for j, seq := range sl.seqs {
				if int(seq) < half {
					continue
				}
				due := s.Tracer.ns(start) + ol.dueNs(seq)
				s.Tracer.addNs(bcastSpan[seq], s.TraceBase+seq+1, fmt.Sprintf("deliver@agent%d", live[k]), due, s.Tracer.ns(start)+sl.at[j])
			}
		}
	}
	return res
}

// runTCP runs one TCP workload: a nominal-rate open-loop phase, a burst
// right after killing a share of the agents, then the max-rate ladder on
// fresh agents.
func runTCP(cfg config, p tcpParams) (*report, error) {
	if cfg.Smoke {
		p = p.smoke()
	}
	rep := newReport()
	var tr *tracer
	if cfg.Trace {
		tr = newTracer(time.Now(), 400000)
		rep.Spans = tr
	}
	var setups []float64

	// Nominal phase: --seconds split over NominalClusters fresh overlays, so
	// that no single random topology sets the numbers; their deliveries are
	// pooled. A traced run traces the second half of each.
	var rx *msgCounter
	if cfg.Trace {
		rx = newMsgCounter(rxMsgKinds, 31, 4096)
	}
	asymmetric := 0
	var parts []phaseResult
	var cl *tcpCluster
	defer func() {
		if cl != nil {
			cl.close()
		}
	}()
	count := int(p.Nominal * float64(cfg.Seconds) / float64(p.NominalClusters))
	for k := 0; k < p.NominalClusters; k++ {
		if cl != nil {
			cl.close()
		}
		var heap0 uint64
		if k == 0 {
			heap0 = liveHeap()
		}
		_, endSetup := tr.phase(fmt.Sprintf("nominal%d.setup", k))
		t0 := time.Now()
		var err error
		cl, err = startCluster(p, cfg.Seed<<4+uint64(k), rx)
		if err != nil {
			cl = nil
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
		endSetup()
		if cl.asymmetric {
			asymmetric++
		}
		if k == 0 {
			// Only the first overlay starts from a clean heap: timers of a
			// closed overlay keep some of its memory alive for a while.
			rep.E2E["heap_bytes_per_node"] = heapGrowth(heap0, liveHeap()) / float64(p.Agents)
		}
		_, endNominal := tr.phase(fmt.Sprintf("nominal%d", k))
		c := cl
		parts = append(parts, cl.runPhase(phaseSpec{
			Rate: p.Nominal, Count: count, Size: p.Payload, Tag: tagNominal, Seed: cfg.Seed,
			Drain:     2 * time.Second,
			Deadline:  time.Now().Add(time.Duration(cfg.Seconds)*time.Second + 10*time.Second),
			OnHalf:    func() { c.rxOn.Store(cfg.Trace) },
			Tracer:    tr,
			TraceBase: uint64(k) << 32,
		}))
		cl.rxOn.Store(false)
		endNominal()
	}
	nom := pool(parts)
	if nom.Stormed {
		rep.note("nominal phase: storm guard fired; agents closed, undelivered broadcasts count as failed")
	}
	t := nom.Tally
	rep.Attempted, rep.Failed = t.Expected, t.Failed()
	if t.Corrupt > 0 {
		rep.problem("nominal phase: %d corrupt payloads delivered", t.Corrupt)
	}
	rep.note("nominal: %d broadcasts offered at %.0f/s to %d agents (%d B payloads) on %d overlays: expected %d deliveries, unique %d, missing %d, duplicate %d, corrupt %d; delivery_fail_ratio %.3g",
		nom.Gen.Issued, p.Nominal, p.Agents, p.Payload, p.NominalClusters, t.Expected, t.Unique, t.Missing, t.Duplicates, t.Corrupt, t.FailRatio())
	rep.noteSummary("nominal delivery latency from due time", "ms", nom.Lat)
	rep.note("nominal p99 latency: median over %d windows of %v: %.4gms", len(nom.P99Windows), p99Window, nom.P99)
	lag := summarize(nom.Gen.LagMs)
	rep.noteSummary("nominal generator lag", "ms", lag)
	calls := summarize(nom.Gen.CallUs)
	rep.E2E["deliver_p50_ms"] = nom.Lat.P50
	rep.Layer["bench.deliver_p99_ms"] = nom.P99
	rep.E2E["cpu_ms_per_bcast"] = ratio(float64(nom.CPU.total().Nanoseconds())/1e6, float64(nom.Gen.Issued))
	fillTCPLayer(rep.Layer, p, nom, calls, lag)
	if cfg.Trace {
		half := p.NominalClusters * (count / 2)
		firstPer := ratio(float64(nom.CPUHalf.total()), float64(half))
		secondPer := ratio(float64(nom.CPU.total()-nom.CPUHalf.total()), float64(nom.Gen.Issued-half))
		// The second half's CPU includes the drain, so this slightly
		// overstates the tracing cost.
		rep.Layer["bench.trace_overhead_pct"] = 100 * (ratio(secondPer, firstPer) - 1)
		// The runtime's counters come from the untraced first halves:
		// tracing allocates.
		runtimeLayer(rep.Layer, nom.MemHalf, nom.CPUHalf, float64(half), float64(nom.FramesHalf))
		rxBytes, sample := rx.fill(rep.Layer, "transport.rx_frames.")
		rep.Layer["transport.rx_bytes_per_delivery"] = ratio(float64(rxBytes), float64(t.Unique)/2)
		enc, dec, err := codecTiming(sample, 200*time.Millisecond)
		if err != nil {
			rep.problem("codec: %v", err)
		}
		rep.Layer["msg.encode_ns"], rep.Layer["msg.decode_ns"] = enc, dec
		rep.note("codec timed over %d captured frames", len(sample))
	} else {
		rep.Layer["bench.trace_overhead_pct"] = 0
		rep.Layer["transport.rx_bytes_per_delivery"] = 0
		zeroKinds(rep.Layer, "transport.rx_frames.", rxMsgKinds)
		rep.Layer["msg.encode_ns"], rep.Layer["msg.decode_ns"] = 0, 0
	}

	// Post-fail burst: kill a seeded share of the agents, then broadcast
	// from the survivors straight away, before the overlay has repaired.
	_, endFail := tr.phase("failover")
	rng := rand.New(rand.NewSource(int64(cfg.Seed)))
	order := rng.Perm(p.Agents)
	victims := order[:int(math.Round(killShare*float64(p.Agents)))]
	cl.kill(victims)
	pf := cl.runPhase(phaseSpec{
		Rate: p.Nominal / 10, Count: p.PostFail, Size: p.Payload, Tag: tagPostFail, Seed: cfg.Seed,
		Drain:    3 * time.Second,
		Deadline: time.Now().Add(time.Duration(float64(p.PostFail)/(p.Nominal/10)*float64(time.Second)) + 10*time.Second),
	})
	endFail()
	cl.close()
	cl = nil
	rel := ratio(float64(pf.Tally.Unique), float64(pf.Tally.Expected))
	rep.E2E["reliability_post_fail"] = rel
	if pf.Tally.Corrupt > 0 {
		rep.problem("post-fail burst: %d corrupt payloads delivered", pf.Tally.Corrupt)
	}
	rep.note("post-fail: killed %d of %d agents; %d broadcasts at %.0f/s from survivors: reliability %.4f (missing %d, duplicate %d)",
		len(victims), p.Agents, pf.Gen.Issued, p.Nominal/10, rel, pf.Tally.Missing, pf.Tally.Duplicates)
	rep.Layer["core.peer_failures"] += float64(pf.Counters.core.PeerFailures)
	rep.Layer["core.promotions"] += float64(pf.Counters.core.Promotions)

	// Max-rate ladder: bisect the rung grid, each step on a fresh overlay.
	// A failed step is run once more on another overlay and the rung passes
	// if either run does, so that one rare failure well below the limit
	// does not halve the result.
	_, endLadder := tr.phase("ladder")
	rung := func(k int) float64 { return p.LadderLo * math.Pow(ladderStep, float64(k)) }
	drain := max(time.Second, time.Duration(2*p.LimitMs*float64(time.Millisecond)))
	step := func(k, attempt int) (bool, error) {
		rate := rung(k)
		t0 := time.Now()
		scl, err := startCluster(p, cfg.Seed<<8+uint64(k)<<1+uint64(attempt)+1, nil)
		if err != nil {
			return false, fmt.Errorf("ladder step at %.0f/s: %w", rate, err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		if scl.asymmetric {
			asymmetric++
		}
		res := scl.runPhase(phaseSpec{
			Rate: rate, Count: int(rate * p.StepSeconds), Size: p.Payload, Tag: tagLadder, Seed: cfg.Seed,
			Drain:    drain,
			Deadline: time.Now().Add(time.Duration(p.StepSeconds*float64(time.Second)) + drain + 500*time.Millisecond),
		})
		scl.close()
		ok, why := stepPasses(p, rate, res)
		rep.note("ladder %.0f/s: %s (windowed p99 %.3gms over %d deliveries; missing %d, duplicate %d of %d; backlog %.0f; lag p99 %.3gms)",
			rate, why, res.P99, res.Lat.N, res.Tally.Missing, res.Tally.Duplicates, res.Tally.Expected, res.Backlog, summarize(res.Gen.LagMs).P99)
		if res.Tally.Corrupt > 0 {
			rep.problem("ladder at %.0f/s: %d corrupt payloads delivered", rate, res.Tally.Corrupt)
		}
		return ok, nil
	}
	lo, hi := -1, p.LadderRungs
	for hi-lo > 1 {
		mid := (lo + hi) / 2
		ok, err := step(mid, 0)
		if err == nil && !ok {
			ok, err = step(mid, 1)
		}
		if err != nil {
			return nil, err
		}
		if ok {
			lo = mid
		} else {
			hi = mid
		}
	}
	endLadder()
	maxRate := 0.0
	if lo >= 0 {
		maxRate = rung(lo)
	} else {
		rep.note("ladder: even the lowest rung %.0f/s failed", rung(0))
	}
	rep.E2E["max_rate_bcast_per_s"] = maxRate
	for i := 0; i < p.ExtraSetups; i++ {
		t0 := time.Now()
		extra, err := startCluster(p, cfg.Seed+uint64(p.LadderRungs+i)+1, nil)
		if err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
		if extra.asymmetric {
			asymmetric++
		}
		extra.close()
	}
	rep.E2E["setup_s"] = median(setups)
	rep.note("setup: %d clusters of %d agents, %v s; %d kept a one-sided active-view link for over 1s", len(setups), p.Agents, fmtList(setups), asymmetric)

	for _, k := range []string{"sim.build_s", "sim.stabilize_s", "sim.broadcast_ms_p50", "sim.broadcast_ms_p99",
		"netsim.burst.events_per_bcast", "netsim.failover.events_per_bcast", "netsim.failover.dropped",
		"netsim.failover.send_failures", "netsim.failover.overflowed"} {
		rep.Layer[k] = 0
	}
	for _, ph := range simPhases {
		for _, m := range []string{"events", "sent", "bytes_sent", "ns_per_event"} {
			rep.Layer["netsim."+ph+"."+m] = 0
		}
	}
	zeroKinds(rep.Layer, "netsim.msgs.", simMsgKinds)
	return rep, nil
}

// stepPasses applies the max-rate conditions to one ladder step: p99
// delivery latency under the limit, no failed delivery, and no growing
// backlog — when generation ended, no more broadcasts were outstanding
// than one latency limit's worth of offered load.
func stepPasses(p tcpParams, rate float64, r phaseResult) (bool, string) {
	switch {
	case r.Stormed || r.Gen.Stopped:
		return false, "FAIL storm guard"
	case r.Tally.Failed() > 0:
		return false, "FAIL deliveries failed"
	case r.P99 >= p.LimitMs:
		return false, "FAIL p99 over limit"
	case r.Backlog > rate*p.LimitMs/1000:
		return false, "FAIL backlog growing"
	}
	return true, "pass"
}

// fillTCPLayer fills the per-layer metrics measured on the nominal phase.
func fillTCPLayer(layer map[string]float64, p tcpParams, nom phaseResult, calls, lag summary) {
	c := nom.Counters
	issued := float64(nom.Gen.Issued)
	fillCore(layer, c.core)
	layer["core.view_churn_per_s"] = ratio(float64(nom.Churn), nom.Elapsed.Seconds())
	layer["gossip.dup_per_delivery"] = ratio(float64(c.bcast.Duplicates), float64(c.bcast.Delivered))
	layer["gossip.send_fails"] = float64(c.bcast.SendFails)
	layer["gossip.app_duplicates"] = float64(nom.Tally.Duplicates)
	layer["plumtree.ihaves"] = float64(c.ptree.IHavesSent)
	layer["plumtree.grafts"] = float64(c.ptree.GraftsSent)
	layer["plumtree.prunes"] = float64(c.ptree.PrunesSent)
	layer["plumtree.timer_fires"] = float64(c.ptree.TimerFires)
	layer["transport.agent_call_us_p50"] = calls.P50
	layer["transport.agent_call_us_p99"] = calls.P99
	layer["transport.frames_per_bcast"] = ratio(float64(c.tx.FramesSent), issued)
	layer["transport.frames_per_write"] = ratio(float64(c.tx.FramesSent), float64(c.tx.WriteCalls))
	layer["transport.frames_per_read"] = ratio(float64(c.tx.FramesSent), float64(c.tx.ReadSyscalls))
	layer["transport.overflowed"] = float64(c.tx.Overflowed)
	layer["transport.redials"] = float64(c.tx.Redials)
	layer["transport.suspected"] = float64(c.tx.Suspected)
	layer["transport.dial_races_lost"] = float64(c.tx.DialRacesLost)
	runtimeLayer(layer, nom.Mem, nom.CPU, issued, float64(c.tx.FramesSent))
	layer["bench.gen_lag_p99_ms"] = lag.P99
	layer["bench.delivery_fail_ratio"] = nom.Tally.FailRatio()
}

// pool merges the results of phases run one after another at one rate:
// counts and times add up, latencies pool, and the windowed p99 is the
// median over every phase's windows.
func pool(parts []phaseResult) phaseResult {
	var out phaseResult
	var lats []float64
	for _, r := range parts {
		out.Gen.Issued += r.Gen.Issued
		out.Gen.Errors += r.Gen.Errors
		out.Gen.Stopped = out.Gen.Stopped || r.Gen.Stopped
		out.Gen.LagMs = append(out.Gen.LagMs, r.Gen.LagMs...)
		out.Gen.CallUs = append(out.Gen.CallUs, r.Gen.CallUs...)
		out.Tally.Expected += r.Tally.Expected
		out.Tally.Unique += r.Tally.Unique
		out.Tally.Missing += r.Tally.Missing
		out.Tally.Duplicates += r.Tally.Duplicates
		out.Tally.Corrupt += r.Tally.Corrupt
		out.Tally.Foreign += r.Tally.Foreign
		out.CPU.User += r.CPU.User
		out.CPU.Sys += r.CPU.Sys
		out.CPUHalf.User += r.CPUHalf.User
		out.CPUHalf.Sys += r.CPUHalf.Sys
		out.MemHalf = out.MemHalf.add(r.MemHalf)
		out.FramesHalf += r.FramesHalf
		out.Mem = out.Mem.add(r.Mem)
		out.Backlog = max(out.Backlog, r.Backlog)
		out.Stormed = out.Stormed || r.Stormed
		out.Elapsed += r.Elapsed
		out.Churn += r.Churn
		out.P99Windows = append(out.P99Windows, r.P99Windows...)
		out.Counters.add(r.Counters, counters{}, false)
		lats = append(lats, r.Ledger.latencies()...)
	}
	out.Lat = summarize(lats)
	out.P99 = median(out.P99Windows)
	if len(out.P99Windows) == 0 {
		out.P99 = out.Lat.P99
	}
	return out
}
