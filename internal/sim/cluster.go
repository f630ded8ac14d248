// Package sim is the experiment harness: it builds simulated clusters
// running one of the membership protocols under the gossip broadcast layer
// and reproduces every figure and table of the paper's evaluation (§5).
//
// Methodology (paper §5): the overlay is created by having nodes join one by
// one, without membership rounds in between; HyParView and Cyclon use a
// single contact node, SCAMP uses a random node already in the overlay. A
// stabilization period of 50 membership cycles follows. Failures are induced
// at random, and broadcast bursts are sent from random correct nodes with no
// periodic membership cycles in between — only reactive steps run.
package sim

import (
	"fmt"
	"sort"

	"hyparview/internal/core"
	"hyparview/internal/cyclon"
	"hyparview/internal/gossip"
	"hyparview/internal/graph"
	"hyparview/internal/id"
	"hyparview/internal/metrics"
	"hyparview/internal/netsim"
	"hyparview/internal/peer"
	"hyparview/internal/plumtree"
	"hyparview/internal/pubsub"
	"hyparview/internal/rng"
	"hyparview/internal/scamp"
	"hyparview/internal/xbot"
)

// Protocol selects the membership protocol under test.
type Protocol int

// The four protocols of the paper's evaluation.
const (
	HyParView Protocol = iota + 1
	Cyclon
	CyclonAcked
	Scamp
)

// String names the protocol as the paper does.
func (p Protocol) String() string {
	switch p {
	case HyParView:
		return "HyParView"
	case Cyclon:
		return "Cyclon"
	case CyclonAcked:
		return "CyclonAcked"
	case Scamp:
		return "Scamp"
	default:
		return fmt.Sprintf("Protocol(%d)", int(p))
	}
}

// AllProtocols lists the protocols in the paper's presentation order.
func AllProtocols() []Protocol {
	return []Protocol{HyParView, CyclonAcked, Cyclon, Scamp}
}

// BroadcastProtocol selects the broadcast layer a cluster runs on top of its
// membership protocol.
type BroadcastProtocol int

// The two broadcast layers.
const (
	// BroadcastGossip is the paper's evaluation broadcast: flooding for
	// HyParView, random fanout for the peer-sampling protocols.
	BroadcastGossip BroadcastProtocol = iota
	// BroadcastPlumtree runs the Plumtree epidemic broadcast tree (eager
	// push on tree links, lazy announcements elsewhere) over the membership
	// protocol.
	BroadcastPlumtree
)

// String names the broadcast protocol.
func (b BroadcastProtocol) String() string {
	switch b {
	case BroadcastGossip:
		return "gossip"
	case BroadcastPlumtree:
		return "plumtree"
	default:
		return fmt.Sprintf("BroadcastProtocol(%d)", int(b))
	}
}

// Optimizer selects an overlay optimization layer running alongside the
// membership protocol.
type Optimizer int

// The optimization layers.
const (
	// OptimizerNone leaves the overlay oblivious, as the paper builds it.
	OptimizerNone Optimizer = iota
	// OptimizerXBot runs the X-BOT 4-node coordinated swap protocol (SRDS
	// 2009) on every node, biasing active views toward low-cost links as
	// measured by the cluster's latency model. HyParView only.
	OptimizerXBot
)

// String names the optimizer.
func (o Optimizer) String() string {
	switch o {
	case OptimizerNone:
		return "none"
	case OptimizerXBot:
		return "xbot"
	default:
		return fmt.Sprintf("Optimizer(%d)", int(o))
	}
}

// Options configures a cluster build.
type Options struct {
	// N is the cluster size (paper: 10,000).
	N int
	// Seed drives all randomness of the run.
	Seed uint64
	// Shards is the number of shards the simulator's wave/barrier engine
	// (netsim.NewSharded) partitions the node table into; large event waves
	// are delivered in parallel across them. Zero (or less) takes
	// DefaultShards; 1 delivers everything on the calling goroutine. The
	// shard count never changes a run: the same Seed gives a byte-identical
	// trace at every count, fault injection included. With more than one
	// shard, delivery callbacks (pub/sub handlers included) may run
	// concurrently from shard workers and must guard state they share.
	Shards int
	// Fanout is the gossip fan-out for the peer-sampling protocols
	// (paper §5.1: 4). HyParView floods and ignores it.
	Fanout int
	// Broadcast selects the broadcast layer: the paper's flood/fanout
	// gossip (default) or Plumtree epidemic broadcast trees.
	Broadcast BroadcastProtocol
	// Plumtree overrides Plumtree parameters when Broadcast is
	// BroadcastPlumtree; zero fields take the protocol's defaults. Over
	// HyParView and CyclonAcked the cluster forces ReportPeerDown on
	// (broadcast doubles as their failure detector, as in gossip mode).
	Plumtree plumtree.Config
	// HyParView, Cyclon and Scamp override protocol parameters; zero fields
	// take the paper's defaults.
	HyParView core.Config
	Cyclon    cyclon.Config
	Scamp     scamp.Config
	// ConfigureHyParView, when set, customizes the HyParView configuration
	// per node (by join index): the hook behind the heterogeneous-degree
	// extension experiment (paper §6 future work).
	ConfigureHyParView func(i int, cfg core.Config) core.Config
	// Latency, when set, installs a raw virtual-time latency function on the
	// simulator (see netsim.Sim.Latency). The paper's experiments measure
	// hops and run in the default FIFO mode. Prefer LatencyModel, which also
	// provides the cost oracle and per-link metrics; when both are set the
	// explicit function wins for message timing.
	Latency func(from, to id.ID, r *rng.Rand) uint64
	// LatencyModel, when set, switches the simulator to event-driven virtual
	// time with the model's per-link delays, enables virtual-time delivery
	// latency in MeasureBurst and per-link cost metrics, and serves as the
	// cost oracle for Optimizer layers.
	LatencyModel netsim.LatencyModel
	// Optimizer runs an overlay optimization layer on every node. X-BOT
	// needs HyParView's symmetric reciprocal views: HyParView clusters run
	// it, the peer-sampling baselines ignore the option so protocol-sweep
	// experiments stay runnable under one option set. When no LatencyModel
	// is set, a Euclidean model seeded with Seed is installed so the
	// optimizer has a non-trivial cost surface.
	Optimizer Optimizer
	// XBot overrides X-BOT parameters when Optimizer is OptimizerXBot; zero
	// fields take the protocol's defaults.
	XBot xbot.Config
	// Oracle overrides the optimizer's link-cost source. Default: the
	// cluster's LatencyModel, so optimization minimizes exactly what the
	// simulated network charges; a custom oracle decouples the two (e.g. a
	// monetary cost surface over a latency-simulated network, or running
	// the optimizer in FIFO mode with no latency model at all).
	Oracle xbot.Oracle
	// StabilizationCycles is used by Stabilize callers that take the
	// default (paper: 50).
	StabilizationCycles int

	// PubSub, when set, wraps every node's broadcaster in a pubsub.Router
	// built from this configuration. A nil NextRound defaults to a per-node
	// allocator (see nodeRounds); a nil Fallback defaults to the cluster's
	// delivery callback so untagged broadcast measurements keep working
	// through the wrapped stack. Per-node routers are reachable via
	// Cluster.Router.
	PubSub *pubsub.Config

	// ShuffleInterval, when non-zero, switches HyParView clusters to the
	// paper-faithful periodic mode: every node schedules its own shuffle
	// round each ShuffleInterval virtual ticks (core.Config.ShuffleInterval)
	// and the X-BOT optimizer, when enabled, derives its attempt cadence
	// from the same clock (ShuffleInterval × XBot.Period). Stabilize then
	// advances virtual time with Sim.RunFor instead of driving external
	// RunCycle calls, so membership rounds interleave with in-flight traffic
	// in timestamp order. Zero keeps the cycle-driven mode; the
	// peer-sampling baselines (Cyclon, Scamp) are always cycle-driven.
	ShuffleInterval uint64
}

// DefaultShards is the shard count a zero Options.Shards selects. It is the
// measured choice: on a two-core host four shards were no faster than two
// and cost more memory (see docs/EXPERIMENTS.md, "The default engine").
const DefaultShards = 2

// withDefaults fills unset options.
func (o Options) withDefaults() Options {
	if o.N == 0 {
		o.N = 1000
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.Fanout == 0 {
		o.Fanout = 4
	}
	if o.Shards <= 0 {
		o.Shards = DefaultShards
	}
	if o.StabilizationCycles == 0 {
		o.StabilizationCycles = 50
	}
	if o.Optimizer != OptimizerNone && o.LatencyModel == nil && o.Oracle == nil {
		o.LatencyModel = netsim.NewEuclidean(o.Seed)
	}
	return o
}

// Cluster is a simulated population of nodes running one membership protocol
// under the gossip broadcast layer.
type Cluster struct {
	Protocol Protocol
	Opts     Options
	Sim      *netsim.Sim
	Tracker  *gossip.Tracker

	ids        []id.ID
	gossipers  map[id.ID]gossip.Broadcaster
	membership map[id.ID]peer.Membership
	routers    map[id.ID]*pubsub.Router

	// Virtual-time delivery tracking: per in-flight round, the clock at
	// broadcast time and, per shard, the delivery-latency aggregate. Only
	// populated when the simulator runs in latency mode.
	timed      bool
	roundStart map[uint64]uint64
	roundLat   []map[uint64]*latencyAgg

	// delivers holds one Delivery callback per simulator shard. Shards
	// deliver concurrently, so each callback writes only its own stripe of
	// the tracker and of roundLat: no lock on the delivery path.
	delivers []func(round uint64, topic uint32, payload []byte, hops int)
}

// latencyAgg collects the virtual-time latency of every delivery of one
// round; max/mean/percentiles all derive from the samples at endRound.
type latencyAgg struct {
	samples []float64
}

// NewCluster builds a cluster of opts.N nodes running proto, joined one by
// one per the paper's methodology, with all join traffic fully processed.
func NewCluster(proto Protocol, opts Options) *Cluster {
	opts = opts.withDefaults()
	c := &Cluster{
		Protocol:   proto,
		Opts:       opts,
		Sim:        netsim.NewSharded(opts.Seed, opts.Shards),
		gossipers:  make(map[id.ID]gossip.Broadcaster, opts.N),
		membership: make(map[id.ID]peer.Membership, opts.N),
		routers:    make(map[id.ID]*pubsub.Router),
		roundStart: make(map[uint64]uint64),
	}
	shards := c.Sim.Shards()
	c.Tracker = gossip.NewStripedTracker(shards)
	for k := 0; k < shards; k++ {
		c.roundLat = append(c.roundLat, make(map[uint64]*latencyAgg))
		c.delivers = append(c.delivers, c.deliverer(k))
	}
	switch {
	case opts.Latency != nil:
		c.Sim.Latency = opts.Latency
	case opts.LatencyModel != nil:
		c.Sim.Latency = opts.LatencyModel.Delay
	}
	c.timed = c.Sim.Latency != nil
	for i := 0; i < opts.N; i++ {
		nodeID := id.ID(i + 1)
		c.ids = append(c.ids, nodeID)
		var joiner interface{ Join(id.ID) error }
		c.Sim.Add(nodeID, func(env peer.Env) peer.Process {
			m := c.newMembership(env, i)
			joiner = m.(interface{ Join(id.ID) error })
			g := c.newBroadcaster(env, m)
			c.gossipers[nodeID] = g
			c.membership[nodeID] = m
			return g
		})
		if i > 0 {
			// Paper §5: one-by-one joins, no cycles in between. HyParView
			// and Cyclon use a single contact; SCAMP uses a random node
			// already in the overlay.
			contact := c.ids[0]
			if proto == Scamp {
				contact = c.ids[c.Sim.Rand().Intn(i)]
			}
			if err := joiner.Join(contact); err != nil {
				panic(fmt.Sprintf("sim: join of %v via %v failed: %v", nodeID, contact, err))
			}
			c.Sim.Drain()
		}
	}
	return c
}

// newMembership constructs the protocol instance for the node with join
// index i.
func (c *Cluster) newMembership(env peer.Env, i int) peer.Membership {
	switch c.Protocol {
	case HyParView:
		cfg := c.Opts.HyParView
		if c.Opts.ShuffleInterval > 0 && cfg.ShuffleInterval == 0 {
			cfg.ShuffleInterval = c.Opts.ShuffleInterval
		}
		if c.Opts.ConfigureHyParView != nil {
			cfg = c.Opts.ConfigureHyParView(i, cfg.WithDefaults())
		}
		hv := core.New(env, cfg)
		if c.Opts.Optimizer == OptimizerXBot {
			// By default the latency model doubles as the cost oracle: its
			// Cost strips jitter, modelling a node averaging RTT probes.
			oracle := c.Opts.Oracle
			if oracle == nil {
				oracle = c.Opts.LatencyModel
			}
			xcfg := c.Opts.XBot.DeriveInterval(c.Opts.ShuffleInterval)
			return xbot.New(env, hv, xcfg, oracle)
		}
		return hv
	case Cyclon:
		cfg := c.Opts.Cyclon
		cfg.DetectFailures = false
		return cyclon.New(env, cfg)
	case CyclonAcked:
		cfg := c.Opts.Cyclon
		cfg.DetectFailures = true
		return cyclon.New(env, cfg)
	case Scamp:
		return scamp.New(env, c.Opts.Scamp)
	default:
		panic(fmt.Sprintf("sim: unknown protocol %v", c.Protocol))
	}
}

// gossipConfig maps the protocol to its broadcast behaviour (paper §5).
func (c *Cluster) gossipConfig() gossip.Config {
	switch c.Protocol {
	case HyParView:
		// Deterministic flooding over TCP links doubling as failure
		// detectors.
		return gossip.Config{Mode: gossip.Flood, ReportPeerDown: true}
	case CyclonAcked:
		// Random fan-out with per-send acknowledgments.
		return gossip.Config{Mode: gossip.Fanout, Fanout: c.Opts.Fanout, ReportPeerDown: true}
	default:
		// Plain Cyclon and SCAMP: fire-and-forget random fan-out.
		return gossip.Config{Mode: gossip.Fanout, Fanout: c.Opts.Fanout}
	}
}

// newBroadcaster builds the broadcast-layer node selected by Opts.Broadcast
// over the membership instance m.
func (c *Cluster) newBroadcaster(env peer.Env, m peer.Membership) gossip.Broadcaster {
	deliver := c.delivers[c.Sim.ShardOf(env.Self())]
	var router *pubsub.Router
	if c.Opts.PubSub != nil {
		cfg := *c.Opts.PubSub
		if cfg.NextRound == nil {
			cfg.NextRound = nodeRounds(env.Self())
		}
		if cfg.Fallback == nil {
			cfg.Fallback = deliver
		}
		router = pubsub.New(cfg)
		deliver = router.OnBroadcast
	}
	var b gossip.Broadcaster
	if c.Opts.Broadcast == BroadcastPlumtree {
		pcfg := c.Opts.Plumtree
		// Over HyParView and CyclonAcked, broadcast sends double as the
		// failure detector, exactly as in gossip mode; an explicit opt-in
		// via Options.Plumtree is honored for the other protocols too.
		if c.Protocol == HyParView || c.Protocol == CyclonAcked {
			pcfg.ReportPeerDown = true
		}
		b = plumtree.New(env, m, pcfg, deliver)
	} else {
		b = gossip.New(env, m, c.gossipConfig(), deliver)
	}
	if router != nil {
		router.Bind(env, b)
		c.routers[env.Self()] = router
		return router
	}
	return b
}

// nodeRounds returns a round allocator private to one node. Routers publish
// from their node's shard, concurrently with other shards, so a shared
// counter would hand out identifiers in an arrival-dependent order. Rounds
// need to be unique cluster-wide, not ordered — every round cache evicts in
// insertion order — so each node numbers its own: the high bit keeps them
// apart from the Tracker's harness rounds, the node id (cluster nodes are
// numbered 1..N) apart from other nodes'.
func nodeRounds(self id.ID) func() uint64 {
	var n uint64
	return func() uint64 {
		n++
		return 1<<63 | uint64(self)<<32 | n
	}
}

// Router returns the pub/sub router of nodeID, or nil when Options.PubSub is
// unset or the node does not exist.
func (c *Cluster) Router(nodeID id.ID) *pubsub.Router { return c.routers[nodeID] }

// deliverer returns the Delivery callback installed on every broadcaster of
// shard k: it feeds the reliability tracker and, in latency mode,
// aggregates virtual-time delivery latencies for rounds the harness is
// measuring — both in shard k's stripe.
func (c *Cluster) deliverer(k int) func(round uint64, topic uint32, payload []byte, hops int) {
	track := c.Tracker.Stripe(k)
	lat := c.roundLat[k]
	return func(round uint64, topic uint32, payload []byte, hops int) {
		if c.timed {
			if start, ok := c.roundStart[round]; ok {
				agg := lat[round]
				if agg == nil {
					agg = &latencyAgg{}
					lat[round] = agg
				}
				agg.samples = append(agg.samples, float64(c.Sim.Now()-start))
			}
		}
		track(round, topic, payload, hops)
	}
}

// beginRound marks a measured broadcast's start on the virtual clock.
func (c *Cluster) beginRound(round uint64) {
	if c.timed {
		c.roundStart[round] = c.Sim.Now()
	}
}

// endRound returns the virtual-time latency of the round's last and average
// delivery plus the raw per-delivery samples (all zero/nil in FIFO mode) and
// releases the tracking state.
func (c *Cluster) endRound(round uint64) (maxLat, avgLat float64, samples []float64) {
	if !c.timed {
		return 0, 0, nil
	}
	delete(c.roundStart, round)
	for _, lat := range c.roundLat {
		if agg := lat[round]; agg != nil {
			samples = append(samples, agg.samples...)
			delete(lat, round)
		}
	}
	if len(samples) == 0 {
		return 0, 0, nil
	}
	if len(c.roundLat) > 1 {
		// Sample order follows the shard stripes, not delivery order; sort
		// so float summation (and hence the reported means) is deterministic
		// and independent of the shard count.
		sort.Float64s(samples)
	}
	var sum float64
	for _, lat := range samples {
		sum += lat
		if lat > maxLat {
			maxLat = lat
		}
	}
	return maxLat, sum / float64(len(samples)), samples
}

// Stabilize runs the given number of membership rounds (paper: 50) over the
// whole cluster. In cycle-driven mode that is RunCycle ×cycles; in periodic
// mode (Options.ShuffleInterval over HyParView) the same round count is
// expressed as a virtual-time duration and the nodes' own scheduled shuffles
// drive the protocol.
func (c *Cluster) Stabilize(cycles int) {
	if iv := c.periodicInterval(); iv > 0 {
		c.Sim.RunFor(uint64(cycles) * iv)
		return
	}
	c.Sim.RunCycles(cycles)
}

// RunFor advances the cluster's virtual time by d ticks, firing scheduled
// protocol rounds and timers along the way (duration-based methodology).
func (c *Cluster) RunFor(d uint64) { c.Sim.RunFor(d) }

// periodicInterval returns the per-round virtual-time interval when the
// cluster runs scheduler-driven membership rounds, zero otherwise.
func (c *Cluster) periodicInterval() uint64 {
	if c.Protocol == HyParView {
		return c.Opts.ShuffleInterval
	}
	return 0
}

// FailFraction crashes frac (0..1) of the currently live nodes, chosen
// uniformly at random, and returns how many were killed.
func (c *Cluster) FailFraction(frac float64) int {
	alive := c.Sim.AliveIDs()
	k := int(frac*float64(len(alive)) + 0.5)
	if k <= 0 {
		return 0
	}
	if k >= len(alive) {
		k = len(alive) - 1 // always leave at least one node to broadcast
	}
	r := c.Sim.Rand()
	r.Shuffle(len(alive), func(i, j int) { alive[i], alive[j] = alive[j], alive[i] })
	for _, victim := range alive[:k] {
		c.Sim.Fail(victim)
	}
	return k
}

// broadcastMeasured sends one broadcast from a uniformly random live node,
// fully processes the resulting traffic, and returns reliability, hop
// statistics and — in latency mode — the virtual-time latency of the last
// and average delivery.
func (c *Cluster) broadcastMeasured() (rel float64, maxHops int, avgHops, maxLat, avgLat float64, lats []float64) {
	// RandomAlive + AliveCount keep the per-broadcast harness overhead
	// allocation-free; at 100k nodes the old AliveIDs snapshot was an 800KB
	// copy per message.
	source, ok := c.Sim.RandomAlive(c.Sim.Rand())
	if !ok {
		return 0, 0, 0, 0, 0, nil
	}
	alive := c.Sim.AliveCount()
	round := c.Tracker.NextRound()
	c.beginRound(round)
	c.gossipers[source].Broadcast(round, nil)
	c.Sim.Drain()
	rel = c.Tracker.Reliability(round, alive)
	maxHops = c.Tracker.MaxHops(round)
	avgHops = c.Tracker.AvgHops(round)
	c.Tracker.Forget(round)
	maxLat, avgLat, lats = c.endRound(round)
	return rel, maxHops, avgHops, maxLat, avgLat, lats
}

// Broadcast sends one broadcast from a uniformly random live node, fully
// processes the resulting traffic, and returns the message's reliability:
// the fraction of live nodes that delivered it (paper §2.5).
func (c *Cluster) Broadcast() float64 {
	rel, _, _, _, _, _ := c.broadcastMeasured()
	return rel
}

// BroadcastDetailed is Broadcast plus hop statistics: it returns the
// reliability, the maximum hop count and the average hop count of the
// deliveries.
func (c *Cluster) BroadcastDetailed() (rel float64, maxHops int, avgHops float64) {
	rel, maxHops, avgHops, _, _, _ = c.broadcastMeasured()
	return rel, maxHops, avgHops
}

// BroadcastBurst sends count broadcasts back to back (no membership cycles
// in between, per the paper's failure methodology) and returns the
// per-message reliability series.
func (c *Cluster) BroadcastBurst(count int) []float64 {
	out := make([]float64, count)
	for i := range out {
		out[i] = c.Broadcast()
	}
	return out
}

// Snapshot captures the live overlay for graph analysis. For HyParView the
// overlay is the active views (paper footnote 5).
func (c *Cluster) Snapshot() *graph.Snapshot {
	alive := c.Sim.AliveIDs()
	return graph.Build(alive, func(n id.ID) []id.ID {
		return c.membership[n].Neighbors()
	})
}

// Accuracy computes the paper's view-accuracy metric over the live nodes.
func (c *Cluster) Accuracy() float64 {
	return graph.Accuracy(c.Sim.AliveIDs(), func(n id.ID) []id.ID {
		return c.membership[n].Neighbors()
	}, c.Sim.Alive)
}

// Membership exposes the protocol instance of one node (tests, metrics).
func (c *Cluster) Membership(n id.ID) peer.Membership { return c.membership[n] }

// Gossiper exposes the broadcast-layer node of one node (tests, metrics).
// The concrete type is *gossip.Node or *plumtree.Node per Opts.Broadcast.
func (c *Cluster) Gossiper(n id.ID) gossip.Broadcaster { return c.gossipers[n] }

// CounterTotals sums the broadcast-layer counters over the whole population
// (live and failed): locally delivered first copies, redundant payload
// receptions, successful payload forwards, and rejected sends. Experiments
// snapshot the totals around a burst to compute the RMR metric.
func (c *Cluster) CounterTotals() (delivered, duplicates, forwarded, sendFails uint64) {
	for _, g := range c.gossipers {
		d, dup, fwd, sf := g.Counters()
		delivered += d
		duplicates += dup
		forwarded += fwd
		sendFails += sf
	}
	return delivered, duplicates, forwarded, sendFails
}

// BurstStats aggregates one measured broadcast burst.
type BurstStats struct {
	// MeanReliability and FinalReliability are the mean and last-message
	// fraction of live nodes that delivered (paper §2.5).
	MeanReliability  float64
	FinalReliability float64
	// RMR is the relative message redundancy over the burst: payload
	// messages received from the network per receiving node beyond the
	// first copy (0 = perfect spanning tree; see metrics.RMR).
	RMR float64
	// MeanMaxHops averages the per-message last-delivery hop count, the
	// paper's Table 1 latency proxy.
	MeanMaxHops float64
	// MeanMaxLatency and MeanAvgLatency average, over the burst, the
	// virtual-time (abstract ticks) latency of each message's last and mean
	// delivery. They are the wall-clock analogue of the hop metrics and stay
	// zero in FIFO mode (no latency model installed).
	MeanMaxLatency float64
	MeanAvgLatency float64
	// LatencyP50 and LatencyP99 are percentiles over every individual
	// delivery latency of the burst (all messages, all receivers): the tail
	// a mean hides. Zero in FIFO mode.
	LatencyP50 float64
	LatencyP99 float64
}

// MeasureBurst sends msgs broadcasts back to back from random live nodes
// (no membership cycles in between) and returns reliability, redundancy and
// hop statistics for the burst.
func (c *Cluster) MeasureBurst(msgs int) BurstStats {
	var out BurstStats
	if msgs <= 0 {
		return out
	}
	d0, dup0, _, _ := c.CounterTotals()
	var rels []float64
	var sumMaxHops, sumMaxLat, sumAvgLat float64
	var allLats []float64
	for i := 0; i < msgs; i++ {
		rel, maxHops, _, maxLat, avgLat, lats := c.broadcastMeasured()
		rels = append(rels, rel)
		sumMaxHops += float64(maxHops)
		sumMaxLat += maxLat
		sumAvgLat += avgLat
		allLats = append(allLats, lats...)
	}
	d1, dup1, _, _ := c.CounterTotals()
	delivered := float64(d1 - d0) // includes the msgs source-local deliveries
	duplicates := float64(dup1 - dup0)
	k := float64(msgs)
	// Per-message averages: payload receptions over the network and nodes
	// reached, then the paper's RMR formula.
	out.RMR = metrics.RMR((delivered-k+duplicates)/k, delivered/k)
	out.MeanReliability = metrics.Mean(rels)
	out.FinalReliability = rels[len(rels)-1]
	out.MeanMaxHops = sumMaxHops / k
	out.MeanMaxLatency = sumMaxLat / k
	out.MeanAvgLatency = sumAvgLat / k
	out.LatencyP50 = metrics.Percentile(allLats, 50)
	out.LatencyP99 = metrics.Percentile(allLats, 99)
	return out
}

// ActiveLinkCosts returns the latency-model cost of every directed overlay
// link of the live population, in deterministic (join, view) order. It
// returns nil when the cluster has no latency model.
func (c *Cluster) ActiveLinkCosts() []float64 {
	model := c.Opts.LatencyModel
	if model == nil {
		return nil
	}
	var out []float64
	for _, nodeID := range c.Sim.AliveIDs() {
		for _, p := range c.membership[nodeID].Neighbors() {
			out = append(out, float64(model.Cost(nodeID, p)))
		}
	}
	return out
}

// MeanActiveLinkCost averages the latency-model cost over every directed
// overlay link: the quantity X-BOT minimizes. Zero without a latency model.
func (c *Cluster) MeanActiveLinkCost() float64 {
	return metrics.Mean(c.ActiveLinkCosts())
}

// IDs returns the full population (live and failed) in join order.
func (c *Cluster) IDs() []id.ID {
	out := make([]id.ID, len(c.ids))
	copy(out, c.ids)
	return out
}

// ResetSeen clears all per-node delivered-message tables; long experiments
// call this between phases to bound memory.
func (c *Cluster) ResetSeen() {
	for _, g := range c.gossipers {
		g.ResetSeen()
	}
}
