// Package netsim is a deterministic discrete-event simulator for
// peer-to-peer protocols: this repository's stand-in for PeerSim, the
// simulator used by the paper's evaluation (§5).
//
// Model:
//
//   - Nodes are identified by id.ID and host a peer.Process. Internally the
//     simulator keys everything by a dense node index: the id→index map is
//     consulted once per Send, and the hot delivery path is pure slice
//     access, which is what makes 100k-node populations practical.
//   - Deliveries happen in (virtual time, send sequence) order. Without a
//     latency model every message is scheduled with delay 0, so that order
//     degenerates to FIFO; with a Latency function installed, messages are
//     delayed per link and the virtual clock advances to each event's
//     timestamp. A long run allocates no per-event garbage beyond the
//     messages themselves.
//   - One engine executes that order: the wave/barrier engine (shards.go).
//     It delivers all events due at an instant as a wave, large waves in
//     parallel across shards of the node table, and sequences their output
//     at a barrier in exactly the order a one-event-at-a-time run would have
//     produced it. New builds it with one shard, NewSharded with any count.
//     The shard count never changes a run: the same seed gives a
//     byte-identical trace at every count, with or without an Intercept
//     hook, because hooks run serially over each wave in canonical order.
//   - The simulator implements peer.Scheduler: protocols schedule one-shot
//     timers (After) and periodic rounds (Every) as self-addressed messages
//     in the same schedule, interleaved in time order with network traffic.
//   - Send and Probe to a failed node return peer.ErrPeerDown to the caller
//     immediately. This models TCP's connect/reset failure signal, the
//     failure detector HyParView relies on. Lossy protocols simply ignore
//     the error, modelling fire-and-forget datagrams.
//   - Drain runs until no messages or one-shot timers remain, advancing the
//     clock as needed, with the periodic schedule frozen: Every-registered
//     rounds fire only inside RunFor windows. The split is what keeps Drain
//     terminating — under a latency model, self-sustaining periodic rounds
//     plus delayed traffic would otherwise never quiesce — and it matches
//     the paper's methodology, whose bursts run "with no membership cycles
//     in between". RunFor advances virtual time by a fixed duration, firing
//     everything — periodic rounds included — that falls inside the window,
//     in timestamp order across both schedules. RunCycle invokes OnCycle on
//     every live node in a seeded random order for the legacy
//     externally-driven cycle mode.
//
// The simulator is not safe for concurrent use; experiments own one Sim each.
// Process handlers (and the Delivery callbacks they invoke) of nodes on
// different shards run concurrently; nodes never share a shard's state, but
// callbacks into host code must guard what they share.
package netsim

import (
	"fmt"
	"slices"

	"hyparview/internal/id"
	"hyparview/internal/msg"
	"hyparview/internal/peer"
	"hyparview/internal/rng"
)

// ErrOverflow is returned (wrapped) by Send when the in-flight event limit
// is exceeded. Overflowed events are counted in Stats.Overflowed and dropped,
// so runaway message storms degrade the run instead of crashing it. It is an
// alias of peer.ErrOverflow: the TCP transport sheds with the same sentinel,
// so protocol code distinguishes overload from peer death identically in
// both runtimes.
var ErrOverflow = peer.ErrOverflow

// Event kinds: wire traffic versus scheduler deliveries.
const (
	kindMessage  uint8 = iota // network message (counted in wire stats, Tapped)
	kindTimer                 // one-shot scheduler delivery (peer.Scheduler.After)
	kindPeriodic              // periodic scheduler delivery (re-arms itself)
)

// event is the payload of one scheduled delivery.
type event struct {
	from     id.ID // sender identity handed to Deliver (self for timers)
	to       int32 // destination node index
	kind     uint8
	exempt   bool   // bypass the Intercept hook (fault-injected redeliveries)
	interval uint64 // re-arm interval for kindPeriodic
	m        msg.Message
}

// simNode is the simulator's per-node bookkeeping, stored by value in a
// dense index-ordered table.
type simNode struct {
	id    id.ID
	proc  peer.Process
	rand  *rng.Rand
	alive bool

	// parked holds scheduler events (one-shot timers, periodic
	// registrations) that came due while the node was failed. They are
	// re-scheduled on Revive: dropping them would wedge timer-owning state
	// machines forever, and re-arming a dead node's periodic rounds would
	// burn engine work delivering nothing for the rest of the run.
	parked []event
}

// Stats aggregates counters over the lifetime of a Sim.
type Stats struct {
	// Sent counts successful Send calls (message enqueued).
	Sent uint64
	// Delivered counts messages handed to a live process.
	Delivered uint64
	// Dropped counts messages whose destination died after enqueue.
	Dropped uint64
	// SendFailures counts Send/Probe calls rejected with ErrPeerDown.
	SendFailures uint64
	// Overflowed counts events rejected by the MaxQueue limit: the send is
	// dropped and reported with ErrOverflow instead of crashing the run, so
	// massive-failure experiments degrade gracefully under message storms.
	Overflowed uint64
	// FaultDropped counts deliveries suppressed by the Intercept hook.
	FaultDropped uint64
	// Redelivered counts messages re-injected through Redeliver (delay,
	// duplicate and replay faults).
	Redelivered uint64
	// BytesSent sums the wire-encoded size of every enqueued message,
	// supporting the packet-overhead measurements the paper planned for
	// PlanetLab (§6).
	BytesSent uint64
}

// Sim is a deterministic event-driven network simulator.
type Sim struct {
	rand  *rng.Rand
	nodes []simNode       // dense node table in insertion order
	index map[id.ID]int32 // id → node table index
	alive int             // live-node count, maintained by Add/Fail/Revive

	// aliveBits packs per-node liveness one bit per table index. The
	// per-send liveness check is the one random access the hot dispatch
	// path cannot avoid; against the 64-byte simNode records a 100k-node
	// population costs a DRAM miss per send, while the bitset (12.5KB)
	// stays cache-resident.
	aliveBits []uint64

	// dense is true while node identifiers follow the harness convention
	// id.ID(i+1) for the i-th added node. Every cluster builder in this
	// repository numbers nodes that way, which lets the per-send id→index
	// translation — the last map access on the hot dispatch path — collapse
	// to an integer subtraction. The first out-of-pattern Add clears the
	// flag and everything falls back to the map, which is maintained either
	// way.
	dense bool

	stats Stats

	wire int // in-flight network messages, the population MaxQueue bounds

	now uint64 // virtual clock
	seq uint64 // scheduling sequence for deterministic tie-breaking

	// shards partitions the node table for the wave/barrier engine (see
	// shards.go); there is always at least one.
	shards []shard
	// future holds the pending instants, latest first; bpool
	// recycles their vectors. periodic is the (at, seq) heap of periodic
	// registrations and due its scratch for the instant being formed.
	future   []bucket
	bpool    [][]sevent
	periodic []sevent
	due      []sevent
	// held is the bucket the current instant's wave points into; imm holds
	// events sequenced from coordinator context at the current instant.
	// Both are released when the instant quiesces.
	held   []sevent
	imm    []sevent
	queued int // events in buckets and next-wave vectors (Pending)
	// inWave is true while shards are delivering a wave: endpoint sends and
	// timer registrations record into per-shard output logs instead of
	// sequencing immediately.
	inWave bool
	// instantActive is true while runInstant is processing an instant:
	// delay-0 traffic joins the instant's next wave rather than a bucket.
	instantActive bool
	// serial is true while runSerial delivers: delay-0 traffic joins the
	// tail of fifo, its global delivery queue.
	serial bool
	fifo   []*sevent
	// waveParallel gates the worker handoff: more than one shard on a
	// multi-P runtime (captured at NewSharded); crew holds the workers,
	// started by the first parallel wave.
	waveParallel bool
	crew         *crew
	shardMask    int     // shard count - 1 when it is a power of two, else -1
	watchBuf     []id.ID // flushDowns scratch

	// pendingDowns queues failed (or cut-off) nodes whose live watchers —
	// nodes holding an open connection to them, see Endpoint.Watch — receive
	// OnPeerDown (a TCP reset) at the next Drain or RunFor.
	pendingDowns []id.ID

	// partition, when non-nil, assigns nodes to network partitions: traffic
	// between different partition groups fails exactly like traffic to a
	// crashed node (TCP connects time out across the cut). Nodes absent
	// from the map are in group 0.
	partition map[id.ID]int

	// MaxQueue bounds the number of in-flight events as a safety net
	// against protocol bugs that generate message storms. Zero means the
	// default (64M events). Excess events are dropped and counted in
	// Stats.Overflowed; Send reports them with ErrOverflow.
	MaxQueue int

	// Tap, when non-nil, observes every delivered network message (after
	// liveness filtering, before the process handles it). Scheduler
	// deliveries — local timers — are not wire traffic and are not tapped.
	// Used by tests and the trace recorder; it must not mutate the
	// simulation.
	Tap func(from, to id.ID, m msg.Message)

	// Latency, when non-nil, delays every message by Latency(from, to)
	// abstract ticks. The function may draw from the rand it is handed to
	// model jitter; determinism is preserved. When nil, messages are
	// scheduled with delay 0 — the classic FIFO mode the paper's hop-count
	// experiments run in (they measure hops, not wall time).
	Latency func(from, to id.ID, r *rng.Rand) uint64

	// Intercept, when non-nil, is the fault-injection seam: it observes every
	// network message at the delivery path, after liveness and partition
	// filtering and before Tap and dispatch (timers are local scheduler
	// state, not wire traffic, and are never intercepted). Returning false
	// suppresses the delivery (counted in Stats.FaultDropped). Returning a
	// non-nil replacement delivers it instead of the original — tamper faults
	// mutate a copy, never the original's slices, which other fan-out copies
	// share under the copy-on-write regime. The hook runs on a private struct
	// copy and may call Redeliver to schedule duplicates, delayed copies or
	// replays; redelivered messages bypass the hook (and the latency model),
	// so a delay fault cannot re-delay its own artifact forever. For the
	// determinism contract, any randomness must come from a stream seeded off
	// the run's seed and consumed only here, in delivery order (see package
	// faults). The nil case costs one predictable branch: the no-fault hot
	// path stays allocation-free.
	Intercept func(node id.ID, m *msg.Message) (*msg.Message, bool)
}

// New returns an empty single-shard simulator seeded with seed: every
// delivery runs on the calling goroutine.
func New(seed uint64) *Sim { return NewSharded(seed, 1) }

// nodeIndex translates a node identifier to its table index. In the dense
// id regime (see Sim.dense) this is a bounds check and a subtraction; only
// irregular populations pay the map lookup.
func (s *Sim) nodeIndex(nodeID id.ID) (int32, bool) {
	if s.dense {
		if nodeID == 0 || uint64(nodeID) > uint64(len(s.nodes)) {
			return 0, false
		}
		return int32(nodeID - 1), true
	}
	ti, ok := s.index[nodeID]
	return ti, ok
}

// Endpoint is the peer.Env handed to a process at construction time.
type Endpoint struct {
	sim  *Sim
	self id.ID
	idx  int32
	rand *rng.Rand
	sh   *shard // the shard that owns this node
}

var _ peer.Env = (*Endpoint)(nil)

// Self returns the identifier of the endpoint's node.
func (e *Endpoint) Self() id.ID { return e.self }

// Rand returns the node's private random stream.
func (e *Endpoint) Rand() *rng.Rand { return e.rand }

// Send enqueues m for delivery to dst, or returns peer.ErrPeerDown if dst has
// already failed (TCP-style synchronous failure detection). The message is
// handed on by pointer internally: one struct copy lands in the sending
// shard's output log (or, outside a wave, in the schedule) and no others are
// made.
func (e *Endpoint) Send(dst id.ID, m msg.Message) error {
	return e.sim.send(e.sh, e.self, dst, &m)
}

// SendRef implements peer.RefSender: Send without the by-value argument copy,
// for the broadcast fan-out paths that push one frozen message to every
// neighbor.
func (e *Endpoint) SendRef(dst id.ID, m *msg.Message) error {
	return e.sim.send(e.sh, e.self, dst, m)
}

// Probe reports whether a connection to dst could be established.
func (e *Endpoint) Probe(dst id.ID) error {
	s := e.sim
	ti, ok := s.nodeIndex(dst)
	if !ok || !s.aliveAt(ti) || !s.reachable(e.self, dst) {
		if s.inWave {
			e.sh.stats.sendFailures++ // shard-local: Probe may run mid-wave
		} else {
			s.stats.SendFailures++
		}
		return fmt.Errorf("probe %v: %w", dst, peer.ErrPeerDown)
	}
	return nil
}

// Now implements peer.Scheduler: the virtual clock in ticks.
func (e *Endpoint) Now() uint64 { return e.sim.now }

// After implements peer.Scheduler: m is delivered to this node's process,
// with from == Self, once delay virtual ticks have elapsed — behind all
// traffic already scheduled at the current instant when delay is zero.
// Infallible: timers bypass the MaxQueue limit (see schedule).
func (e *Endpoint) After(delay uint64, m msg.Message) {
	e.sim.schedule(e.sh, e.self, e.idx, true, delay, &m)
}

// Every implements peer.Scheduler: m is delivered to this node's process
// every interval ticks, first firing one interval from now. The registration
// lives as long as the simulation; deliveries skip the node while it is
// failed.
func (e *Endpoint) Every(interval uint64, m msg.Message) {
	if interval == 0 {
		interval = 1
	}
	e.sim.schedule(e.sh, e.self, e.idx, false, interval, &m)
}

// Watch registers this node for failure notifications about dst, modelling
// an open TCP connection. The registration lives on the watcher's own shard:
// only this node (hence only this shard's goroutine) ever writes it, so
// watches taken mid-wave need no lock.
func (e *Endpoint) Watch(dst id.ID) { e.sh.watch(e.self, dst) }

// Unwatch cancels a Watch, modelling closing the connection.
func (e *Endpoint) Unwatch(dst id.ID) { e.sh.unwatch(e.self, dst) }

// Add registers a new live node and constructs its process via factory,
// which receives the node's environment. Add panics on duplicate ids: that
// is always a harness bug. The factory may already use the environment's
// scheduler (periodic protocols register their rounds at construction).
func (s *Sim) Add(nodeID id.ID, factory func(peer.Env) peer.Process) {
	if nodeID.IsNil() {
		panic("netsim: cannot add nil node id")
	}
	if _, dup := s.index[nodeID]; dup {
		panic(fmt.Sprintf("netsim: duplicate node %v", nodeID))
	}
	idx := int32(len(s.nodes))
	if nodeID != id.ID(idx+1) {
		s.dense = false
	}
	ep := &Endpoint{sim: s, self: nodeID, idx: idx, rand: s.rand.Split(), sh: s.shardOf(idx)}
	s.nodes = append(s.nodes, simNode{id: nodeID, rand: ep.rand, alive: true})
	s.index[nodeID] = idx
	for int(idx)>>6 >= len(s.aliveBits) {
		s.aliveBits = append(s.aliveBits, 0)
	}
	s.setAliveBit(idx, true)
	s.alive++
	s.nodes[idx].proc = factory(ep)
}

// setAliveBit mirrors simNode.alive into the packed bitset.
func (s *Sim) setAliveBit(idx int32, alive bool) {
	if alive {
		s.aliveBits[idx>>6] |= 1 << (uint(idx) & 63)
	} else {
		s.aliveBits[idx>>6] &^= 1 << (uint(idx) & 63)
	}
}

// aliveAt reports liveness by table index through the cache-resident bitset.
func (s *Sim) aliveAt(idx int32) bool {
	return s.aliveBits[idx>>6]&(1<<(uint(idx)&63)) != 0
}

// Redeliver enqueues m for delivery to dst after delay ticks, bypassing both
// the Intercept hook and the Latency model: it is the re-entry path fault
// injectors use to express delay, duplicate and replay faults without the
// hook re-intercepting its own artifacts. The message counts against
// MaxQueue and the delivery stats but not Stats.Sent — it is a fault
// artifact, not a protocol send. An unknown or dead destination is reported
// as down, matching Send; a node dying afterwards drops the copy at delivery
// time like any in-flight message. Hooks run on the coordinator (the wave
// pre-pass), never on shard goroutines, so re-entry here always sequences
// immediately.
func (s *Sim) Redeliver(from, to id.ID, m msg.Message, delay uint64) error {
	ti, ok := s.nodeIndex(to)
	if !ok || !s.aliveAt(ti) {
		return fmt.Errorf("redeliver %v->%v: %w", from, to, peer.ErrPeerDown)
	}
	if s.wire >= s.queueLimit() {
		s.stats.Overflowed++
		return fmt.Errorf("%w: %d messages in flight (message storm?)", ErrOverflow, s.wire)
	}
	s.wire++
	s.seq++
	ev := &s.enqueueAt(s.now+delay, s.seq, ti).ev
	ev.from, ev.kind, ev.exempt, ev.m = from, kindMessage, true, m
	s.stats.Redelivered++
	return nil
}

// Now returns the virtual clock in ticks. It advances whenever an event with
// a later timestamp is processed (latency-mode traffic, scheduler timers) and
// jumps to the end of every RunFor window.
func (s *Sim) Now() uint64 { return s.now }

// Inject enqueues a message from outside the simulation (the experiment
// harness), e.g. the initial JOIN or a broadcast trigger.
func (s *Sim) Inject(from, to id.ID, m msg.Message) error {
	return s.send(nil, from, to, &m)
}

// Drain delivers events until no messages or one-shot timers remain and
// returns the number of deliveries made. Deliveries may enqueue further
// events; those are processed too, with the virtual clock advancing to each
// event's timestamp. The periodic schedule is frozen for the duration: a
// Drain is the instantaneous-convergence operator of the paper's
// methodology ("no membership cycles in between"), and letting
// self-sustaining rounds fire here would keep a latency-model run from ever
// quiescing. Periodic rounds fire in RunFor.
func (s *Sim) Drain() int {
	delivered := 0
	s.flushDowns()
	for n := len(s.future); n > 0; n = len(s.future) {
		delivered += s.runInstant(s.future[n-1].at, false)
		s.flushDowns()
	}
	return delivered
}

// RunFor advances virtual time by d ticks, processing every event — periodic
// rounds included, interleaved in timestamp order with traffic — that falls
// inside the window, and returns the number of deliveries made. The clock
// lands exactly on Now()+d, so back-to-back RunFor calls tile time without
// gaps; traffic scheduled beyond the window stays pending for the next
// RunFor or Drain.
func (s *Sim) RunFor(d uint64) int {
	target := s.now + d
	delivered := 0
	s.flushDowns()
	for {
		var t uint64
		ok := false
		if n := len(s.future); n > 0 {
			t, ok = s.future[n-1].at, true
		}
		if len(s.periodic) > 0 && (!ok || s.periodic[0].at < t) {
			t, ok = s.periodic[0].at, true
		}
		if !ok || t > target {
			if target > s.now {
				s.now = target
			}
			return delivered
		}
		delivered += s.runInstant(t, true)
		s.flushDowns()
	}
}

// RunCycle executes one membership protocol cycle: every live node's OnCycle
// hook runs once, in seeded random order, with the pending events drained
// after each hook (PeerSim cycle-driven semantics). Protocols that schedule
// their own periodic rounds are driven with RunFor instead.
func (s *Sim) RunCycle() {
	alive := s.AliveIDs()
	s.rand.Shuffle(len(alive), func(i, j int) { alive[i], alive[j] = alive[j], alive[i] })
	for _, nodeID := range alive {
		ni, _ := s.nodeIndex(nodeID)
		n := &s.nodes[ni]
		if !n.alive {
			continue // may have "failed" mid-cycle in churn scenarios
		}
		n.proc.OnCycle()
		s.Drain()
	}
}

// RunCycles executes count cycles.
func (s *Sim) RunCycles(count int) {
	for i := 0; i < count; i++ {
		s.RunCycle()
	}
}

// Fail marks nodeID as crashed. In-flight messages to it are dropped,
// future sends to it fail with peer.ErrPeerDown, and nodes watching it (open
// TCP connections) receive an OnPeerDown notification at the next Drain.
func (s *Sim) Fail(nodeID id.ID) {
	ni, ok := s.nodeIndex(nodeID)
	if !ok || !s.nodes[ni].alive {
		return
	}
	s.nodes[ni].alive = false
	s.setAliveBit(ni, false)
	s.alive--
	if s.watched(ni) {
		s.pendingDowns = append(s.pendingDowns, nodeID)
	}
}

// Revive marks a previously failed node as live again. The process state is
// whatever it was at crash time; protocols that need a clean restart should
// be re-added under a fresh id instead. Scheduler events that came due
// during the outage are re-scheduled: parked one-shot timers fire behind
// the traffic now in flight, parked periodic registrations resume one
// interval from now.
func (s *Sim) Revive(nodeID id.ID) {
	ni, ok := s.nodeIndex(nodeID)
	if !ok || s.nodes[ni].alive {
		return
	}
	s.nodes[ni].alive = true
	s.setAliveBit(ni, true)
	s.alive++
	parked := s.nodes[ni].parked
	s.nodes[ni].parked = nil
	for _, ev := range parked {
		s.seq++
		if ev.kind == kindPeriodic {
			s.enqueuePeriodic(s.now+ev.interval, s.seq, &ev)
		} else {
			s.enqueueAt(s.now, s.seq, ev.to).ev = ev
		}
	}
}

// Alive reports whether nodeID exists and has not failed.
func (s *Sim) Alive(nodeID id.ID) bool {
	ni, ok := s.nodeIndex(nodeID)
	return ok && s.nodes[ni].alive
}

// AliveIDs returns the identifiers of all live nodes in insertion order.
func (s *Sim) AliveIDs() []id.ID {
	out := make([]id.ID, 0, len(s.nodes))
	for i := range s.nodes {
		if s.nodes[i].alive {
			out = append(out, s.nodes[i].id)
		}
	}
	return out
}

// IDs returns all node identifiers (live and failed) in insertion order.
func (s *Sim) IDs() []id.ID {
	out := make([]id.ID, len(s.nodes))
	for i := range s.nodes {
		out[i] = s.nodes[i].id
	}
	return out
}

// AliveCount returns the number of live nodes in O(1).
func (s *Sim) AliveCount() int { return s.alive }

// RandomAlive returns a uniformly random live node, drawing from r until a
// live one is hit (expected draws: population/alive). It returns (Nil,
// false) when no node is alive. Unlike AliveIDs it allocates nothing, which
// matters to harness paths invoked once per broadcast.
func (s *Sim) RandomAlive(r *rng.Rand) (id.ID, bool) {
	if s.alive == 0 || len(s.nodes) == 0 {
		return id.Nil, false
	}
	for {
		n := &s.nodes[r.Intn(len(s.nodes))]
		if n.alive {
			return n.id, true
		}
	}
}

// Process returns the process hosted at nodeID, or nil if unknown.
func (s *Sim) Process(nodeID id.ID) peer.Process {
	ni, ok := s.nodeIndex(nodeID)
	if !ok {
		return nil
	}
	return s.nodes[ni].proc
}

// Rand returns the simulator's root random stream (used by harnesses to pick
// broadcast sources, failure victims, ...).
func (s *Sim) Rand() *rng.Rand { return s.rand }

// Stats returns a copy of the simulator's counters.
func (s *Sim) Stats() Stats {
	out := s.stats
	for i := range s.shards {
		st := &s.shards[i].stats
		out.Sent += st.sent
		out.Delivered += st.delivered
		out.Dropped += st.dropped
		out.SendFailures += st.sendFailures
		out.BytesSent += st.bytesSent
	}
	return out
}

// Pending returns the number of queued, undelivered messages and one-shot
// timers (periodic registrations are standing and not counted).
func (s *Sim) Pending() int { return s.queued }

// reachable reports whether traffic may flow from a to b under the current
// partition (the harness is responsible for injecting reset notifications
// when it cuts the network; see Partition).
func (s *Sim) reachable(a, b id.ID) bool {
	if s.partition == nil {
		return true
	}
	return s.partition[a] == s.partition[b]
}

// Partition splits the network: every node is assigned a group by assign
// (nodes mapped to the same integer can talk; crossing traffic fails like a
// crashed destination). Watched cross-partition links receive reset
// notifications at the next Drain, just as crashes do — a network cut looks
// exactly like peer death to TCP. Call Heal to remove the partition.
func (s *Sim) Partition(assign func(id.ID) int) {
	s.partition = make(map[id.ID]int, len(s.nodes))
	for i := range s.nodes {
		s.partition[s.nodes[i].id] = assign(s.nodes[i].id)
	}
	// Break watched links that now cross the cut, deterministically
	// (victims sorted, deduplicated) regardless of table layout.
	var broken []id.ID
	for i := range s.shards {
		for d, ws := range s.shards[i].watching {
			for _, w := range ws {
				if !s.reachable(w, s.nodes[d].id) {
					broken = append(broken, s.nodes[d].id)
					break
				}
			}
		}
	}
	slices.Sort(broken)
	s.pendingDowns = append(s.pendingDowns, slices.Compact(broken)...)
}

// Heal removes the current network partition. Overlay links do not reappear
// by themselves: the membership protocol has to re-merge the components.
func (s *Sim) Heal() {
	s.partition = nil
}

// sortIDs sorts identifiers ascending (insertion sort: watcher sets are tiny).
func sortIDs(xs []id.ID) {
	for i := 1; i < len(xs); i++ {
		for j := i; j > 0 && xs[j] < xs[j-1]; j-- {
			xs[j], xs[j-1] = xs[j-1], xs[j]
		}
	}
}
