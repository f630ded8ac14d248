// The wave/barrier engine, the simulator's only event engine. It partitions
// the node table by dense index (idx mod shards) and advances virtual time
// as a sequence of deterministic barrier steps:
//
//  1. Wave formation (coordinator): the wave is every event due at the
//     current instant T — the instant's bucket plus, in RunFor, due periodic
//     rounds — in (at, seq) order, split into per-shard wave vectors by
//     destination.
//  2. Hook pre-pass (coordinator, only when Tap or Intercept is installed):
//     the wave is walked across all shards in global seq order and the
//     fault-injection hook and trace tap run serially. This is what keeps
//     stateful injectors byte-deterministic: hook state evolves in a
//     canonical order no matter how many shards execute the deliveries.
//  3. Delivery: each shard delivers its slice of the wave to its own nodes,
//     in seq order per node — on persistent worker goroutines for large
//     waves, on the coordinator for small ones. Handler output — sends,
//     timers, periodic re-arms — is not enqueued yet; it is recorded in a
//     per-shard output log tagged (parent seq, birth index).
//  4. Canonical merge (coordinator): the shards' output logs, each already
//     sorted by (parent seq, birth index), are S-way merged in that order;
//     every record is assigned the next global sequence number, latency
//     delays are drawn from the root stream in merge order, and the event
//     is routed to its destination. Delay-0 output forms the next wave at
//     the same instant; the loop repeats until the instant quiesces, then
//     time advances to the next bucket.
//
// Because a FIFO-ordered serial run is exactly "waves processed in (parent
// seq, birth) order", the merge reproduces the delivery order of a serial
// run that pops one event at a time in (at, seq) order, and waves do not
// depend on how many shards split them: with the same seed, a run is
// byte-identical across shard counts and across repeated runs. The tests
// pin that order against golden digests recorded from such a serial engine.
//
// Event records are copied as little as possible. A handler's send is
// written once, into its shard's output log; the wave that delivers it holds
// only a pointer to that record. Output logs are double-buffered per wave, so
// a log is overwritten only after the wave that consumed it. Only traffic
// bound for a later instant is copied again, into that instant's bucket.
//
// Shared mutable state during a parallel wave is confined to: the shard's
// own wave vectors/output log/stats/watch table, the destination node's
// process state (every node belongs to exactly one shard), and whatever the
// host application's Delivery callbacks touch — those must be synchronized
// by the caller (the sim harness stripes its tracker by shard).
package netsim

import (
	"fmt"
	"runtime"
	"sync"

	"hyparview/internal/id"
	"hyparview/internal/msg"
	"hyparview/internal/peer"
	"hyparview/internal/rng"
)

// parallelMinWave is the smallest wave (events across all shards) worth
// handing to the shard workers; smaller waves are processed serially by the
// coordinator, which is both faster (no wakeup latency) and identical in
// outcome (shard slices touch disjoint state either way).
const parallelMinWave = 64

// waveLookahead is how far ahead of the delivery cursor runWave touches the
// upcoming destinations' node records: far enough to overlap several DRAM
// misses in the out-of-order window, near enough that the lines are still
// cached when the cursor arrives.
const waveLookahead = 12

// sevent is one scheduled event: an output-log entry, a bucket entry or a
// periodic registration. Waves hold pointers to sevents, never copies.
type sevent struct {
	at    uint64 // delivery instant
	seq   uint64 // global sequence number (output logs: assigned at the merge)
	pseq  uint64 // output logs: seq of the event whose handler produced this one
	birth uint32 // output logs: order among that handler's outputs (re-arm first)
	skip  bool   // suppressed by the Intercept pre-pass (already counted)
	ev    event
}

// bucket holds the events pending at one future instant, in seq order.
type bucket struct {
	at  uint64
	evs []sevent
}

// shardStats are the per-shard slices of Stats, summed on read.
type shardStats struct {
	sent         uint64
	delivered    uint64
	dropped      uint64
	sendFailures uint64
	bytesSent    uint64
}

// shard owns one partition of the node population (dense index mod shard
// count): the wave vectors addressed to it and the output log and counters
// of its nodes' handlers.
type shard struct {
	sim *Sim

	cur  []*sevent // the wave being processed at the current instant
	next []*sevent // delay-0 events joining the next wave at the same instant

	out  []sevent // this wave's output log, (pseq, birth)-ordered by construction
	prev []sevent // the previous wave's log, which cur may still point into
	opos int      // merge cursor into out
	ppos int      // pre-pass cursor into cur

	// pseq/birth identify the event whose handler is currently running, so
	// sends and timers land in out with their canonical tag.
	pseq  uint64
	birth uint32

	waveDelivered int // deliveries made in the current wave (coordinator-read)
	wireDone      int // wire messages consumed this wave (coordinator-read)

	touched uint64 // lookahead-touch sink; see runWave

	// watching[d] lists, ascending, the nodes on this shard holding an open
	// connection to the node at table index d. Writes come only from this
	// shard's nodes (their Watch/Unwatch), so no lock is needed; the
	// coordinator unions the per-shard lists when d fails.
	watching [][]id.ID

	stats shardStats
}

// crew runs the slices of a parallel wave on persistent worker goroutines:
// shard 0 on the coordinator, shard i on worker i-1. A worker holds no
// reference to its Sim between waves, so a dropped Sim is collected and its
// cleanup stops the workers.
type crew struct {
	start []chan *shard
	done  sync.WaitGroup
}

func newCrew(workers int) *crew {
	c := &crew{start: make([]chan *shard, workers)}
	for i := range c.start {
		c.start[i] = make(chan *shard, 1)
		go c.work(c.start[i])
	}
	return c
}

func (c *crew) work(start chan *shard) {
	for sh := range start {
		sh.runWave()
		c.done.Done()
	}
}

func (c *crew) stop() {
	for _, ch := range c.start {
		close(ch)
	}
}

// Shards returns the shard count.
func (s *Sim) Shards() int { return len(s.shards) }

// ShardOf returns the shard that delivers to nodeID: the index of the
// partition whose worker runs the node's handlers. Harnesses use it to
// stripe state their Delivery callbacks share, so concurrent shards never
// write the same stripe. It is 0 for unknown nodes.
func (s *Sim) ShardOf(nodeID id.ID) int {
	ti, ok := s.nodeIndex(nodeID)
	if !ok {
		return 0
	}
	return int(ti) % len(s.shards)
}

// NewSharded returns a simulator whose node table is partitioned into
// shards parallel shards (see the package comment of this file); a count
// below one means one. Nodes are assigned to shards by dense index modulo the
// shard count.
func NewSharded(seed uint64, shards int) *Sim {
	shards = max(shards, 1)
	s := &Sim{
		rand:   rng.New(seed),
		index:  make(map[id.ID]int32),
		dense:  true,
		shards: make([]shard, shards),
		// A single shard has no one to hand work to, and on a single-P
		// runtime the workers cannot overlap anything and only add a handoff
		// per wave; the serial path is identical in outcome (shard slices
		// touch disjoint state either way), so take it. Captured once: tests
		// that want the concurrent path under -race raise GOMAXPROCS before
		// construction.
		waveParallel: shards > 1 && runtime.GOMAXPROCS(0) > 1,
		shardMask:    -1,
	}
	for i := range s.shards {
		s.shards[i].sim = s
	}
	if shards&(shards-1) == 0 {
		s.shardMask = shards - 1
	}
	return s
}

// shardOf returns the shard owning the node at table index idx. It runs
// once per routed event, so power-of-two shard counts (one included) take a
// mask instead of a division.
func (s *Sim) shardOf(idx int32) *shard {
	if s.shardMask >= 0 {
		return &s.shards[int(idx)&s.shardMask]
	}
	return &s.shards[int(idx)%len(s.shards)]
}

// ---- enqueue paths -------------------------------------------------------

// emit appends a record to the shard's output log, tagged with the running
// handler's (pseq, birth), and returns it for the caller to fill in. The
// slot is reused without zeroing: callers assign every field of ev.
func (sh *shard) emit(at uint64) *sevent {
	n := len(sh.out)
	if n < cap(sh.out) {
		sh.out = sh.out[:n+1]
	} else {
		sh.out = append(sh.out, sevent{})
	}
	r := &sh.out[n]
	r.at, r.pseq, r.birth, r.skip = at, sh.pseq, sh.birth, false
	sh.birth++
	return r
}

// bucketAt returns the pending-event vector of instant at, creating the
// bucket when absent. s.future is sorted latest-first, so the earliest
// instant — where coordinator sends at the current instant and the soonest
// timers land — is found without a search.
func (s *Sim) bucketAt(at uint64) *[]sevent {
	f := s.future
	n := len(f)
	if n > 0 && f[n-1].at == at {
		return &f[n-1].evs
	}
	lo, hi := 0, n // first index whose instant is <= at
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if f[mid].at > at {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < n && f[lo].at == at {
		return &f[lo].evs
	}
	var evs []sevent
	if k := len(s.bpool); k > 0 {
		evs = s.bpool[k-1]
		s.bpool = s.bpool[:k-1]
	}
	s.future = append(s.future, bucket{})
	copy(s.future[lo+1:], s.future[lo:])
	s.future[lo] = bucket{at: at, evs: evs}
	return &s.future[lo].evs
}

// toWave appends se to its destination shard's current wave.
func (s *Sim) toWave(se *sevent) {
	sh := s.shardOf(se.ev.to)
	sh.cur = append(sh.cur, se)
}

// route sends a merged output record to its destination: by pointer into
// the next wave when it lands on the active instant, copied into a bucket
// otherwise.
func (s *Sim) route(r *sevent) {
	s.queued++
	if r.at == s.now {
		sh := s.shardOf(r.ev.to)
		sh.next = append(sh.next, r)
		return
	}
	b := s.bucketAt(r.at)
	*b = append(*b, *r)
}

// enqueueAt sequences one event from coordinator context: into the next
// wave when it lands on the active instant, a bucket otherwise. It returns
// the event's record with at and seq set and ev.to routed; the caller fills
// in the rest of ev, so the message is copied exactly once.
func (s *Sim) enqueueAt(at, seq uint64, to int32) *sevent {
	s.queued++
	var se *sevent
	if s.instantActive && at == s.now {
		// The wave holds a pointer into imm; a later append may move imm's
		// backing array, but the pointer keeps the old one alive and nothing
		// but that pointer touches the record again. imm is reset only once
		// the instant has quiesced.
		s.imm = append(s.imm, sevent{})
		se = &s.imm[len(s.imm)-1]
		if s.serial {
			s.fifo = append(s.fifo, se)
		} else {
			sh := s.shardOf(to)
			sh.next = append(sh.next, se)
		}
	} else {
		b := s.bucketAt(at)
		*b = append(*b, sevent{})
		se = &(*b)[len(*b)-1]
	}
	se.at, se.seq, se.ev.to = at, seq, to
	return se
}

// enqueuePeriodic registers a periodic event on the periodic heap.
func (s *Sim) enqueuePeriodic(at, seq uint64, ev *event) {
	pushSevent(&s.periodic, sevent{at: at, seq: seq, ev: *ev})
}

// send is the send path of Endpoint.Send and Inject. During a wave the event
// is recorded in the sending shard's output log for canonical sequencing at
// the barrier; from coordinator context (harness Inject, OnCycle and
// OnPeerDown handlers, hooks) it is sequenced immediately. sh is the sending
// node's shard (nil for harness sends). m is passed by pointer to avoid
// struct copies on the per-send hot path; it is copied exactly once and never
// retained.
func (s *Sim) send(sh *shard, from, to id.ID, m *msg.Message) error {
	ti, ok := s.nodeIndex(to)
	if !ok || !s.aliveAt(ti) || !s.reachable(from, to) {
		if sh != nil && s.inWave {
			sh.stats.sendFailures++
		} else {
			s.stats.SendFailures++
		}
		return fmt.Errorf("send %v->%v: %w", from, to, peer.ErrPeerDown)
	}
	if sh != nil && s.inWave {
		// Overflow is resolved at the barrier (the in-flight total is not
		// known mid-wave); the tentative counters are rolled back there if
		// the merge sheds this event.
		r := sh.emit(0) // the merge stamps the delivery instant
		r.ev.from, r.ev.to, r.ev.kind, r.ev.exempt, r.ev.interval = from, ti, kindMessage, false, 0
		r.ev.m = *m
		sh.stats.sent++
		sh.stats.bytesSent += uint64(m.EncodedSize())
		return nil
	}
	// Coordinator context: synchronous overflow, immediate sequencing.
	if s.wire >= s.queueLimit() {
		s.stats.Overflowed++
		return fmt.Errorf("%w: %d messages in flight (message storm?)", ErrOverflow, s.wire)
	}
	s.wire++
	var delay uint64
	if s.Latency != nil {
		delay = s.Latency(from, to, s.rand)
	}
	s.seq++
	ev := &s.enqueueAt(s.now+delay, s.seq, ti).ev
	ev.from, ev.kind, ev.m = from, kindMessage, *m
	s.stats.Sent++
	s.stats.BytesSent += uint64(m.EncodedSize())
	return nil
}

// schedule handles After (oneshot=true) and Every from an endpoint. Only
// network messages are subject to the MaxQueue limit: they are what a storm
// amplifies, while scheduler deliveries are bounded by protocol state (one
// timer per missing round, one registration per periodic task) — dropping
// those would wedge timer-owning state machines forever (an armed Plumtree
// timer that never fires blocks that round's repair permanently), so
// After/Every stay genuinely infallible as the contract promises.
func (s *Sim) schedule(sh *shard, self id.ID, idx int32, oneshot bool, delay uint64, m *msg.Message) {
	kind, interval := kindPeriodic, delay
	if oneshot {
		kind, interval = kindTimer, 0
	}
	if s.inWave {
		r := sh.emit(s.now + delay)
		r.ev.from, r.ev.to, r.ev.kind, r.ev.exempt, r.ev.interval = self, idx, kind, false, interval
		r.ev.m = *m
		return
	}
	s.seq++
	if oneshot {
		ev := &s.enqueueAt(s.now+delay, s.seq, idx).ev
		ev.from, ev.kind, ev.m = self, kindTimer, *m
		return
	}
	s.enqueuePeriodic(s.now+delay, s.seq, &event{from: self, to: idx, kind: kind, interval: interval, m: *m})
}

// queueLimit resolves MaxQueue.
func (s *Sim) queueLimit() int {
	if s.MaxQueue > 0 {
		return s.MaxQueue
	}
	return 64 << 20
}

// ---- the barrier loop ----------------------------------------------------

// runInstant processes every event due at instant t (which may lie in the
// past for stale periodic rounds after a Drain advanced the clock), wave by
// wave, until the instant quiesces. It returns the number of deliveries.
func (s *Sim) runInstant(t uint64, periodic bool) int {
	if t > s.now {
		s.now = t
	}
	s.instantActive = true
	s.formWave(s.now, periodic)
	delivered := 0
	for {
		total := 0
		for i := range s.shards {
			total += len(s.shards[i].cur)
		}
		if total == 0 {
			break
		}
		if total < parallelMinWave && s.Tap == nil && s.Intercept == nil {
			delivered += s.runSerial()
			continue
		}
		if s.Tap != nil || s.Intercept != nil {
			s.prePass()
		}
		s.inWave = true
		for i := range s.shards {
			sh := &s.shards[i]
			sh.out, sh.prev = sh.prev[:0], sh.out
		}
		s.runWaves(total)
		s.inWave = false
		for i := range s.shards {
			sh := &s.shards[i]
			delivered += sh.waveDelivered
			s.wire -= sh.wireDone
			sh.cur = sh.cur[:0]
			sh.ppos = 0
		}
		s.mergeOutputs()
		// The next wave at this instant is whatever delay-0 output landed.
		for i := range s.shards {
			sh := &s.shards[i]
			sh.cur, sh.next = sh.next, sh.cur
			s.queued -= len(sh.cur)
		}
	}
	if s.held != nil {
		s.bpool = append(s.bpool, s.held[:0])
		s.held = nil
	}
	s.imm = s.imm[:0]
	s.instantActive = false
	return delivered
}

// formWave assembles the instant-t wave: the t bucket plus (in RunFor)
// periodic rounds due at or before t, ordered by (at, seq) and split across
// the shards' wave vectors. The bucket stays held — the wave points into it
// — until the instant quiesces.
func (s *Sim) formWave(t uint64, periodic bool) {
	var b []sevent
	if n := len(s.future); n > 0 && s.future[n-1].at == t {
		b = s.future[n-1].evs
		s.future[n-1] = bucket{}
		s.future = s.future[:n-1]
		s.queued -= len(b)
		s.held = b
	}
	if !periodic || len(s.periodic) == 0 || s.periodic[0].at > t {
		// Common case: the bucket is the wave.
		for i := range b {
			s.toWave(&b[i])
		}
		return
	}
	// Pull due periodic rounds in (at, seq) order; rounds whose deadline
	// already passed (Drain froze the schedule while time advanced) come
	// first, then rounds at exactly t interleave with the bucket by seq.
	s.due = s.due[:0]
	for len(s.periodic) > 0 && s.periodic[0].at <= t {
		s.due = append(s.due, popSevent(&s.periodic))
	}
	due := s.due
	di, bi := 0, 0
	for di < len(due) && due[di].at < t {
		s.toWave(&due[di])
		di++
	}
	for di < len(due) || bi < len(b) {
		if bi >= len(b) || (di < len(due) && due[di].seq < b[bi].seq) {
			s.toWave(&due[di])
			di++
		} else {
			s.toWave(&b[bi])
			bi++
		}
	}
}

// runWaves delivers the current wave: on the shard workers when it is large
// enough to pay for the handoff and the runtime has more than one P, on the
// coordinator otherwise.
func (s *Sim) runWaves(total int) {
	if !s.waveParallel || total < parallelMinWave {
		for i := range s.shards {
			s.shards[i].runWave()
		}
		return
	}
	if s.crew == nil {
		s.crew = newCrew(len(s.shards) - 1)
		runtime.AddCleanup(s, (*crew).stop, s.crew)
	}
	c := s.crew
	for i := 1; i < len(s.shards); i++ {
		sh := &s.shards[i]
		if len(sh.cur) == 0 {
			sh.waveDelivered, sh.wireDone = 0, 0
			continue
		}
		c.done.Add(1)
		c.start[i-1] <- sh
	}
	s.shards[0].runWave()
	c.done.Wait()
}

// prePass walks the wave across all shards in global seq order, running the
// Intercept hook and the Tap serially, in canonical delivery order, on the
// coordinator goroutine. Hook verdicts are recorded on the events (skip /
// replaced message) and applied during delivery.
func (s *Sim) prePass() {
	for {
		var best *shard
		for i := range s.shards {
			sh := &s.shards[i]
			if sh.ppos < len(sh.cur) && (best == nil || sh.cur[sh.ppos].seq < best.cur[best.ppos].seq) {
				best = sh
			}
		}
		if best == nil {
			return
		}
		se := best.cur[best.ppos]
		best.ppos++
		ev := &se.ev
		if ev.kind != kindMessage {
			continue
		}
		dst := &s.nodes[ev.to]
		if !dst.alive || !s.reachable(ev.from, dst.id) {
			continue // dropped during delivery; hooks never see it
		}
		if s.Intercept != nil && !ev.exempt {
			hooked := ev.m
			repl, deliver := s.Intercept(dst.id, &hooked)
			if !deliver {
				se.skip = true
				s.stats.FaultDropped++
				continue
			}
			if repl != nil {
				hooked = *repl
			}
			ev.m = hooked
		}
		if s.Tap != nil {
			s.Tap(ev.from, dst.id, ev.m)
		}
	}
}

// runWave delivers the shard's slice of the current wave. It runs on a shard
// worker for large waves and on the coordinator for small ones; either way
// it touches only this shard's nodes, output log and counters.
func (sh *shard) runWave() {
	s := sh.sim
	cur := sh.cur
	count, wireDone := 0, 0
	for i, se := range cur {
		// Lookahead touch: the wave vector already knows the next few
		// destinations, so start their node records' cache misses now and
		// let out-of-order execution overlap them with this delivery. A
		// one-event-at-a-time heap structurally cannot do this — the next
		// event is only known after the current pop. At 1M nodes every
		// delivery touches DRAM-cold node state, and this memory-level
		// parallelism is worth more than the arithmetic around it.
		if i+waveLookahead < len(cur) {
			if s.nodes[cur[i+waveLookahead].ev.to].alive {
				sh.touched++ // keeps the load live past dead-code elimination
			}
		}
		if se.ev.kind == kindMessage {
			wireDone++
		}
		count += sh.deliver(se)
	}
	sh.waveDelivered = count
	sh.wireDone = wireDone
}

// deliver hands one event to its destination, a node of this shard, and
// returns 1 when a process received it, 0 when it was dropped or parked.
// Inside a wave the periodic re-arm is recorded in the output log like any
// handler output; from runSerial it is sequenced immediately.
func (sh *shard) deliver(se *sevent) int {
	s := sh.sim
	ev := &se.ev
	dst := &s.nodes[ev.to]
	if !dst.alive {
		if ev.kind == kindMessage {
			sh.stats.dropped++
		} else {
			dst.parked = append(dst.parked, *ev)
		}
		return 0
	}
	sh.pseq, sh.birth = se.seq, 0
	if ev.kind == kindPeriodic {
		// Re-arm before delivering (birth 0: ahead of the handler's own
		// output), clamping missed deadlines like time.Ticker.
		next := se.at + ev.interval
		if next <= s.now {
			next = s.now + ev.interval
		}
		if s.inWave {
			sh.emit(next).ev = *ev
		} else {
			s.seq++
			s.enqueuePeriodic(next, s.seq, ev)
		}
	}
	if ev.kind == kindMessage {
		if !s.reachable(ev.from, dst.id) {
			sh.stats.dropped++
			return 0
		}
		if se.skip {
			return 0 // suppressed by the Intercept pre-pass
		}
	}
	// The record outlives the call: handler output goes to sh.out (or, from
	// runSerial, to imm), never to the log, bucket or scratch se lives in.
	if rd, ok := dst.proc.(peer.RefDeliverer); ok {
		rd.DeliverRef(ev.from, &ev.m)
	} else {
		dst.proc.Deliver(ev.from, ev.m)
	}
	if ev.kind == kindMessage {
		sh.stats.delivered++
	}
	return 1
}

// runSerial delivers a small wave, and whatever it triggers at this
// instant, one event at a time in global (at, seq) order on the
// coordinator, sequencing each handler's output as it is made. Without hooks
// that is exactly the order the wave loop produces (see the package
// comment), so this is purely a cost decision: a cycle-driven run is
// millions of instants of a few events each, and for them the per-wave
// bookkeeping — output logs, merge, vector swaps — costs more than the
// deliveries. The backlog goes back to the shards' wave
// vectors, for the wave loop, once it reaches parallelMinWave; the vectors
// are left empty when the instant quiesces.
func (s *Sim) runSerial() int {
	fifo := s.fifo[:0]
	for {
		var best *shard
		for i := range s.shards {
			sh := &s.shards[i]
			if sh.ppos < len(sh.cur) && (best == nil || seventLess(sh.cur[sh.ppos], best.cur[best.ppos])) {
				best = sh
			}
		}
		if best == nil {
			break
		}
		fifo = append(fifo, best.cur[best.ppos])
		best.ppos++
	}
	for i := range s.shards {
		sh := &s.shards[i]
		sh.cur, sh.ppos = sh.cur[:0], 0
	}
	formed := len(fifo)
	s.fifo, s.serial = fifo, true
	delivered, i := 0, 0
	for ; i < len(s.fifo) && len(s.fifo)-i < parallelMinWave; i++ {
		se := s.fifo[i]
		if se.ev.kind == kindMessage {
			s.wire--
		}
		delivered += s.shardOf(se.ev.to).deliver(se)
	}
	s.serial = false
	for _, se := range s.fifo[i:] {
		s.toWave(se)
	}
	s.queued -= len(s.fifo) - formed
	s.fifo = s.fifo[:0]
	return delivered
}

// mergeOutputs sequences every shard's wave output canonically: an S-way
// merge by (parent seq, birth index) — each shard's log is already sorted —
// assigning global sequence numbers, drawing latency delays from the root
// stream in merge order, and routing events to their destinations. This
// order is exactly the order in which a one-event-at-a-time run would have
// made the same schedule calls, which is what keeps traces byte-identical
// across shard counts.
func (s *Sim) mergeOutputs() {
	for i := range s.shards {
		s.shards[i].opos = 0
	}
	limit := s.queueLimit()
	for {
		var src *shard
		for i := range s.shards {
			sh := &s.shards[i]
			if sh.opos >= len(sh.out) {
				continue
			}
			if src == nil {
				src = sh
				continue
			}
			a, b := &sh.out[sh.opos], &src.out[src.opos]
			if a.pseq < b.pseq || (a.pseq == b.pseq && a.birth < b.birth) {
				src = sh
			}
		}
		if src == nil {
			return
		}
		r := &src.out[src.opos]
		src.opos++
		switch r.ev.kind {
		case kindMessage:
			var delay uint64
			if s.Latency != nil {
				delay = s.Latency(r.ev.from, s.nodes[r.ev.to].id, s.rand)
			}
			if s.wire >= limit {
				// Shed at the barrier: the sender already returned nil, so
				// roll its tentative counters back and count the overflow.
				s.stats.Overflowed++
				src.stats.sent--
				src.stats.bytesSent -= uint64(r.ev.m.EncodedSize())
				continue
			}
			s.wire++
			r.at = s.now + delay
		case kindPeriodic:
			s.seq++
			s.enqueuePeriodic(r.at, s.seq, &r.ev)
			continue
		}
		s.seq++
		r.seq = s.seq
		s.route(r)
	}
}

// ---- liveness bookkeeping ------------------------------------------------

// flushDowns delivers pending connection-reset notifications to live
// watchers. Notifications run before queued messages so that a batch of
// simultaneous failures is observed atomically, as the paper's methodology
// induces them. For each pending victim the per-shard watcher lists are
// unioned, sorted, and notified in ascending id order.
func (s *Sim) flushDowns() {
	for len(s.pendingDowns) > 0 {
		victim := s.pendingDowns[0]
		s.pendingDowns = s.pendingDowns[1:]
		vi, ok := s.nodeIndex(victim)
		if !ok {
			continue
		}
		// Handlers below may Watch and Unwatch, which edits the tables: work
		// on a copy.
		watcherIDs := s.watchBuf[:0]
		for i := range s.shards {
			if ws := s.shards[i].watching; int(vi) < len(ws) {
				watcherIDs = append(watcherIDs, ws[vi]...)
			}
		}
		s.watchBuf = watcherIDs
		if len(watcherIDs) == 0 {
			continue
		}
		sortIDs(watcherIDs)
		vDead := !s.nodes[vi].alive
		for _, w := range watcherIDs {
			wi, _ := s.nodeIndex(w)
			if !s.nodes[wi].alive {
				s.shardOf(wi).drop(w, vi) // dead watchers never hear anything again
				continue
			}
			// A crash resets every connection; a partition resets only the
			// links that cross the cut.
			if !vDead && s.reachable(w, victim) {
				continue
			}
			s.shardOf(wi).drop(w, vi)
			if obs, ok := s.nodes[wi].proc.(peer.FailureObserver); ok {
				obs.OnPeerDown(victim)
			}
		}
	}
}

// watch registers watcher (a node on this shard) as watching dst. A node the
// simulator does not host can never fail, so watching it is a no-op.
func (sh *shard) watch(watcher, dst id.ID) {
	s := sh.sim
	di, ok := s.nodeIndex(dst)
	if !ok {
		return
	}
	if n := len(s.nodes); int(di) >= len(sh.watching) {
		// Grow to the whole population at once. Only this shard's goroutine
		// writes the table, and the node table is fixed during a wave.
		for len(sh.watching) < n {
			sh.watching = append(sh.watching, nil)
		}
	}
	ws := sh.watching[di]
	i := searchID(ws, watcher)
	if i < len(ws) && ws[i] == watcher {
		return
	}
	ws = append(ws, 0)
	copy(ws[i+1:], ws[i:])
	ws[i] = watcher
	sh.watching[di] = ws
}

// unwatch cancels watcher's registration on dst.
func (sh *shard) unwatch(watcher, dst id.ID) {
	if di, ok := sh.sim.nodeIndex(dst); ok {
		sh.drop(watcher, di)
	}
}

// drop cancels watcher's registration on the node at table index di.
func (sh *shard) drop(watcher id.ID, di int32) {
	if int(di) >= len(sh.watching) {
		return
	}
	ws := sh.watching[di]
	i := searchID(ws, watcher)
	if i == len(ws) || ws[i] != watcher {
		return
	}
	copy(ws[i:], ws[i+1:])
	sh.watching[di] = ws[:len(ws)-1]
}

// watched reports whether any node watches the node at table index vi.
func (s *Sim) watched(vi int32) bool {
	for i := range s.shards {
		if ws := s.shards[i].watching; int(vi) < len(ws) && len(ws[vi]) > 0 {
			return true
		}
	}
	return false
}

// searchID returns the index of the first element of the ascending list xs
// that is >= x.
func searchID(xs []id.ID, x id.ID) int {
	lo, hi := 0, len(xs)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if xs[mid] < x {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// ---- the periodic heap ---------------------------------------------------

// pushSevent inserts se into the (at, seq) min-heap h.
func pushSevent(h *[]sevent, se sevent) {
	*h = append(*h, se)
	s := *h
	i := len(s) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !seventLess(&s[i], &s[p]) {
			break
		}
		s[i], s[p] = s[p], s[i]
		i = p
	}
}

// popSevent removes the minimum from h.
func popSevent(h *[]sevent) sevent {
	s := *h
	top := s[0]
	last := len(s) - 1
	s[0] = s[last]
	s = s[:last]
	*h = s
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		least := i
		if l < len(s) && seventLess(&s[l], &s[least]) {
			least = l
		}
		if r < len(s) && seventLess(&s[r], &s[least]) {
			least = r
		}
		if least == i {
			return top
		}
		s[i], s[least] = s[least], s[i]
		i = least
	}
}

func seventLess(a, b *sevent) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}
