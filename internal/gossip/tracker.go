package gossip

import "hyparview/internal/roundcache"

// TrackerWindow is the capacity, in rounds, of the tracker's per-round
// statistics cache. The harness measures one round at a time (each broadcast
// is fully drained, read and Forgotten before the next), so the window only
// has to cover rounds measured concurrently; 1024 leaves two orders of
// magnitude of slack while keeping each stripe a flat 36 KiB for the life of
// a run (an 8-byte ring slot, two 2-byte hash slots and a 24-byte roundStats
// per round).
const TrackerWindow = 1024

// Tracker aggregates per-round delivery statistics across a simulated
// cluster. The experiment harness installs one Tracker-backed Delivery
// callback per node and reads reliability figures from it.
//
// Gossip reliability is defined in the paper (§2.5) as the percentage of
// live nodes that deliver a broadcast; 100% means atomic broadcast.
//
// The per-round state lives in a fixed-capacity round cache: Deliver on the
// per-delivery hot path is one array access and never allocates, and a round
// older than TrackerWindow behind the newest tracked round is evicted (its
// statistics read as zero, exactly as after Forget).
//
// A striped tracker (NewStripedTracker) keeps one cache per stripe so that
// deliveries recorded through different stripes' callbacks may run
// concurrently — the simulator's shards each write their own stripe — and
// sums the stripes on read. Every statistic is a sum or a max, so the
// result does not depend on which stripe recorded a delivery.
type Tracker struct {
	next    uint64
	stripes []*roundcache.Cache[roundStats]
}

type roundStats struct {
	delivered int
	maxHops   int
	sumHops   int
}

// NewTracker returns an empty tracker with a single stripe.
func NewTracker() *Tracker { return NewStripedTracker(1) }

// NewStripedTracker returns an empty tracker with the given number of
// stripes (at least one).
func NewStripedTracker(stripes int) *Tracker {
	t := &Tracker{stripes: make([]*roundcache.Cache[roundStats], max(stripes, 1))}
	for i := range t.stripes {
		t.stripes[i] = roundcache.New[roundStats](TrackerWindow)
	}
	return t
}

// NextRound allocates a fresh round identifier.
func (t *Tracker) NextRound() uint64 {
	t.next++
	return t.next
}

// Deliver records one delivery of round after hops overlay hops on the
// first stripe. It is the Delivery callback to install on gossip nodes.
func (t *Tracker) Deliver(round uint64, _ uint32, _ []byte, hops int) {
	record(t.stripes[0], round, hops)
}

// Stripe returns the Delivery callback recording on stripe i. Callbacks of
// different stripes may run concurrently with each other, but not with the
// tracker's readers.
func (t *Tracker) Stripe(i int) func(round uint64, topic uint32, payload []byte, hops int) {
	c := t.stripes[i]
	return func(round uint64, _ uint32, _ []byte, hops int) { record(c, round, hops) }
}

func record(c *roundcache.Cache[roundStats], round uint64, hops int) {
	rs, existed := c.Put(round)
	if !existed {
		*rs = roundStats{}
	}
	rs.delivered++
	rs.sumHops += hops
	if hops > rs.maxHops {
		rs.maxHops = hops
	}
}

// stats sums round's statistics over the stripes.
func (t *Tracker) stats(round uint64) roundStats {
	var sum roundStats
	for _, c := range t.stripes {
		if rs := c.Get(round); rs != nil {
			sum.delivered += rs.delivered
			sum.sumHops += rs.sumHops
			sum.maxHops = max(sum.maxHops, rs.maxHops)
		}
	}
	return sum
}

// Delivered returns the number of nodes that delivered round.
func (t *Tracker) Delivered(round uint64) int { return t.stats(round).delivered }

// Reliability returns the fraction (0..1) of the alive population that
// delivered round.
func (t *Tracker) Reliability(round uint64, alive int) float64 {
	if alive <= 0 {
		return 0
	}
	return float64(t.Delivered(round)) / float64(alive)
}

// MaxHops returns the maximum hop count observed for round's deliveries.
func (t *Tracker) MaxHops(round uint64) int { return t.stats(round).maxHops }

// AvgHops returns the mean delivery hop count for round.
func (t *Tracker) AvgHops(round uint64) float64 {
	rs := t.stats(round)
	if rs.delivered == 0 {
		return 0
	}
	return float64(rs.sumHops) / float64(rs.delivered)
}

// Forget drops the statistics of round.
func (t *Tracker) Forget(round uint64) {
	for _, c := range t.stripes {
		c.Remove(round)
	}
}

// Reset drops all per-round statistics in place (no allocation) but keeps
// the round counter monotonic.
func (t *Tracker) Reset() {
	for _, c := range t.stripes {
		c.Reset()
	}
}
