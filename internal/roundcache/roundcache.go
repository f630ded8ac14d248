// Package roundcache provides fixed-capacity, allocation-free caches keyed by
// broadcast round identifiers.
//
// The broadcast layers (internal/gossip, internal/plumtree) and the delivery
// tracker need per-round state — "have I delivered round r?", the cached
// payload for GRAFT retransmission, per-round delivery statistics. Go maps
// give the right semantics but the wrong cost model: every insert may
// allocate, Reset either re-allocates the map or leaves its bucket array at
// high-water size, and at 100k nodes the per-delivery map traffic dominates
// the whole protocol stack (see BENCH_sim.json).
//
// Both containers here are two arrays. An insertion-ordered ring stores each
// round once, and a Cache's value for it at the same position; values never
// move. An open-addressed hash table (linear probing, backward-shift
// deletion, fibonacci hashing) at ≤50% load maps rounds to ring positions
// in uint16 slots, so a capacity-c Set costs 8c + 4c bytes (1.5 KiB for the
// flood layer's 128 rounds) and a Cache adds c values. The bits a slot does
// not need for its position cache the entry's probe displacement, so probes
// and deletions touch the ring only for entries sharing the sought round's
// home slot: per-node tables are cache-cold at 10k nodes, and each ring read
// would be one more cache miss.
//
// Eviction is FIFO by insertion: once capacity rounds are held, inserting a
// new round evicts the round added capacity insertions ago. That bounds
// memory for the life of the node, keeps the steady state allocation-free,
// and — unlike a window keyed on round values — guarantees the most recent
// capacity distinct rounds are remembered exactly, whatever the identifiers
// look like. That last property matters: the simulator's harness allocates
// rounds monotonically, but the TCP agents draw them from a 64-bit random
// stream, and a cache that assumed monotonicity would evict live rounds
// under birthday collisions and re-deliver (observed as reliability > 1 in
// the 12-agent loopback soak before this design).
//
// An evicted delivered-round entry can at worst re-deliver a message older
// than capacity rounds — the bounded-memory trade every deployed gossip
// message-id cache makes.
package roundcache

// fib is the 64-bit fibonacci hashing multiplier (2^64 / φ); the high bits
// of round*fib spread both sequential and random round identifiers uniformly
// over a power-of-two table.
const fib = 0x9E3779B97F4A7C15

// maxCapacity bounds the ring so every position fits the table's uint16
// slots (position+1, with 0 meaning empty).
const maxCapacity = 1 << 15

// table is the shared core: the ring of inserted rounds and the hash table
// over it. Set embeds it alone; Cache pairs it with a value array indexed by
// ring position.
//
// A ring slot keeps its round after the round is removed (a ghost): when
// the ring wraps onto the slot, that round is evicted by key wherever it
// now lives, exactly as if the slot still held it. Every live table entry
// points at a ring slot holding its own round, because a slot is only
// overwritten after its round has been evicted.
type table struct {
	ring  []uint64 // round+1 per insertion position; 0 = never written
	slots []uint16 // per hash slot: ring position+1 (0 = empty) and displacement, see posBits
	head  int      // next ring write position (oldest insertion when full)
	n     int      // live rounds
	shift uint8    // 64 - log2(len(slots)): fibonacci hash shift

	// A slot's low posBits bits hold its ring position+1; the bits above
	// hold its distance from its home slot, saturating at maxDisp, which
	// means "at least maxDisp: read the ring for the home". At the maximum
	// capacity no bits are left and every entry reads as saturated.
	posBits uint8
	posMask uint16
	maxDisp int
}

func (t *table) init(capacity int) {
	c := ceilPow2(capacity)
	t.ring = make([]uint64, c)
	t.slots = make([]uint16, 2*c) // ≤50% load keeps probe chains short
	t.head = 0
	t.n = 0
	t.shift = 64
	for 1<<(64-t.shift) < 2*c {
		t.shift--
	}
	t.posBits = 64 - t.shift // log2(2c) bits hold position+1 ∈ [1, c]
	t.posMask = uint16(1<<t.posBits - 1)
	t.maxDisp = 1<<(16-t.posBits) - 1
}

func (t *table) home(round uint64) int {
	return int((round * fib) >> t.shift)
}

// pack encodes ring position pos at displacement disp from its home.
func (t *table) pack(pos, disp int) uint16 {
	return uint16(pos+1) | uint16(min(disp, t.maxDisp))<<t.posBits
}

// pos returns the ring position a non-empty slot value points at.
func (t *table) pos(s uint16) int { return int(s&t.posMask) - 1 }

// homeOf returns the home slot of the entry held in slot j.
func (t *table) homeOf(j int) int {
	s := t.slots[j]
	if d := int(s >> t.posBits); d < t.maxDisp {
		return (j - d) & (len(t.slots) - 1)
	}
	return t.home(t.ring[t.pos(s)] - 1)
}

// slotOf returns the hash slot holding round, or -1. Only entries whose
// displacement matches the probe's — those sharing round's home — are
// compared against the ring.
func (t *table) slotOf(round uint64) int {
	mask := len(t.slots) - 1
	for i, d := t.home(round), 0; ; i, d = (i+1)&mask, d+1 {
		s := t.slots[i]
		if s == 0 {
			return -1
		}
		if int(s>>t.posBits) == min(d, t.maxDisp) && t.ring[t.pos(s)] == round+1 {
			return i
		}
	}
}

// find returns the ring position holding round, or -1.
func (t *table) find(round uint64) int {
	i := t.slotOf(round)
	if i < 0 {
		return -1
	}
	return t.pos(t.slots[i])
}

// insert adds round (not present) at the ring head, first evicting the
// round recorded there capacity insertions ago if it is still live, and
// returns the ring position now holding round.
func (t *table) insert(round uint64) int {
	pos := t.head
	if old := t.ring[pos]; old != 0 {
		t.remove(old - 1)
	}
	t.ring[pos] = round + 1
	t.head++
	if t.head == len(t.ring) {
		t.head = 0
	}
	mask := len(t.slots) - 1
	h := t.home(round)
	i := h
	for t.slots[i] != 0 {
		i = (i + 1) & mask
	}
	t.slots[i] = t.pack(pos, (i-h)&mask)
	t.n++
	return pos
}

// remove deletes round from the hash table using backward-shift deletion
// (no tombstones: probe chains stay minimal forever) and reports whether it
// was present. Only slots move; the ring and values stay put.
func (t *table) remove(round uint64) bool {
	i := t.slotOf(round)
	if i < 0 {
		return false
	}
	mask := len(t.slots) - 1
	t.slots[i] = 0
	t.n--
	// Backward shift: walk the probe chain after i, moving up any entry
	// whose home position does not lie in the (hole, current] window —
	// i.e. entries that could no longer be found once the hole stops their
	// probe chain.
	hole := i
	for j := (i + 1) & mask; t.slots[j] != 0; j = (j + 1) & mask {
		home := t.homeOf(j)
		if cyclicBetween(hole, home, j) {
			continue
		}
		t.slots[hole] = t.pack(t.pos(t.slots[j]), (hole-home)&mask)
		t.slots[j] = 0
		hole = j
	}
	return true
}

// cyclicBetween reports whether pos lies in the half-open cyclic interval
// (hole, j]: the positions a probe starting after hole still visits.
func cyclicBetween(hole, pos, j int) bool {
	if hole <= j {
		return hole < pos && pos <= j
	}
	return pos > hole || pos <= j
}

func (t *table) reset() {
	clear(t.ring)
	clear(t.slots)
	t.head = 0
	t.n = 0
}

// Set is a fixed-capacity set of round identifiers with allocation-free
// Add/Contains/Remove and FIFO eviction. The zero value is invalid; use
// NewSet, or embed a Set by value and Init it (one pointer dereference fewer
// on every operation, which is measurable when the set is consulted per
// delivered event across 100k cache-cold nodes).
type Set struct {
	t table
}

// NewSet returns a set remembering the most recent capacity rounds.
// Capacity is rounded up to a power of two and clamped to [2, 1<<15].
func NewSet(capacity int) *Set {
	s := &Set{}
	s.Init(capacity)
	return s
}

// Init (re)initializes the set with the given capacity.
func (s *Set) Init(capacity int) { s.t.init(capacity) }

// Contains reports whether round is in the set.
func (s *Set) Contains(round uint64) bool { return s.t.slotOf(round) >= 0 }

// Add inserts round, evicting the round added capacity insertions ago if it
// is still present. It reports whether round was newly inserted (false:
// already present).
func (s *Set) Add(round uint64) bool {
	if s.t.slotOf(round) >= 0 {
		return false
	}
	s.t.insert(round)
	return true
}

// Remove deletes round and reports whether it was present.
func (s *Set) Remove(round uint64) bool { return s.t.remove(round) }

// Len returns the number of rounds currently held.
func (s *Set) Len() int { return s.t.n }

// Reset clears the set in place; no memory is released or allocated.
func (s *Set) Reset() { s.t.reset() }

// Cache is a fixed-capacity map from round identifiers to values of type V
// with allocation-free steady-state access and FIFO eviction. A value lives
// at its round's ring position and is recycled in place when the ring wraps
// onto it, so a V holding slices keeps its backing arrays across generations
// (the "reuse entries instead of make-on-reset" discipline). The zero value
// is invalid; use New, or embed by value and Init.
type Cache[V any] struct {
	t    table
	vals []V // vals[p] belongs to the round at ring position p
}

// New returns a cache remembering the most recent capacity rounds. Capacity
// is rounded up to a power of two and clamped to [2, 1<<15].
func New[V any](capacity int) *Cache[V] {
	c := &Cache[V]{}
	c.Init(capacity)
	return c
}

// Init (re)initializes the cache with the given capacity.
func (c *Cache[V]) Init(capacity int) {
	c.t.init(capacity)
	c.vals = make([]V, len(c.t.ring))
}

// Get returns a pointer to round's value, or nil when round is absent.
// Values never move, so the pointer stays valid until round itself leaves
// the cache — its Remove, its FIFO eviction by a later Put, or Reset —
// whatever happens to other rounds meanwhile.
func (c *Cache[V]) Get(round uint64) *V {
	p := c.t.find(round)
	if p < 0 {
		return nil
	}
	return &c.vals[p]
}

// Put inserts round (evicting the round added capacity insertions ago, if
// still present) and returns a pointer to its value slot together with
// whether the round was already present. The value slot is NOT zeroed on
// eviction or fresh insert: the caller resets the fields it uses, which is
// what lets entries recycle their slice capacity.
func (c *Cache[V]) Put(round uint64) (v *V, existed bool) {
	if p := c.t.find(round); p >= 0 {
		return &c.vals[p], true
	}
	return &c.vals[c.t.insert(round)], false
}

// Remove deletes round, keeping its value slot's memory for reuse, and
// reports whether it was present.
func (c *Cache[V]) Remove(round uint64) bool { return c.t.remove(round) }

// Len returns the number of rounds currently held.
func (c *Cache[V]) Len() int { return c.t.n }

// Reset clears the ring and table in place. Values are kept untouched for
// reuse: the next Put of any round hands back a previous value to recycle.
func (c *Cache[V]) Reset() { c.t.reset() }

// ceilPow2 rounds capacity up to a power of two, clamping to
// [2, maxCapacity].
func ceilPow2(capacity int) int {
	capacity = min(max(capacity, 2), maxCapacity)
	p := 2
	for p < capacity {
		p <<= 1
	}
	return p
}
