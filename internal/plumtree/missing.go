package plumtree

import "math/bits"

// missing tracks a round known only through announcements. Entries hold
// their announcers in a fixed inline array, so the repair bookkeeping
// allocates nothing however many rounds churn through it. maxSources bounds
// the graft fall-back chain; announcers beyond it are dropped, which costs
// at most repair attempts (a later IHAVE re-announces), never correctness.
type missing struct {
	key     uint64             // round+1; 0 marks an empty table slot
	seq     uint64             // insertion order, for eviction at the window
	sources [maxSources]source // announcers in arrival order; grafts try them in turn
	nsrc    uint8              // live prefix of sources
	timer   bool               // a timer message is in flight for this round
}

// missTable holds the missing rounds, sized to the rounds actually missing:
// an open-addressed table (fibonacci hashing, linear probing, backward-shift
// deletion) that starts empty and doubles before it passes half load, then
// keeps its high-water size. A round is missing from its first IHAVE until
// its payload arrives or its announcers are exhausted. In the simulator
// that is at most one round per node; on TCP, where lazy announcements
// often beat the eager path and repair waits out the missing-message timer,
// hundreds of rounds can be missing at once.
type missTable struct {
	slots []missing
	n     int    // live entries
	seq   uint64 // insertions so far
	shift uint8  // 64 - log2(len(slots)): fibonacci hash shift
}

// fib is the 64-bit fibonacci hashing multiplier (2^64 / φ).
const fib = 0x9E3779B97F4A7C15

func (t *missTable) home(key uint64) int { return int((key * fib) >> t.shift) }

// slotOf returns the slot holding round, or -1.
func (t *missTable) slotOf(round uint64) int {
	if t.n == 0 {
		return -1
	}
	mask := len(t.slots) - 1
	for i := t.home(round + 1); ; i = (i + 1) & mask {
		switch t.slots[i].key {
		case round + 1:
			return i
		case 0:
			return -1
		}
	}
}

// get returns round's entry, or nil. The pointer is valid until the next
// put, remove or reset.
func (t *missTable) get(round uint64) *missing {
	if i := t.slotOf(round); i >= 0 {
		return &t.slots[i]
	}
	return nil
}

// put returns round's entry. An absent round gets a fresh one, after the
// oldest entry is evicted if window entries are already live.
func (t *missTable) put(round uint64, window int) *missing {
	if ms := t.get(round); ms != nil {
		return ms
	}
	if t.n >= window {
		t.evictOldest()
	}
	if 2*(t.n+1) > len(t.slots) {
		t.grow()
	}
	t.seq++
	i := t.free(round + 1)
	t.slots[i] = missing{key: round + 1, seq: t.seq}
	t.n++
	return &t.slots[i]
}

// free returns the first empty slot on key's probe path.
func (t *missTable) free(key uint64) int {
	mask := len(t.slots) - 1
	i := t.home(key)
	for t.slots[i].key != 0 {
		i = (i + 1) & mask
	}
	return i
}

// grow doubles the table (to two slots from empty) and re-inserts the live
// entries.
func (t *missTable) grow() {
	old := t.slots
	t.slots = make([]missing, max(2, 2*len(old)))
	t.shift = uint8(64 - bits.TrailingZeros(uint(len(t.slots))))
	for i := range old {
		if old[i].key != 0 {
			t.slots[t.free(old[i].key)] = old[i]
		}
	}
}

// evictOldest removes the entry inserted first among the live ones.
func (t *missTable) evictOldest() {
	oldest := -1
	for i := range t.slots {
		if t.slots[i].key != 0 && (oldest < 0 || t.slots[i].seq < t.slots[oldest].seq) {
			oldest = i
		}
	}
	t.removeSlot(oldest)
}

// remove deletes round's entry, if any.
func (t *missTable) remove(round uint64) {
	if i := t.slotOf(round); i >= 0 {
		t.removeSlot(i)
	}
}

// removeSlot empties slot i, shifting back the entries after it whose probe
// chains would otherwise break at the hole.
func (t *missTable) removeSlot(i int) {
	mask := len(t.slots) - 1
	t.slots[i].key = 0
	t.n--
	hole := i
	for j := (i + 1) & mask; t.slots[j].key != 0; j = (j + 1) & mask {
		home := t.home(t.slots[j].key)
		// Keep the entry when its home lies in the cyclic (hole, j]: the
		// hole does not cut its probe path.
		if hole <= j && hole < home && home <= j || hole > j && (home > hole || home <= j) {
			continue
		}
		t.slots[hole] = t.slots[j]
		t.slots[j].key = 0
		hole = j
	}
}

// appendRounds appends the missing rounds to dst in table order.
func (t *missTable) appendRounds(dst []uint64) []uint64 {
	for i := range t.slots {
		if k := t.slots[i].key; k != 0 {
			dst = append(dst, k-1)
		}
	}
	return dst
}

// reset empties the table in place, keeping its size.
func (t *missTable) reset() {
	clear(t.slots)
	t.n = 0
}
