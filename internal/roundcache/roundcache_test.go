package roundcache

import (
	"math/rand"
	"runtime"
	"testing"
	"unsafe"
)

func TestSetBasics(t *testing.T) {
	s := NewSet(100) // rounds up to 128
	if s.Contains(7) {
		t.Fatal("empty set contains 7")
	}
	if !s.Add(7) || s.Add(7) {
		t.Fatal("Add(7) newly-inserted semantics wrong")
	}
	if !s.Contains(7) || s.Len() != 1 {
		t.Fatalf("after Add(7): contains=%v len=%d", s.Contains(7), s.Len())
	}
	if !s.Remove(7) || s.Remove(7) || s.Contains(7) || s.Len() != 0 {
		t.Fatal("Remove(7) semantics wrong")
	}
}

func TestSetFIFOEviction(t *testing.T) {
	s := NewSet(4)
	for r := uint64(1); r <= 4; r++ {
		s.Add(r)
	}
	s.Add(5) // evicts 1, the oldest
	if s.Contains(1) {
		t.Fatal("oldest round not evicted")
	}
	for r := uint64(2); r <= 5; r++ {
		if !s.Contains(r) {
			t.Fatalf("round %d missing after eviction of 1", r)
		}
	}
	if s.Len() != 4 {
		t.Fatalf("Len = %d, want 4", s.Len())
	}
}

func TestSetRandomRounds(t *testing.T) {
	// The TCP agents draw round identifiers from a 64-bit random stream;
	// the cache must deduplicate the most recent capacity rounds exactly,
	// with no birthday-collision evictions (the failure mode of a
	// direct-mapped window).
	s := NewSet(64)
	r := rand.New(rand.NewSource(7))
	var recent []uint64
	for i := 0; i < 10_000; i++ {
		round := r.Uint64()
		if !s.Add(round) {
			t.Fatalf("fresh random round %d reported as duplicate", round)
		}
		if s.Add(round) {
			t.Fatal("immediate duplicate not detected")
		}
		recent = append(recent, round)
		if len(recent) > 64 {
			recent = recent[1:]
		}
		for _, rr := range recent {
			if !s.Contains(rr) {
				t.Fatalf("round %d (within the last %d) evicted early", rr, len(recent))
			}
		}
	}
}

func TestSetResetInPlace(t *testing.T) {
	s := NewSet(16)
	for r := uint64(0); r < 16; r++ {
		s.Add(r)
	}
	s.Reset()
	if s.Len() != 0 {
		t.Fatalf("Len after Reset = %d", s.Len())
	}
	for r := uint64(0); r < 16; r++ {
		if s.Contains(r) {
			t.Fatalf("round %d survived Reset", r)
		}
	}
	// The table must be fully usable after an in-place reset.
	for r := uint64(100); r < 116; r++ {
		if !s.Add(r) {
			t.Fatalf("Add(%d) after Reset failed", r)
		}
	}
	if s.Len() != 16 {
		t.Fatalf("Len after refill = %d", s.Len())
	}
}

func TestSetZeroRound(t *testing.T) {
	s := NewSet(8)
	if s.Contains(0) {
		t.Fatal("empty set contains round 0")
	}
	s.Add(0)
	if !s.Contains(0) {
		t.Fatal("round 0 not stored")
	}
}

// TestSetAgainstModel drives the set with random adds/removes and checks
// every answer against a reference map + FIFO list.
func TestSetAgainstModel(t *testing.T) {
	const capacity = 16
	s := NewSet(capacity)
	present := map[uint64]bool{}
	var order []uint64 // insertion order of live entries (ghosts removed)
	r := rand.New(rand.NewSource(99))
	for i := 0; i < 50_000; i++ {
		round := uint64(r.Intn(64)) // small space: plenty of collisions
		switch r.Intn(3) {
		case 0, 1:
			added := s.Add(round)
			if added == present[round] {
				t.Fatalf("step %d: Add(%d)=%v but model present=%v", i, round, added, present[round])
			}
			if added {
				// Model the FIFO ring: a new insertion evicts the entry
				// capacity insertions ago. Ghost entries (removed rounds)
				// still occupy ring slots, so replay the same rule: track
				// all insertions, evict the one falling off the window if
				// still present.
				order = append(order, round)
				present[round] = true
				if len(order) > capacity {
					victim := order[0]
					order = order[1:]
					if victim != round {
						delete(present, victim)
					}
				}
			}
		case 2:
			removed := s.Remove(round)
			if removed != present[round] {
				t.Fatalf("step %d: Remove(%d)=%v but model present=%v", i, round, removed, present[round])
			}
			delete(present, round)
			// The ring keeps its ghost; the model's order list keeps it too
			// so window accounting matches. Mark it dead by leaving present
			// unset — the eviction replay above skips dead victims via the
			// present check in Contains comparisons below.
		}
		for rr := uint64(0); rr < 64; rr++ {
			if s.Contains(rr) != present[rr] {
				t.Fatalf("step %d: Contains(%d)=%v, model %v", i, rr, s.Contains(rr), present[rr])
			}
		}
		if s.Len() != len(present) {
			t.Fatalf("step %d: Len=%d, model %d", i, s.Len(), len(present))
		}
	}
}

func TestCacheReusesEntries(t *testing.T) {
	type val struct{ xs []int }
	c := New[val](4)
	v, existed := c.Put(1)
	if existed {
		t.Fatal("fresh Put reports existed")
	}
	v.xs = append(v.xs[:0], 1, 2, 3)

	if got := c.Get(1); got == nil || len(got.xs) != 3 {
		t.Fatalf("Get(1) = %+v", got)
	}
	c.Remove(1)
	if c.Get(1) != nil {
		t.Fatal("removed round still readable")
	}
	// After cycling far past capacity, total backing capacity is recycled:
	// the cache allocates nothing in steady state (pinned precisely by the
	// AllocsPerRun tests in the protocol packages; here we assert the
	// values keep non-trivial capacity to recycle).
	recycled := 0
	for r := uint64(10); r < 200; r++ {
		v, _ := c.Put(r)
		if cap(v.xs) > 0 {
			recycled++
		}
		v.xs = append(v.xs[:0], int(r))
	}
	if recycled == 0 {
		t.Fatal("no value slot was ever recycled with its backing array")
	}
}

func TestCacheFIFOEvictionAndReset(t *testing.T) {
	c := New[int](4)
	for r := uint64(0); r < 6; r++ {
		v, _ := c.Put(r)
		*v = int(r)
	}
	// Rounds 0 and 1 fell off the 4-entry window.
	if c.Get(0) != nil || c.Get(1) != nil {
		t.Fatal("evicted rounds still present")
	}
	for r := uint64(2); r < 6; r++ {
		if v := c.Get(r); v == nil || *v != int(r) {
			t.Fatalf("Get(%d) = %v", r, v)
		}
	}
	if c.Len() != 4 {
		t.Fatalf("Len = %d, want 4", c.Len())
	}
	c.Reset()
	if c.Len() != 0 || c.Get(3) != nil {
		t.Fatal("Reset did not clear keys")
	}
}

// TestCacheAgainstModel mirrors TestSetAgainstModel for the value cache,
// additionally checking stored values survive the backward-shift moves.
func TestCacheAgainstModel(t *testing.T) {
	const capacity = 8
	c := New[uint64](capacity)
	present := map[uint64]uint64{}
	var order []uint64
	r := rand.New(rand.NewSource(3))
	for i := 0; i < 50_000; i++ {
		round := uint64(r.Intn(48))
		switch r.Intn(3) {
		case 0, 1:
			_, existedModel := present[round]
			v, existed := c.Put(round)
			if existed != existedModel {
				t.Fatalf("step %d: Put(%d) existed=%v, model %v", i, round, existed, existedModel)
			}
			*v = round * 1000
			if !existed {
				order = append(order, round)
				present[round] = round * 1000
				if len(order) > capacity {
					victim := order[0]
					order = order[1:]
					if victim != round {
						delete(present, victim)
					}
				}
			}
		case 2:
			_, existedModel := present[round]
			if c.Remove(round) != existedModel {
				t.Fatalf("step %d: Remove(%d) mismatch", i, round)
			}
			delete(present, round)
		}
		for rr := uint64(0); rr < 48; rr++ {
			v := c.Get(rr)
			want, ok := present[rr]
			if (v != nil) != ok {
				t.Fatalf("step %d: Get(%d) presence=%v, model %v", i, rr, v != nil, ok)
			}
			if v != nil && *v != want {
				t.Fatalf("step %d: Get(%d)=%d, model %d (value lost in a shift?)", i, rr, *v, want)
			}
		}
	}
}

// TestCacheGetPointerSurvivesOtherRemovals pins the guarantee that values
// never move: a pointer returned by Get stays valid — same address, same
// value, writes through it visible to later Gets — across Removes of other
// rounds and the backward shifts they cause in the hash table.
func TestCacheGetPointerSurvivesOtherRemovals(t *testing.T) {
	const capacity = 64
	c := New[uint64](capacity)
	// Pick rounds sharing one home slot, so removing the head of their probe
	// chain must shift the rest back.
	home := c.t.home(0)
	var chain []uint64
	for r := uint64(0); len(chain) < 6; r++ {
		if c.t.home(r) == home {
			chain = append(chain, r)
		}
	}
	ptrs := map[uint64]*uint64{}
	for _, r := range chain {
		v, _ := c.Put(r)
		*v = r + 1000
		ptrs[r] = v
	}
	slotBefore := c.t.slotOf(chain[len(chain)-1])
	for _, r := range chain[:3] {
		if !c.Remove(r) {
			t.Fatalf("Remove(%d) = false", r)
		}
		delete(ptrs, r)
	}
	if c.t.slotOf(chain[len(chain)-1]) == slotBefore {
		t.Fatal("no backward shift happened; the test does not exercise one")
	}
	for r, p := range ptrs {
		got := c.Get(r)
		if got != p {
			t.Fatalf("Get(%d) moved from %p to %p", r, p, got)
		}
		if *p != r+1000 {
			t.Fatalf("round %d value = %d through the old pointer, want %d", r, *p, r+1000)
		}
		*p = r + 2000
	}
	for r := range ptrs {
		if v := c.Get(r); *v != r+2000 {
			t.Fatalf("write through the old pointer lost for round %d: %d", r, *v)
		}
	}
	// Fresh inserts that evict nothing live leave the pointers valid too.
	for r := uint64(1 << 20); r < 1<<20+capacity-uint64(len(chain)); r++ {
		c.Put(r)
	}
	for r, p := range ptrs {
		if c.Get(r) != p || *p != r+2000 {
			t.Fatalf("round %d moved or changed after unrelated inserts", r)
		}
	}
}

// TestCapacityClamp pins the capacity bound: ring positions are stored as
// uint16 (position+1), so capacity clamps to 1<<15. The protocol layers ask
// for at most 1,024 (plumtree.DefaultCacheWindow 512, gossip.TrackerWindow
// 1024, gossip.DefaultSeenWindow 128).
func TestCapacityClamp(t *testing.T) {
	for _, asked := range []int{1<<15 + 1, 1 << 20} {
		s := NewSet(asked)
		if len(s.t.ring) != 1<<15 || len(s.t.slots) != 1<<16 {
			t.Fatalf("NewSet(%d): ring %d, table %d; want 1<<15 and 1<<16", asked, len(s.t.ring), len(s.t.slots))
		}
	}
	s := NewSet(1 << 15)
	for r := uint64(0); r < 1<<15; r++ {
		s.Add(r)
	}
	for r := uint64(0); r < 1<<15; r++ {
		if !s.Contains(r) {
			t.Fatalf("round %d lost at full capacity", r)
		}
	}
	s.Add(1 << 15) // evicts round 0, the oldest
	if s.Contains(0) || !s.Contains(1<<15) || !s.Contains(1) || s.Len() != 1<<15 {
		t.Fatalf("eviction at full capacity: contains(0)=%v contains(1<<15)=%v len=%d",
			s.Contains(0), s.Contains(1<<15), s.Len())
	}
}

// allocBytes returns the heap bytes one call of f allocates, averaged over
// runs calls.
func allocBytes(runs int, f func()) uint64 {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return (after.TotalAlloc - before.TotalAlloc) / uint64(runs)
}

var sink any

// plumtreeCached has the size of plumtree's per-round cached entry
// (payload slice, topic, hops, parent ID: 40 bytes on 64-bit platforms).
type plumtreeCached struct {
	payload []byte
	topic   uint32
	hops    uint16
	parent  uint64
}

// TestConstructionBytes pins the compact layout: a capacity-c container
// allocates its c-entry ring (8 bytes each), its 2c-slot table (2 bytes
// each), c values for a Cache, and its header — each round stored once.
// The slack covers the header and the allocator's size-class rounding
// (20,480 B of pointerful values land in the 21,760 B class).
func TestConstructionBytes(t *testing.T) {
	within := func(got, want uint64) bool { return got <= want+want/8 }
	if got, want := allocBytes(200, func() { sink = NewSet(128) }), uint64(128*8+256*2); !within(got, want) {
		t.Errorf("NewSet(128) allocates %d B, want %d + 12.5%%", got, want)
	}
	size := uint64(unsafe.Sizeof(plumtreeCached{}))
	if got, want := allocBytes(200, func() { sink = New[plumtreeCached](512) }), 512*8+1024*2+512*size; !within(got, want) {
		t.Errorf("New[plumtreeCached](512) allocates %d B, want %d + 12.5%%", got, want)
	}
}

// TestSaturatedDisplacement drives long probe chains through tables whose
// slots have few or no displacement bits left (capacity 1<<12 keeps 3,
// 1<<15 keeps none), so lookups and backward shifts must fall back to the
// ring for the home of saturated entries. Rounds are chosen to share a
// handful of home slots; every answer is checked against a map.
func TestSaturatedDisplacement(t *testing.T) {
	for _, capacity := range []int{1 << 12, 1 << 15} {
		c := New[uint64](capacity)
		var rounds []uint64
		for r := uint64(0); len(rounds) < 600; r++ {
			if c.t.home(r) < 4 {
				rounds = append(rounds, r)
			}
		}
		model := map[uint64]uint64{}
		rnd := rand.New(rand.NewSource(5))
		for step := 0; step < 4000; step++ {
			r := rounds[rnd.Intn(len(rounds))]
			if rnd.Intn(3) == 0 {
				_, ok := model[r]
				if c.Remove(r) != ok {
					t.Fatalf("capacity %d step %d: Remove(%d) disagrees with the model", capacity, step, r)
				}
				delete(model, r)
				continue
			}
			v, existed := c.Put(r)
			if _, ok := model[r]; existed != ok {
				t.Fatalf("capacity %d step %d: Put(%d) existed=%v, model %v", capacity, step, r, existed, ok)
			}
			*v = r * 3
			model[r] = r * 3
		}
		if c.Len() != len(model) {
			t.Fatalf("capacity %d: Len %d, model %d", capacity, c.Len(), len(model))
		}
		for _, r := range rounds {
			v := c.Get(r)
			want, ok := model[r]
			if (v != nil) != ok || ok && *v != want {
				t.Fatalf("capacity %d: Get(%d) = %v, model %d/%v", capacity, r, v, want, ok)
			}
		}
	}
}
