package plumtree

import (
	"maps"
	"math/rand"
	"slices"
	"testing"
)

// TestMissTableAgainstModel drives the missing-round table with random
// puts and removes over a small round space (long probe chains, many
// backward shifts, growth from empty) and checks every answer against a map
// plus the insertion order the window eviction follows.
func TestMissTableAgainstModel(t *testing.T) {
	const window = 24
	var tab missTable
	model := map[uint64]uint8{} // round -> nsrc written through put
	var order []uint64          // live rounds, oldest first
	r := rand.New(rand.NewSource(11))
	for step := 0; step < 50_000; step++ {
		round := uint64(r.Intn(64))
		if r.Intn(3) == 2 {
			tab.remove(round)
			delete(model, round)
			order = slices.DeleteFunc(order, func(x uint64) bool { return x == round })
		} else {
			ms := tab.put(round, window)
			if _, ok := model[round]; !ok {
				if ms.nsrc != 0 || ms.timer {
					t.Fatalf("step %d: fresh entry for %d not zeroed", step, round)
				}
				if len(order) == window {
					delete(model, order[0])
					order = order[1:]
				}
				order = append(order, round)
			}
			ms.nsrc = uint8(round)
			model[round] = uint8(round)
		}
		if tab.n != len(model) || len(tab.slots) > 2*64 {
			t.Fatalf("step %d: %d live in %d slots, model %d", step, tab.n, len(tab.slots), len(model))
		}
		for rr := uint64(0); rr < 64; rr++ {
			ms := tab.get(rr)
			want, ok := model[rr]
			if (ms != nil) != ok || ok && ms.nsrc != want {
				t.Fatalf("step %d: get(%d) = %v, model %d/%v", step, rr, ms, want, ok)
			}
		}
	}
	got := tab.appendRounds(nil)
	slices.Sort(got)
	want := slices.Sorted(maps.Keys(model))
	if !slices.Equal(got, want) {
		t.Fatalf("appendRounds = %v, model %v", got, want)
	}
	tab.reset()
	if tab.n != 0 || tab.get(want[0]) != nil {
		t.Fatal("reset left entries behind")
	}
}
