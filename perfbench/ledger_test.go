package main

import (
	"testing"
	"time"
)

func testLedger(agents, bcasts int) *ledger {
	start := time.Unix(0, 0)
	return newLedger(agents, bcasts, 64, tagNominal, start, func(seq uint64) int64 { return int64(seq) * int64(time.Millisecond) }, false)
}

func TestLedgerCountsEachDeliveryOnce(t *testing.T) {
	l := testLedger(3, 4)
	at := time.Unix(0, 0).Add(10 * time.Millisecond)
	for seq := uint64(0); seq < 4; seq++ {
		for agent := 0; agent < 3; agent++ {
			l.deliver(agent, makePayload(64, tagNominal, seq, 7), at)
		}
	}
	got := l.tally(4)
	want := tally{Expected: 12, Unique: 12}
	if got != want {
		t.Fatalf("tally = %+v, want %+v", got, want)
	}
	if got.Failed() != 0 || got.FailRatio() != 0 {
		t.Fatalf("clean run reports %d failed (ratio %g)", got.Failed(), got.FailRatio())
	}
}

func TestLedgerCountsDuplicatesAndMissing(t *testing.T) {
	l := testLedger(2, 3)
	at := time.Unix(0, 0)
	p0, p1 := makePayload(64, tagNominal, 0, 7), makePayload(64, tagNominal, 1, 7)
	l.deliver(0, p0, at)
	l.deliver(0, p0, at) // duplicate at agent 0
	l.deliver(0, p0, at) // and again
	l.deliver(1, p0, at)
	l.deliver(1, p1, at)
	// Broadcast 1 never reaches agent 0; broadcast 2 reaches nobody.
	got := l.tally(3)
	want := tally{Expected: 6, Unique: 3, Missing: 3, Duplicates: 2}
	if got != want {
		t.Fatalf("tally = %+v, want %+v", got, want)
	}
	if got.Failed() != 5 {
		t.Fatalf("Failed() = %d, want 5", got.Failed())
	}
	if r := got.FailRatio(); r != 5.0/6 {
		t.Fatalf("FailRatio() = %g, want 5/6", r)
	}
}

func TestLedgerRejectsCorruptAndForeignPayloads(t *testing.T) {
	l := testLedger(1, 2)
	at := time.Unix(0, 0)
	flipped := makePayload(64, tagNominal, 0, 7)
	flipped[20] ^= 1
	l.deliver(0, flipped, at)                           // checksum mismatch
	l.deliver(0, makePayload(32, tagNominal, 0, 7), at) // wrong size
	l.deliver(0, makePayload(64, tagNominal, 9, 7), at) // never issued
	l.deliver(0, makePayload(64, tagWarm, 0, 7), at)    // another phase
	l.deliver(0, makePayload(64, tagNominal, 1, 7), at) // the one good delivery
	got := l.tally(2)
	want := tally{Expected: 2, Unique: 1, Missing: 1, Corrupt: 3, Foreign: 1}
	if got != want {
		t.Fatalf("tally = %+v, want %+v", got, want)
	}
	if got.Failed() != 4 {
		t.Fatalf("Failed() = %d, want missing+corrupt = 4", got.Failed())
	}
}

func TestLedgerLatencyFromDueTime(t *testing.T) {
	l := testLedger(1, 2)
	// Broadcast 1 is due at 1ms and delivered at 3.5ms.
	l.deliver(0, makePayload(64, tagNominal, 1, 7), time.Unix(0, 0).Add(3500*time.Microsecond))
	lat := l.latencies()
	if len(lat) != 1 || lat[0] != 2.5 {
		t.Fatalf("latencies = %v, want [2.5]", lat)
	}
}

func TestPayloadRoundTrip(t *testing.T) {
	for _, size := range []int{24, 64, 1024} {
		p := makePayload(size, tagLadder, 42, 99)
		seq, tag, ok := parsePayload(p, size)
		if !ok || seq != 42 || tag != tagLadder {
			t.Fatalf("size %d: parse = (%d, %x, %v)", size, seq, tag, ok)
		}
		if q := makePayload(size, tagLadder, 42, 99); string(q) != string(p) {
			t.Fatalf("size %d: payload not deterministic", size)
		}
	}
}
