package main

import (
	"encoding/binary"
	"hash/fnv"
	"sync/atomic"
	"time"
)

// Payload layout of every measured broadcast:
//
//	[0:8)        broadcast sequence number, little endian
//	[8:16)       phase tag: tells this phase's broadcasts from warm-up
//	             traffic still in flight
//	[16:size-8)  seeded filler bytes
//	[size-8:)    FNV-1a 64 checksum of everything before it
const payloadHeader = 16

// makePayload builds broadcast seq's payload of the given size (>= 24).
func makePayload(size int, tag, seq uint64, filler uint64) []byte {
	p := make([]byte, size)
	binary.LittleEndian.PutUint64(p[0:], seq)
	binary.LittleEndian.PutUint64(p[8:], tag)
	x := filler ^ seq*0x9E3779B97F4A7C15
	for i := payloadHeader; i < size-8; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		p[i] = byte(x)
	}
	binary.LittleEndian.PutUint64(p[size-8:], checksum(p[:size-8]))
	return p
}

func checksum(b []byte) uint64 {
	h := fnv.New64a()
	_, _ = h.Write(b) // hash.Hash writes never fail
	return h.Sum64()
}

// parsePayload verifies a delivered payload and returns its sequence number
// and phase tag; ok is false when the size or checksum is wrong.
func parsePayload(p []byte, size int) (seq, tag uint64, ok bool) {
	if len(p) != size || size < payloadHeader+8 {
		return 0, 0, false
	}
	if binary.LittleEndian.Uint64(p[size-8:]) != checksum(p[:size-8]) {
		return 0, 0, false
	}
	return binary.LittleEndian.Uint64(p[0:]), binary.LittleEndian.Uint64(p[8:]), true
}

// ledger records every (broadcast, agent) delivery of one measured phase
// exactly once. Each agent's deliveries arrive on that agent's own actor
// goroutine, so every per-agent slot has a single writer; only the unique
// counters are read concurrently (by the backlog check), through atomics.
// Readers of everything else must wait until the agents are closed.
type ledger struct {
	size  int    // payload size
	tag   uint64 // phase tag of this phase's payloads
	limit uint64 // sequence numbers this phase can issue: [0, limit)
	slots []agentSlot

	// dueNs returns broadcast seq's due time, in nanoseconds since start.
	dueNs func(seq uint64) int64
	start time.Time
}

type agentSlot struct {
	seen    []uint64 // bitset over broadcast sequence numbers
	unique  atomic.Int64
	dups    int64
	corrupt int64
	foreign int64     // valid payloads of another phase (warm-up stragglers)
	lat     []float64 // delivery latency from due time, ms
	seqs    []uint64  // broadcast per sample
	at      []int64   // delivery time per sample, ns since start (span export)
	keepAt  bool
}

// newLedger sizes a ledger for agents agents and at most maxBcasts
// broadcasts. keepTimes additionally keeps each delivery's timestamp for
// the span file.
func newLedger(agents, maxBcasts, size int, tag uint64, start time.Time, dueNs func(uint64) int64, keepTimes bool) *ledger {
	l := &ledger{size: size, tag: tag, limit: uint64(maxBcasts), slots: make([]agentSlot, agents), dueNs: dueNs, start: start}
	words := (maxBcasts + 63) / 64
	for i := range l.slots {
		l.slots[i].seen = make([]uint64, words)
		l.slots[i].lat = make([]float64, 0, maxBcasts)
		l.slots[i].seqs = make([]uint64, 0, maxBcasts)
		l.slots[i].keepAt = keepTimes
	}
	return l
}

// deliver records one delivery of payload at agent, observed at now.
func (l *ledger) deliver(agent int, payload []byte, now time.Time) {
	s := &l.slots[agent]
	seq, tag, ok := parsePayload(payload, l.size)
	if !ok {
		s.corrupt++
		return
	}
	if tag != l.tag {
		s.foreign++
		return
	}
	if seq >= l.limit {
		s.corrupt++ // a sequence number this phase never issues
		return
	}
	w, bit := seq/64, uint64(1)<<(seq%64)
	if s.seen[w]&bit != 0 {
		s.dups++
		return
	}
	s.seen[w] |= bit
	s.unique.Add(1)
	at := now.Sub(l.start).Nanoseconds()
	s.lat = append(s.lat, float64(at-l.dueNs(seq))/1e6)
	s.seqs = append(s.seqs, seq)
	if s.keepAt {
		s.at = append(s.at, at)
	}
}

// uniqueTotal is the number of distinct (broadcast, agent) deliveries so
// far; safe to call while agents deliver.
func (l *ledger) uniqueTotal() int64 {
	var n int64
	for i := range l.slots {
		n += l.slots[i].unique.Load()
	}
	return n
}

// tally is the ledger's verdict over issued broadcasts to every agent.
type tally struct {
	Expected, Unique, Missing, Duplicates, Corrupt, Foreign int64
}

// Failed counts every delivery that did not happen exactly once intact.
func (t tally) Failed() int64 { return t.Missing + t.Duplicates + t.Corrupt }

// FailRatio is Failed over the expected delivery count.
func (t tally) FailRatio() float64 { return ratio(float64(t.Failed()), float64(t.Expected)) }

// tally counts deliveries against issued broadcasts. Call only after every
// agent has stopped delivering.
func (l *ledger) tally(issued int) tally {
	var t tally
	t.Expected = int64(issued) * int64(len(l.slots))
	for i := range l.slots {
		s := &l.slots[i]
		t.Unique += s.unique.Load()
		t.Duplicates += s.dups
		t.Corrupt += s.corrupt
		t.Foreign += s.foreign
	}
	t.Missing = t.Expected - t.Unique
	return t
}

// latencies returns every recorded delivery latency in ms.
func (l *ledger) latencies() []float64 {
	var out []float64
	for i := range l.slots {
		out = append(out, l.slots[i].lat...)
	}
	return out
}

// windowP99 groups deliveries by their broadcast's due time into windows of
// the given length and reduces them with windowedP99; windows with fewer
// than 100 deliveries (too few for a p99) are skipped.
func (l *ledger) windowP99(window time.Duration) (float64, []float64) {
	var win []int64
	var lat []float64
	for i := range l.slots {
		s := &l.slots[i]
		for j, seq := range s.seqs {
			win = append(win, l.dueNs(seq)/window.Nanoseconds())
			lat = append(lat, s.lat[j])
		}
	}
	return windowedP99(win, lat, 100)
}
