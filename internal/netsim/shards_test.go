package netsim

// Engine-level pins for the wave/barrier engine (shards.go): golden traces
// on raw rings at every shard count, hook re-entry (Redeliver from an
// Intercept hook) while waves run on shard goroutines, and a parallel-wave
// exerciser that the CI -race step leans on. Tests that need the concurrent
// path raise GOMAXPROCS before construction: NewSharded captures it, and a
// single-P runtime would otherwise take the (identical in outcome) serial
// wave path.
//
// The golden digests and counters below were recorded from the serial heap
// engine (one event at a time off a global (at, seq) heap) that the
// simulator carried as its reference until commit 0a9dd4e, run at the same
// seeds.

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	"hyparview/internal/id"
	"hyparview/internal/msg"
	"hyparview/internal/peer"
	"hyparview/internal/rng"
)

// ringTrace runs a TTL ring on the given engine and returns the Tap trace.
func ringTrace(shards, n, msgs, hops int) (string, Stats) {
	s := buildRingSharded(n, shards)
	var b strings.Builder
	s.Tap = func(from, to id.ID, m msg.Message) {
		fmt.Fprintf(&b, "%d>%d:%d@%d\n", from, to, m.Round, s.Now())
	}
	for k := 0; k < msgs; k++ {
		src := id.ID(k%n + 1)
		dst := id.ID(uint64(src)%uint64(n) + 1)
		_ = s.Inject(src, dst, msg.Message{Type: msg.Gossip, Round: uint64(k), TTL: uint8(hops)})
	}
	s.Drain()
	return b.String(), s.Stats()
}

// shardMatrix is the shard-count matrix the golden comparisons sweep.
var shardMatrix = []int{1, 2, 4, 8}

// digest is the hex SHA-256 of a trace: the form golden traces are pinned in.
func digest(trace string) string {
	sum := sha256.Sum256([]byte(trace))
	return hex.EncodeToString(sum[:])
}

func TestShardedMatchesLegacyEngineTrace(t *testing.T) {
	const golden = "7084a8e2e9fa2d3539e1e739228f1f130fc58804f9323d98af8a7445a6617cfe"
	goldenStats := Stats{Sent: 1632, Delivered: 1632, BytesSent: 97920}
	for _, shards := range shardMatrix {
		got, gotStats := ringTrace(shards, 200, 96, 16)
		if d := digest(got); d != golden {
			t.Errorf("shards=%d: trace digest %s, want the golden %s", shards, d, golden)
		}
		if gotStats != goldenStats {
			t.Errorf("shards=%d: stats diverged: %+v, want %+v", shards, gotStats, goldenStats)
		}
	}
}

func TestShardedHookReentryRedeliver(t *testing.T) {
	// The regression the wave design must hold: an Intercept hook calling
	// Redeliver while multi-event waves are in flight. Hooks run in the
	// coordinator pre-pass, so re-entry sequences immediately and
	// deterministically; the duplicated copies land in the instant's next
	// wave, bypass the hook, and are delivered by shard goroutines.
	old := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(old)

	run := func() (string, Stats, int) {
		const n = 128 // one injected wave of n events: over parallelMinWave
		s := NewSharded(3, 4)
		recs := make([]*recorder, n)
		for i := 0; i < n; i++ {
			recs[i] = addRecorder(s, id.ID(i+1))
		}
		hookCalls := 0
		s.Intercept = func(node id.ID, m *msg.Message) (*msg.Message, bool) {
			hookCalls++
			if err := s.Redeliver(m.Sender, node, *m, 0); err != nil {
				t.Fatalf("Redeliver from hook: %v", err)
			}
			return nil, true
		}
		var b strings.Builder
		s.Tap = func(from, to id.ID, m msg.Message) {
			fmt.Fprintf(&b, "%d>%d:%d@%d\n", from, to, m.Round, s.Now())
		}
		for i := 0; i < n; i++ {
			src := id.ID(i + 1)
			dst := id.ID((i+1)%n + 1)
			if err := s.Inject(src, dst, msg.Message{Type: msg.Gossip, Sender: src, Round: uint64(i)}); err != nil {
				t.Fatal(err)
			}
		}
		s.Drain()
		return b.String(), s.Stats(), hookCalls
	}

	trace, st, hookCalls := run()
	if hookCalls != 128 {
		t.Errorf("hook ran %d times, want 128 (redeliveries must be exempt)", hookCalls)
	}
	if st.Delivered != 256 {
		t.Errorf("Delivered = %d, want 256 (originals + duplicates)", st.Delivered)
	}
	if st.Redelivered != 128 {
		t.Errorf("Redelivered = %d, want 128", st.Redelivered)
	}
	trace2, st2, _ := run()
	if trace != trace2 || st != st2 {
		t.Error("hook re-entry run is not deterministic under a fixed seed")
	}
}

func TestShardedParallelWavesUnderChurn(t *testing.T) {
	// The -race exerciser: large waves delivered by 8 shard goroutines on a
	// multi-P runtime, with a fault hook active (coordinator pre-pass), churn
	// between drains (Fail/Revive with parked-timer re-scheduling), and
	// timers armed from inside wave deliveries.
	old := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(old)

	// TTL-bounded forwarders (ringProc) keep waves alive a few hops without
	// looping forever.
	const n = 512
	s := NewSharded(7, 8)
	for i := 0; i < n; i++ {
		next := id.ID((i+1+i%7)%n + 1)
		s.Add(id.ID(i+1), func(env peer.Env) peer.Process {
			return &ringProc{env: env, next: next}
		})
	}
	drops := 0
	s.Intercept = func(node id.ID, m *msg.Message) (*msg.Message, bool) {
		if m.Round%17 == 0 {
			drops++
			return nil, false
		}
		return nil, true
	}
	for round := 0; round < 6; round++ {
		for i := 0; i < n; i++ {
			src := id.ID(i + 1)
			dst := id.ID((i+round+1)%n + 1)
			_ = s.Inject(src, dst, msg.Message{Type: msg.Gossip, Sender: src, Round: uint64(round*n + i), TTL: 3})
		}
		s.Drain()
		// Churn: kill a stripe, revive it next round.
		for i := round * 20; i < round*20+20; i++ {
			s.Fail(id.ID(i%n + 1))
		}
		s.Drain()
		for i := round * 20; i < round*20+20; i++ {
			s.Revive(id.ID(i%n + 1))
		}
	}
	s.Drain()
	if drops == 0 {
		t.Error("fault hook never fired")
	}
	if st := s.Stats(); st.Delivered == 0 || st.FaultDropped == 0 {
		t.Errorf("degenerate churn run: %+v", st)
	}
}

// fanProc forwards every delivery to its two successors until the TTL dies
// and arms a timer on every fourth round, so waves grow past
// parallelMinWave and shrink below it again. It logs what it receives: the
// comparison below needs no Tap, which would keep every wave off the serial
// path.
type fanProc struct {
	env  peer.Env
	n    int
	self int
	log  []string
}

func (p *fanProc) Deliver(from id.ID, m msg.Message) {
	p.log = append(p.log, fmt.Sprintf("%d:%d:%d:%d@%d", from, m.Type, m.Round, m.TTL, p.env.Now()))
	if m.Type != msg.Gossip || m.TTL == 0 {
		return
	}
	m.TTL--
	for k := 1; k <= 2; k++ {
		_ = p.env.Send(id.ID((p.self+k*k)%p.n+1), m)
	}
	if s, ok := p.env.(peer.Scheduler); ok && m.Round%4 == 0 {
		s.After(uint64(m.TTL%2), msg.Message{Type: msg.Tick, Round: m.Round})
	}
}

func (p *fanProc) OnCycle() {}

// TestHooklessRunMatchesHeapEngine pins the serial path of the wave engine
// (runSerial, taken by small waves when no hook is installed) together with
// its hand-offs to and from the wave loop: per-node delivery logs and every
// counter equal the golden values recorded from the heap engine, at every
// shard count, with and without latency, with parallel waves enabled.
func TestHooklessRunMatchesHeapEngine(t *testing.T) {
	old := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(old)

	run := func(shards int, latency bool) (string, Stats) {
		const n = 300
		s := NewSharded(5, shards)
		if latency {
			s.Latency = func(from, to id.ID, r *rng.Rand) uint64 { return r.Uint64n(3) }
		}
		procs := make([]*fanProc, n)
		for i := 0; i < n; i++ {
			s.Add(id.ID(i+1), func(env peer.Env) peer.Process {
				procs[i] = &fanProc{env: env, n: n, self: i}
				return procs[i]
			})
		}
		for round := 0; round < 12; round++ {
			src := id.ID(round*37%n + 1)
			_ = s.Inject(src, src, msg.Message{Type: msg.Gossip, Round: uint64(round), TTL: uint8(4 + round%5)})
			if round%3 == 2 {
				s.Fail(id.ID(round + 1))
			}
			s.Drain()
			if p := s.Pending(); p != 0 {
				t.Fatalf("shards=%d: Pending = %d after Drain, want 0", shards, p)
			}
		}
		var b strings.Builder
		for i, p := range procs {
			fmt.Fprintf(&b, "%d %s\n", i+1, strings.Join(p.log, " "))
		}
		return b.String(), s.Stats()
	}
	// Latency changes the delivery order and timestamps, not the counters.
	goldenStats := Stats{Sent: 1830, Delivered: 1830, SendFailures: 14, BytesSent: 109800}
	for latency, golden := range map[bool]string{
		false: "e1deb1f0ec4210d702b9462248919a2436389f16659da29121330f27eab5f98e",
		true:  "4a36cf4b55d5304b7f242c0d3283bfcf7a202c0cdcf19a5560d1ad6fdd647119",
	} {
		for _, shards := range shardMatrix {
			got, gotStats := run(shards, latency)
			if d := digest(got); d != golden {
				t.Errorf("latency=%v shards=%d: delivery-log digest %s, want the golden %s", latency, shards, d, golden)
			}
			if gotStats != goldenStats {
				t.Errorf("latency=%v shards=%d: stats diverged: %+v, want %+v", latency, shards, gotStats, goldenStats)
			}
		}
	}
}

// TestShardWorkersStopWithSim pins the worker lifecycle: a Sim whose large
// waves started persistent shard workers stops them once it is garbage, so
// a process building many clusters does not accumulate goroutines. A
// single-shard Sim has nobody to hand a wave to and never starts any.
func TestShardWorkersStopWithSim(t *testing.T) {
	old := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(old)

	wave := func(shards int) *Sim {
		s := buildRingSharded(256, shards)
		for i := 0; i < 256; i++ { // one wave of 256 events: over parallelMinWave
			_ = s.Inject(id.ID(i+1), id.ID((i+1)%256+1), msg.Message{Type: msg.Gossip, Round: uint64(i), TTL: 2})
		}
		s.Drain()
		return s
	}
	base := runtime.NumGoroutine()
	if s := wave(1); s.crew != nil {
		t.Fatal("a single-shard Sim started shard workers")
	}
	for k := 0; k < 8; k++ {
		if s := wave(4); s.crew == nil {
			t.Fatal("a 256-event wave on 4 Ps did not start the shard workers")
		}
	}
	for try := 0; try < 100 && runtime.NumGoroutine() > base; try++ {
		runtime.GC()
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > base {
		t.Fatalf("%d goroutines outlive their Sims (%d before)", n, base)
	}
}
