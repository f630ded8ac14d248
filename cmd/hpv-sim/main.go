// Command hpv-sim regenerates the tables and figures of the HyParView paper
// (DSN 2007) from this repository's simulator.
//
// Usage:
//
//	hpv-sim -exp fig2 -n 10000 -msgs 1000
//	hpv-sim -exp all -n 10000 -csv
//
// Experiments: fig1 (fanout×reliability, Cyclon+Scamp), fig1c (50% failure
// burst), fig2 (mean reliability vs failure %), fig3 (per-message recovery
// series), fig4 (healing time in cycles), table1 (graph properties), fig5
// (in-degree distribution), plumtree (flood vs epidemic broadcast trees;
// also part of -exp extensions), xbot (oblivious vs X-BOT-optimized overlay
// under a latency model), adversarial (the fault-injection scenario suite:
// mass failure, churn, partitions healing mid-broadcast, per-link
// loss/reorder, Byzantine-lite tampering and replay, each checked against a
// reliability envelope; a violated envelope exits non-zero), workload (the
// end-user pub/sub SLO experiment: a Zipfian topic workload over per-node
// pubsub routers, batched vs unbatched arms, reporting end-user-weighted
// delivery-latency percentiles, per-topic reliability and bytes-on-wire per
// delivered message; an arm outside its envelope exits non-zero), all.
// -experiment is accepted as an alias for -exp. The -broadcast=plumtree flag switches any
// experiment's broadcast layer from flood/fanout gossip to Plumtree;
// -latency=<model> runs any experiment in event-driven virtual time
// (uniform, euclidean or transit link latencies); -optimize=xbot runs the
// X-BOT optimizer alongside HyParView in any experiment;
// -shuffle-interval=<ticks> switches HyParView to scheduler-driven periodic
// shuffle rounds (the paper's ΔT as real timer events) and -duration=<ticks>
// then expresses the stabilization budget as virtual time instead of a cycle
// count. -cpuprofile/-memprofile write pprof profiles of the run (see the
// Profiling section of docs/EXPERIMENTS.md for methodology).
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"

	"hyparview/internal/metrics"
	"hyparview/internal/netsim"
	"hyparview/internal/sim"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "hpv-sim:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("hpv-sim", flag.ContinueOnError)
	var (
		exp        = fs.String("exp", "all", "experiment: fig1|fig1c|fig2|fig3|fig4|table1|fig5|plumtree|xbot|adversarial|workload|all")
		expAlias   = fs.String("experiment", "", "alias for -exp")
		n          = fs.Int("n", 10000, "cluster size (paper: 10000)")
		seed       = fs.Uint64("seed", 1, "base random seed")
		msgs       = fs.Int("msgs", 1000, "messages per burst for fig2 (paper: 1000)")
		fig3M      = fs.Int("fig3msgs", 100, "messages per series for fig3/fig1c")
		cycles     = fs.Int("stabilize", 50, "stabilization cycles (paper: 50)")
		shuffleIv  = fs.Uint64("shuffle-interval", 0, "virtual ticks between HyParView shuffle rounds; >0 switches to scheduler-driven periodic mode (rounds are timer events, not external cycles)")
		duration   = fs.Uint64("duration", 0, "stabilization budget as a virtual-time duration in ticks, rounded up to whole shuffle rounds (requires -shuffle-interval; overrides -stabilize)")
		fanout     = fs.Int("fanout", 4, "gossip fanout for Cyclon/Scamp (paper: 4)")
		broadcast  = fs.String("broadcast", "gossip", "broadcast layer: gossip (flood/fanout) or plumtree")
		shards     = fs.Int("shards", 0, "event-engine shards: 0 takes the default (sim.DefaultShards), >=1 partitions the node table into that many shards whose large waves are delivered in parallel (the same seed reproduces the same run at every shard count)")
		latency    = fs.String("latency", "none", "latency model: none (FIFO), uniform, euclidean or transit")
		optimize   = fs.String("optimize", "none", "overlay optimizer: none or xbot (HyParView only)")
		pcts       = fs.String("pcts", "", "comma-separated failure percentages (default per experiment)")
		asp        = fs.Int("asp-samples", 200, "BFS sources for avg shortest path (0 = exact)")
		runs       = fs.Int("runs", 1, "independent seeded runs to aggregate for fig2/fig4")
		events     = fs.Int("events", 2000, "publish events for the workload experiment")
		topics     = fs.Int("topics", 100, "topic-space size for the workload experiment")
		csv        = fs.Bool("csv", false, "emit CSV instead of aligned text")
		cpuprofile = fs.String("cpuprofile", "", "write a CPU profile of the run to this file (go tool pprof)")
		memprofile = fs.String("memprofile", "", "write a heap profile taken at exit to this file (go tool pprof)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *expAlias != "" {
		*exp = *expAlias
	}
	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			return fmt.Errorf("-cpuprofile: %w", err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return fmt.Errorf("-cpuprofile: %w", err)
		}
		defer pprof.StopCPUProfile()
	}
	if *memprofile != "" {
		f, err := os.Create(*memprofile)
		if err != nil {
			return fmt.Errorf("-memprofile: %w", err)
		}
		defer func() {
			// Collect first so the profile shows live protocol state, not
			// construction garbage (the methodology in docs/EXPERIMENTS.md).
			runtime.GC()
			_ = pprof.WriteHeapProfile(f)
			_ = f.Close()
		}()
	}
	opts := sim.Options{
		N:                   *n,
		Seed:                *seed,
		Fanout:              *fanout,
		StabilizationCycles: *cycles,
		ShuffleInterval:     *shuffleIv,
		Shards:              *shards,
	}
	if *shards < 0 {
		return fmt.Errorf("-shards must be >= 0 (got %d)", *shards)
	}
	if *duration > 0 {
		if *shuffleIv == 0 {
			return fmt.Errorf("-duration requires -shuffle-interval (a duration only has meaning against the shuffle clock)")
		}
		// Duration-based methodology: the stabilization budget is virtual
		// time, expressed as duration/ΔT rounds and rounded up so the run
		// never stabilizes for less virtual time than asked.
		opts.StabilizationCycles = int((*duration + *shuffleIv - 1) / *shuffleIv)
	}
	switch *broadcast {
	case "gossip", "flood":
		opts.Broadcast = sim.BroadcastGossip
	case "plumtree":
		opts.Broadcast = sim.BroadcastPlumtree
	default:
		return fmt.Errorf("unknown broadcast layer %q (want gossip or plumtree)", *broadcast)
	}
	model, err := netsim.ParseLatencyModel(*latency, *seed)
	if err != nil {
		return err
	}
	opts.LatencyModel = model
	switch *optimize {
	case "", "none":
	case "xbot":
		opts.Optimizer = sim.OptimizerXBot
	default:
		return fmt.Errorf("unknown optimizer %q (want none or xbot)", *optimize)
	}
	emit := func(t *metrics.Table) {
		if *csv {
			fmt.Fprintf(out, "# %s\n%s\n", t.Title, t.CSV())
		} else {
			fmt.Fprintln(out, t.String())
		}
	}
	runOne := func(name string) error {
		start := time.Now()
		defer func() {
			fmt.Fprintf(out, "[%s done in %v]\n\n", name, time.Since(start).Round(time.Millisecond))
		}()
		switch name {
		case "fig1":
			fanouts := []int{1, 2, 3, 4, 5, 6, 7}
			emit(sim.Fig1FanoutReliability(sim.Cyclon, opts, fanouts, 50))
			emit(sim.Fig1FanoutReliability(sim.Scamp, opts, fanouts, 50))
		case "fig1c":
			emit(sim.Fig1cFailure50(opts, *fig3M))
		case "fig2":
			levels := parsePcts(*pcts, []int{10, 20, 30, 40, 50, 60, 70, 80, 90, 95})
			if *runs > 1 {
				emit(sim.Fig2MassFailureRuns(opts, levels, *msgs, *runs))
			} else {
				_, t := sim.Fig2MassFailure(opts, levels, *msgs)
				emit(t)
			}
		case "fig3":
			for _, pct := range parsePcts(*pcts, []int{20, 40, 60, 70, 80, 95}) {
				emit(sim.Fig3Recovery(opts, pct, *fig3M))
			}
		case "fig4":
			levels := parsePcts(*pcts, []int{10, 20, 30, 40, 50, 60, 70, 80, 90})
			if *runs > 1 {
				emit(sim.Fig4HealingTimeRuns(opts, levels, 10, 200, *runs))
			} else {
				_, t := sim.Fig4HealingTime(opts, levels, 10, 200)
				emit(t)
			}
		case "table1":
			_, t := sim.Table1GraphProperties(opts, *asp, 50)
			emit(t)
		case "fig5":
			emit(sim.Fig5InDegree(opts))
		case "plumtree":
			// Flood vs Plumtree over the same HyParView overlay: reliability,
			// relative message redundancy and hop count, with and without
			// mass failures (SRDS 2007 companion paper).
			levels := parsePcts(*pcts, []int{10, 30, 50})
			_, t := sim.FloodVsPlumtree(opts, 20, *fig3M, levels)
			emit(t)
		case "overhead":
			// Extension: the paper's §6 PlanetLab packet-overhead question.
			_, t := sim.Overhead(opts, 10, 50)
			emit(t)
		case "churn":
			// Extension: sustained churn, 1%/cycle for 30 cycles.
			_, t := sim.Churn(opts, 1.0, 30, 5)
			emit(t)
		case "passive":
			// Extension: passive view size vs resilience (§6 future work).
			emit(sim.PassiveResilience(opts, []int{5, 10, 20, 30, 60}, 80, 50))
		case "hetero":
			// Extension: heterogeneous degrees (§6 adaptive fanout idea).
			emit(sim.HeterogeneousDegrees(opts, 10, 15))
		case "partition":
			// Extension: 30/70 network cut for 3 cycles, then heal.
			_, t := sim.PartitionHeal(opts, 0.3, 3, 10)
			emit(t)
		case "adversarial":
			// Fault-injection scenario suite: the paper's 80%-failure headline
			// plus churn, partition, loss/reorder, Byzantine-lite tampering and
			// replay, each run against its reliability envelope. A scenario
			// outside its envelope fails the run — this is the CI regression
			// gate for the bugs the injection hooks surfaced.
			points, t := sim.Adversarial(opts, *msgs)
			emit(t)
			if !sim.AdversarialOK(points) {
				return fmt.Errorf("adversarial envelope violated (see table)")
			}
		case "workload":
			// End-user pub/sub SLOs: Zipfian topic workload over per-node
			// pubsub routers, batched vs unbatched publish arms under one
			// seed. The envelope (per-topic reliability ≥ 0.99, batching
			// reducing hot-topic bytes per delivery) gates the run.
			points, t := sim.Workload(opts, sim.WorkloadOptions{
				Events: *events,
				Topics: *topics,
			})
			emit(t)
			if !sim.WorkloadOK(points) {
				return fmt.Errorf("workload envelope violated (see table)")
			}
		case "xbot":
			// Oblivious vs X-BOT-optimized overlay under a latency model
			// (Euclidean unless -latency selects another): link cost,
			// reliability, virtual-time broadcast latency, degrees (the SRDS
			// 2009 companion paper's evaluation).
			_, t := sim.ObliviousVsXBot(opts, *fig3M)
			emit(t)
		default:
			return fmt.Errorf("unknown experiment %q", name)
		}
		return nil
	}
	if *exp == "all" {
		for _, name := range []string{"fig1", "fig1c", "fig2", "fig3", "fig4", "table1", "fig5"} {
			if err := runOne(name); err != nil {
				return err
			}
		}
		return nil
	}
	if *exp == "extensions" {
		for _, name := range []string{"overhead", "churn", "passive", "hetero", "partition", "plumtree", "xbot"} {
			if err := runOne(name); err != nil {
				return err
			}
		}
		return nil
	}
	return runOne(*exp)
}

// parsePcts parses "20,40,60" with a fallback default.
func parsePcts(s string, def []int) []int {
	if strings.TrimSpace(s) == "" {
		return def
	}
	var out []int
	for _, part := range strings.Split(s, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(part))
		if err == nil && v >= 0 && v < 100 {
			out = append(out, v)
		}
	}
	if len(out) == 0 {
		return def
	}
	return out
}
