// Command perfbench is the repository's benchmark: one command that runs a
// named workload from a seed, checks its outputs, and prints every
// end-to-end metric (or, with --trace 1, every per-layer metric) by name
// with its unit. The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": M, "metrics": {...}}
//
// Human-readable detail (environment, sample counts, per-phase notes) goes
// to the lines before it, and the same record, environment included, is
// written under --out. See README.md for the workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// metricDef names one reported metric and its unit.
type metricDef struct {
	Name string
	Unit string
}

// endToEnd lists the metrics an untraced run prints, on every workload.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"deliver_p50_ms", "ms"},
	{"max_rate_bcast_per_s", "1/s"},
	{"cpu_ms_per_bcast", "ms"},
	{"reliability_post_fail", "ratio"},
	{"heap_bytes_per_node", "B"},
}

// perLayer lists the metrics a traced run prints, on every workload. A
// layer a workload bypasses reads 0: that is its predicted "no change".
var perLayer = func() []metricDef {
	defs := []metricDef{
		{"sim.build_s", "s"},
		{"sim.stabilize_s", "s"},
		{"sim.broadcast_ms_p50", "ms"},
		{"sim.broadcast_ms_p99", "ms"},
	}
	for _, ph := range simPhases {
		defs = append(defs,
			metricDef{"netsim." + ph + ".events", "count"},
			metricDef{"netsim." + ph + ".sent", "count"},
			metricDef{"netsim." + ph + ".bytes_sent", "B"},
			metricDef{"netsim." + ph + ".ns_per_event", "ns"})
	}
	defs = append(defs,
		metricDef{"netsim.burst.events_per_bcast", "count"},
		metricDef{"netsim.failover.events_per_bcast", "count"},
		metricDef{"netsim.failover.dropped", "count"},
		metricDef{"netsim.failover.send_failures", "count"},
		metricDef{"netsim.failover.overflowed", "count"})
	for _, k := range simMsgKinds {
		defs = append(defs, metricDef{"netsim.msgs." + k.name, "count"})
	}
	defs = append(defs,
		metricDef{"core.shuffles", "count"},
		metricDef{"core.forward_joins", "count"},
		metricDef{"core.neighbor_requests", "count"},
		metricDef{"core.neighbor_rejects", "count"},
		metricDef{"core.promotions", "count"},
		metricDef{"core.peer_failures", "count"},
		metricDef{"core.view_churn_per_s", "1/s"},
		metricDef{"gossip.dup_per_delivery", "ratio"},
		metricDef{"gossip.send_fails", "count"},
		metricDef{"gossip.app_duplicates", "count"},
		metricDef{"plumtree.ihaves", "count"},
		metricDef{"plumtree.grafts", "count"},
		metricDef{"plumtree.prunes", "count"},
		metricDef{"plumtree.timer_fires", "count"},
		metricDef{"transport.agent_call_us_p50", "us"},
		metricDef{"transport.agent_call_us_p99", "us"},
		metricDef{"transport.frames_per_bcast", "count"},
		metricDef{"transport.frames_per_write", "ratio"},
		metricDef{"transport.frames_per_read", "ratio"},
		metricDef{"transport.overflowed", "count"},
		metricDef{"transport.redials", "count"},
		metricDef{"transport.suspected", "count"},
		metricDef{"transport.dial_races_lost", "count"},
		metricDef{"transport.rx_bytes_per_delivery", "B"})
	for _, k := range rxMsgKinds {
		defs = append(defs, metricDef{"transport.rx_frames." + k.name, "count"})
	}
	defs = append(defs,
		metricDef{"msg.encode_ns", "ns"},
		metricDef{"msg.decode_ns", "ns"},
		metricDef{"runtime.allocs_per_bcast", "count"},
		metricDef{"runtime.allocs_per_event", "count"},
		metricDef{"runtime.gc_cycles", "count"},
		metricDef{"runtime.gc_pause_ms", "ms"},
		metricDef{"runtime.cpu_sys_share", "ratio"},
		metricDef{"bench.deliver_p99_ms", "ms"},
		metricDef{"bench.gen_lag_p99_ms", "ms"},
		metricDef{"bench.delivery_fail_ratio", "ratio"},
		metricDef{"bench.trace_overhead_pct", "%"})
	return defs
}()

// config is one invocation's settings.
type config struct {
	Workload string
	Seed     uint64
	Seconds  int
	Trace    bool
	Smoke    bool   // tiny sizes, for the benchmark's own tests
	Out      string // directory for the result record and span file
}

// report is what a workload run produced.
type report struct {
	E2E       map[string]float64
	Layer     map[string]float64
	Attempted int64
	Failed    int64
	Problems  []string // failed output checks
	Notes     []string // human-readable detail
	Spans     *tracer
}

func newReport() *report {
	return &report{E2E: map[string]float64{}, Layer: map[string]float64{}}
}

func (r *report) note(format string, args ...any) {
	r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
}

func (r *report) problem(format string, args ...any) {
	r.Problems = append(r.Problems, fmt.Sprintf(format, args...))
}

// noteSummary prints a latency summary with its sample count and the
// deepest percentile that has at least ten samples beyond it.
func (r *report) noteSummary(name, unit string, s summary) {
	top := "none (fewer than 20 samples)"
	if s.TopPct > 0 {
		top = fmt.Sprintf("p%g=%.4g%s", s.TopPct, s.Top, unit)
	}
	r.note("%s: n=%d p50=%.4g%s p99=%.4g%s max=%.4g%s deepest percentile with >=10 samples beyond: %s",
		name, s.N, s.P50, unit, s.P99, unit, s.Max, unit, top)
}

var workloads = map[string]func(config) (*report, error){
	"sim-massfail": func(c config) (*report, error) { return runSim(c, simMassfail) },
	"sim-plumtree": func(c config) (*report, error) { return runSim(c, simPlumtree) },
	"tcp-flood":    func(c config) (*report, error) { return runTCP(c, tcpFlood) },
	"tcp-plumtree": func(c config) (*report, error) { return runTCP(c, tcpPlumtree) },
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main with its streams injectable; it returns the exit code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var cfg config
	var trace int
	fs.StringVar(&cfg.Workload, "workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	fs.Uint64Var(&cfg.Seed, "seed", 1, "seed the workload's inputs derive from")
	fs.IntVar(&cfg.Seconds, "seconds", 10, "length of the measured phase, in seconds")
	fs.IntVar(&trace, "trace", 0, "1: traced run printing per-layer metrics and writing spans")
	fs.BoolVar(&cfg.Smoke, "smoke", false, "tiny sizes (a self-test of the benchmark, not a measurement)")
	fs.StringVar(&cfg.Out, "out", filepath.Join(".bench_build", "results"), "directory for result records and span files")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	wl, ok := workloads[cfg.Workload]
	if !ok || cfg.Seconds < 1 || (trace != 0 && trace != 1) || fs.NArg() > 0 {
		fmt.Fprintf(stderr, "perfbench: need --workload (%s), --seconds >= 1 and --trace 0|1\n", strings.Join(workloadNames(), ", "))
		return 2
	}
	cfg.Trace = trace == 1
	// One process, GOMAXPROCS = nproc, whatever the environment says.
	runtime.GOMAXPROCS(runtime.NumCPU())
	if err := os.MkdirAll(cfg.Out, 0o755); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}

	env := environment()
	started := time.Now()
	rep, err := wl(cfg)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", cfg.Workload, err)
		return 1
	}

	defs, values := endToEnd, rep.E2E
	if cfg.Trace {
		defs, values = perLayer, rep.Layer
	}
	metrics := make(map[string]metricOut, len(defs))
	for _, d := range defs {
		v, ok := values[d.Name]
		if !ok {
			rep.problem("metric %s was not produced", d.Name)
			continue
		}
		metrics[d.Name] = metricOut{Value: v, Unit: d.Unit}
	}
	res := result{
		Correct:   len(rep.Problems) == 0,
		Attempted: rep.Attempted,
		Failed:    rep.Failed,
		Metrics:   metrics,
	}
	if res.Attempted < 1 {
		res.Correct = false
		rep.problem("no operation was attempted")
	}

	fmt.Fprintf(stdout, "perfbench %s seed=%d seconds=%d trace=%d wall=%.1fs\n",
		cfg.Workload, cfg.Seed, cfg.Seconds, trace, time.Since(started).Seconds())
	fmt.Fprintf(stdout, "env %s\n", envLine(env))
	for _, n := range rep.Notes {
		fmt.Fprintf(stdout, "  %s\n", n)
	}
	for _, d := range defs {
		if m, ok := metrics[d.Name]; ok {
			fmt.Fprintf(stdout, "metric %-40s %14.6g %s\n", d.Name, m.Value, m.Unit)
		}
	}
	for _, p := range rep.Problems {
		fmt.Fprintf(stdout, "CHECK FAILED: %s\n", p)
	}

	base := fmt.Sprintf("%s-seed%d-trace%d", cfg.Workload, cfg.Seed, trace)
	if err := writeRecord(filepath.Join(cfg.Out, base+".json"), env, cfg, rep, res); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	if rep.Spans != nil {
		path := filepath.Join(cfg.Out, base+".spans.jsonl")
		if err := rep.Spans.write(path, env); err != nil {
			fmt.Fprintf(stderr, "perfbench: %v\n", err)
			return 1
		}
		fmt.Fprintf(stdout, "spans %d written to %s (%d dropped over the limit)\n", len(rep.Spans.spans), path, rep.Spans.dropped)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !res.Correct {
		return 1
	}
	return 0
}

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                 `json:"correct"`
	Attempted int64                `json:"attempted"`
	Failed    int64                `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

// writeRecord stores the full result — environment, every metric either
// run kind produced, notes and failed checks — as one JSON file.
func writeRecord(path string, env map[string]string, cfg config, rep *report, res result) error {
	rec := map[string]any{
		"env":      env,
		"config":   cfg,
		"result":   res,
		"e2e":      rep.E2E,
		"layer":    rep.Layer,
		"notes":    rep.Notes,
		"problems": rep.Problems,
	}
	b, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return fmt.Errorf("encode result record: %w", err)
	}
	if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
		return fmt.Errorf("write result record: %w", err)
	}
	return nil
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
