package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// benchmarkFile is the benchmark's declaration: its workloads and the
// metrics each kind of run prints.
type benchmarkFile struct {
	Workloads []struct{ Name string } `json:"workloads"`
	EndToEnd  []struct {
		Name, Unit string
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit string
	} `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatalf("read BENCHMARK.json: %v", err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(b, &bf); err != nil {
		t.Fatalf("parse BENCHMARK.json: %v", err)
	}
	return bf
}

// TestCatalogueMatchesBenchmarkFile pins the metrics the program prints to
// the ones BENCHMARK.json declares, in both directions.
func TestCatalogueMatchesBenchmarkFile(t *testing.T) {
	bf := readBenchmarkFile(t)
	check := func(kind string, declared []struct{ Name, Unit string }, printed []metricDef) {
		want := map[string]string{}
		for _, m := range declared {
			want[m.Name] = m.Unit
		}
		if len(declared) != len(printed) {
			t.Errorf("%s: BENCHMARK.json declares %d metrics, the program prints %d", kind, len(declared), len(printed))
		}
		for _, m := range printed {
			unit, ok := want[m.Name]
			if !ok {
				t.Errorf("%s: %s is printed but not declared", kind, m.Name)
			} else if unit != m.Unit {
				t.Errorf("%s: %s printed in %s, declared in %s", kind, m.Name, m.Unit, unit)
			}
		}
	}
	check("end_to_end", bf.EndToEnd, endToEnd)
	check("per_layer", bf.PerLayer, perLayer)
	for _, w := range bf.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("workload %s is declared but not implemented", w.Name)
		}
	}
}

// TestSmoke runs every workload at a tiny size, untraced and traced, and
// checks that the last line is a correct result carrying every metric
// BENCHMARK.json declares for that kind of run. It covers tcp-plumtree,
// which BENCHMARK.json leaves out (see README.md), too.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("opens loopback sockets and runs for several seconds")
	}
	bf := readBenchmarkFile(t)
	for _, name := range workloadNames() {
		for _, trace := range []string{"0", "1"} {
			t.Run(name+"/trace="+trace, func(t *testing.T) {
				out := t.TempDir()
				var stdout, stderr bytes.Buffer
				code := run([]string{"--workload", name, "--seed", "3", "--seconds", "1", "--trace", trace, "--smoke", "--out", out}, &stdout, &stderr)
				if code != 0 {
					t.Fatalf("exit %d\nstdout:\n%s\nstderr:\n%s", code, stdout.String(), stderr.String())
				}
				lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
				var res result
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
					t.Fatalf("last line is not a result: %v\n%s", err, stdout.String())
				}
				if !res.Correct || res.Attempted < 1 {
					t.Fatalf("result %+v\n%s", res, stdout.String())
				}
				declared := bf.EndToEnd
				if trace == "1" {
					declared = bf.PerLayer
				}
				if len(res.Metrics) != len(declared) {
					t.Errorf("printed %d metrics, BENCHMARK.json declares %d", len(res.Metrics), len(declared))
				}
				for _, m := range declared {
					got, ok := res.Metrics[m.Name]
					if !ok || got.Unit != m.Unit {
						t.Errorf("metric %s: printed %+v (present %v), want unit %s", m.Name, got, ok, m.Unit)
					}
				}
				if trace == "0" {
					for name, m := range res.Metrics {
						if m.Value == 0 {
							t.Errorf("end-to-end metric %s reads 0", name)
						}
					}
				}
				records, _ := filepath.Glob(filepath.Join(out, "*.json"))
				if len(records) != 1 {
					t.Errorf("result records: %v", records)
				}
				spans, _ := filepath.Glob(filepath.Join(out, "*.spans.jsonl"))
				if (trace == "1") != (len(spans) == 1) {
					t.Errorf("span files %v for trace=%s", spans, trace)
				}
			})
		}
	}
}

func TestBadArgumentsFail(t *testing.T) {
	for _, args := range [][]string{
		{},
		{"--workload", "nope"},
		{"--workload", "sim-massfail", "--trace", "2"},
		{"--workload", "sim-massfail", "--seconds", "0"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr); code == 0 || stdout.Len() != 0 {
			t.Errorf("run(%v) = %d, stdout %q; want a failure and no result", args, code, stdout.String())
		}
	}
}
