package main

import (
	"reflect"
	"strings"
	"testing"
)

func TestParsePcts(t *testing.T) {
	def := []int{10, 20}
	tests := []struct {
		name string
		give string
		want []int
	}{
		{name: "empty uses default", give: "", want: def},
		{name: "spaces ok", give: " 30 , 40 ", want: []int{30, 40}},
		{name: "garbage filtered", give: "30,xx,101,-5", want: []int{30}},
		{name: "all garbage falls back", give: "xx,yy", want: def},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := parsePcts(tt.give, def); !reflect.DeepEqual(got, tt.want) {
				t.Errorf("parsePcts(%q) = %v, want %v", tt.give, got, tt.want)
			}
		})
	}
}

func TestRunSingleExperimentSmall(t *testing.T) {
	var out strings.Builder
	err := run([]string{
		"-exp", "table1", "-n", "150", "-stabilize", "10", "-asp-samples", "20",
	}, &out)
	if err != nil {
		t.Fatal(err)
	}
	for _, frag := range []string{"Table1", "Cyclon", "Scamp", "HyParView"} {
		if !strings.Contains(out.String(), frag) {
			t.Errorf("output missing %q:\n%s", frag, out.String())
		}
	}
}

func TestRunCSVOutput(t *testing.T) {
	var out strings.Builder
	err := run([]string{
		"-exp", "fig5", "-n", "120", "-stabilize", "5", "-csv",
	}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "protocol,in-degree,nodes") {
		t.Errorf("CSV header missing:\n%s", out.String())
	}
}

func TestRunCustomPcts(t *testing.T) {
	var out strings.Builder
	err := run([]string{
		"-exp", "fig3", "-n", "120", "-stabilize", "5", "-pcts", "50", "-fig3msgs", "5",
	}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "50% failures") {
		t.Errorf("custom pct not honored:\n%s", out.String())
	}
	if strings.Contains(out.String(), "20% failures") {
		t.Error("default pcts ran despite -pcts")
	}
}

func TestRunPlumtreeExperiment(t *testing.T) {
	var out strings.Builder
	err := run([]string{
		"-exp", "plumtree", "-n", "150", "-stabilize", "10", "-fig3msgs", "5", "-pcts", "30",
	}, &out)
	if err != nil {
		t.Fatal(err)
	}
	for _, frag := range []string{"FloodVsPlumtree", "gossip", "plumtree", "rmr"} {
		if !strings.Contains(out.String(), frag) {
			t.Errorf("output missing %q:\n%s", frag, out.String())
		}
	}
}

func TestRunBroadcastFlag(t *testing.T) {
	var out strings.Builder
	err := run([]string{
		"-exp", "fig5", "-n", "120", "-stabilize", "5", "-broadcast", "plumtree",
	}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if out.Len() == 0 {
		t.Error("plumtree-broadcast run produced no output")
	}
	if err := run([]string{"-broadcast", "bongo"}, &out); err == nil {
		t.Error("unknown broadcast layer accepted")
	}
}

func TestRunXBotExperiment(t *testing.T) {
	var out strings.Builder
	err := run([]string{
		"-exp", "xbot", "-n", "200", "-stabilize", "20", "-fig3msgs", "5",
	}, &out)
	if err != nil {
		t.Fatal(err)
	}
	for _, frag := range []string{"ObliviousVsXBot", "oblivious", "xbot", "mean-link-cost", "euclidean"} {
		if !strings.Contains(out.String(), frag) {
			t.Errorf("output missing %q:\n%s", frag, out.String())
		}
	}
}

func TestRunLatencyFlag(t *testing.T) {
	var out strings.Builder
	err := run([]string{
		"-exp", "xbot", "-n", "150", "-stabilize", "15", "-fig3msgs", "3", "-latency", "transit",
	}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "transit-stub") {
		t.Errorf("latency model not honored:\n%s", out.String())
	}
	// Any experiment must run under a latency model, not just xbot.
	out.Reset()
	if err := run([]string{
		"-exp", "fig5", "-n", "120", "-stabilize", "5", "-latency", "euclidean",
	}, &out); err != nil {
		t.Fatal(err)
	}
	if out.Len() == 0 {
		t.Error("fig5 under a latency model produced no output")
	}
	if err := run([]string{"-latency", "bongo"}, &out); err == nil {
		t.Error("unknown latency model accepted")
	}
}

func TestRunOptimizeFlag(t *testing.T) {
	var out strings.Builder
	// The optimizer composes with any experiment (peer-sampling protocols
	// ignore it); hetero is HyParView-only, so it visibly applies there.
	err := run([]string{
		"-exp", "hetero", "-n", "150", "-stabilize", "10", "-optimize", "xbot",
	}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if out.Len() == 0 {
		t.Error("optimized hetero run produced no output")
	}
	if err := run([]string{"-optimize", "bongo"}, &out); err == nil {
		t.Error("unknown optimizer accepted")
	}
}

func TestRunUnknownExperiment(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-exp", "nope"}, &out); err == nil {
		t.Error("unknown experiment accepted")
	}
}

func TestRunExtensionExperiments(t *testing.T) {
	for _, exp := range []string{"overhead", "hetero"} {
		var out strings.Builder
		err := run([]string{"-exp", exp, "-n", "120", "-stabilize", "5"}, &out)
		if err != nil {
			t.Fatalf("%s: %v", exp, err)
		}
		if out.Len() == 0 {
			t.Errorf("%s produced no output", exp)
		}
	}
}

func TestRunBadFlag(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-definitely-not-a-flag"}, &out); err == nil {
		t.Error("bad flag accepted")
	}
}

// TestRunShardsFlag pins the -shards contract: 0 (the default) and every
// explicit shard count print the same tables for a fault-free experiment,
// and negative counts are rejected.
func TestRunShardsFlag(t *testing.T) {
	tables := func(shards string) string {
		var out strings.Builder
		args := []string{"-exp", "fig2", "-n", "300", "-stabilize", "5", "-msgs", "10", "-pcts", "50"}
		if shards != "" {
			args = append(args, "-shards", shards)
		}
		if err := run(args, &out); err != nil {
			t.Fatalf("-shards %q: %v", shards, err)
		}
		var kept []string
		for _, line := range strings.Split(out.String(), "\n") {
			if !strings.Contains(line, " done in ") { // wall-clock timing
				kept = append(kept, line)
			}
		}
		return strings.Join(kept, "\n")
	}
	def := tables("")
	for _, shards := range []string{"0", "1", "4"} {
		if got := tables(shards); got != def {
			t.Errorf("-shards %s output differs from the default engine's:\n%s\nvs\n%s", shards, got, def)
		}
	}
	var out strings.Builder
	if err := run([]string{"-exp", "fig2", "-shards", "-1"}, &out); err == nil {
		t.Error("-shards -1 accepted")
	}
}

func TestRunDurationMode(t *testing.T) {
	var out strings.Builder
	err := run([]string{
		"-exp", "fig5", "-n", "120", "-shuffle-interval", "50", "-duration", "500",
	}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if out.Len() == 0 {
		t.Error("duration-mode run produced no output")
	}
}

func TestRunDurationRequiresShuffleInterval(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-exp", "fig5", "-n", "120", "-duration", "500"}, &out); err == nil {
		t.Error("-duration without -shuffle-interval accepted")
	}
}

func TestRunXBotLatencyPercentiles(t *testing.T) {
	var out strings.Builder
	err := run([]string{
		"-exp", "xbot", "-n", "150", "-stabilize", "10", "-fig3msgs", "5",
	}, &out)
	if err != nil {
		t.Fatal(err)
	}
	for _, frag := range []string{"lat-p50", "lat-p99"} {
		if !strings.Contains(out.String(), frag) {
			t.Errorf("output missing %q:\n%s", frag, out.String())
		}
	}
}
