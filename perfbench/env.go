package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

// environment names what every number was measured on.
func environment() map[string]string {
	env := map[string]string{
		"commit":     commit(),
		"go":         runtime.Version(),
		"gomaxprocs": fmt.Sprint(runtime.GOMAXPROCS(0)),
		"nproc":      fmt.Sprint(runtime.NumCPU()),
		"os_arch":    runtime.GOOS + "/" + runtime.GOARCH,
		"ram":        ram(),
		"cpu":        cpuModel(),
		"link":       "loopback, not a real link",
	}
	return env
}

func envLine(env map[string]string) string {
	keys := make([]string, 0, len(env))
	for k := range env {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	for i, k := range keys {
		if i > 0 {
			b.WriteString(" | ")
		}
		fmt.Fprintf(&b, "%s=%s", k, env[k])
	}
	return b.String()
}

// commit is the revision the tree was built from: $PERFBENCH_COMMIT when
// set, else the HEAD of a .git directory in the working directory.
func commit() string {
	if c := os.Getenv("PERFBENCH_COMMIT"); c != "" {
		return c
	}
	head, err := os.ReadFile(filepath.Join(".git", "HEAD"))
	if err != nil {
		return "unknown (not a git checkout; set PERFBENCH_COMMIT)"
	}
	ref, isRef := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !isRef {
		return ref
	}
	if b, err := os.ReadFile(filepath.Join(".git", ref)); err == nil {
		return strings.TrimSpace(string(b))
	}
	if b, err := os.ReadFile(filepath.Join(".git", "packed-refs")); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if h, r, ok := strings.Cut(line, " "); ok && r == ref {
				return h
			}
		}
	}
	return "unknown (" + ref + ")"
}

func ram() string {
	var si syscall.Sysinfo_t
	if err := syscall.Sysinfo(&si); err != nil {
		return "unknown"
	}
	return fmt.Sprintf("%.1f GiB", float64(si.Totalram)*float64(si.Unit)/(1<<30))
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// cpuTime is the process's user and system CPU time so far (getrusage).
type cpuTime struct{ User, Sys time.Duration }

func processCPU() cpuTime {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return cpuTime{}
	}
	return cpuTime{User: time.Duration(ru.Utime.Nano()), Sys: time.Duration(ru.Stime.Nano())}
}

func (c cpuTime) sub(o cpuTime) cpuTime { return cpuTime{User: c.User - o.User, Sys: c.Sys - o.Sys} }

func (c cpuTime) total() time.Duration { return c.User + c.Sys }

// memSample is the runtime's allocation and GC counters at one instant.
type memSample struct {
	Mallocs, NumGC uint64
	PauseNs        uint64
}

func (m memSample) sub(o memSample) memSample {
	return memSample{Mallocs: m.Mallocs - o.Mallocs, NumGC: m.NumGC - o.NumGC, PauseNs: m.PauseNs - o.PauseNs}
}

func (m memSample) add(o memSample) memSample {
	return memSample{Mallocs: m.Mallocs + o.Mallocs, NumGC: m.NumGC + o.NumGC, PauseNs: m.PauseNs + o.PauseNs}
}

func readMem() memSample {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return memSample{Mallocs: ms.Mallocs, NumGC: uint64(ms.NumGC), PauseNs: ms.PauseTotalNs}
}

// liveHeap forces collections and returns the bytes still allocated. The
// second collection also frees what sync.Pools kept from the first.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// heapGrowth is after-before in bytes, negative when the heap shrank.
func heapGrowth(before, after uint64) float64 { return float64(after) - float64(before) }

// runtimeLayer fills the runtime.* per-layer metrics over a measured
// phase of ops broadcasts and events engine events or frames; mem is the
// phase's change in the runtime counters.
func runtimeLayer(layer map[string]float64, mem memSample, cpu cpuTime, ops, events float64) {
	allocs := float64(mem.Mallocs)
	layer["runtime.allocs_per_bcast"] = ratio(allocs, ops)
	layer["runtime.allocs_per_event"] = ratio(allocs, events)
	layer["runtime.gc_cycles"] = float64(mem.NumGC)
	layer["runtime.gc_pause_ms"] = float64(mem.PauseNs) / 1e6
	layer["runtime.cpu_sys_share"] = ratio(float64(cpu.Sys), float64(cpu.total()))
}
