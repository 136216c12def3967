// Command perfbench is the repository benchmark. It drives one seeded
// workload through the public APIs of testbed, testbed/stacks, load,
// proc and app/faceverify, checks every output, and prints one JSON
// object as the last line of standard output: the end-to-end metrics,
// or with -trace 1 the per-layer metrics. README.md defines the
// workloads and every metric; run.py builds and runs it.
//
//	perfbench -workload fv-closed -seed 1 -seconds 10 -trace 0
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// metric is one reported value with its unit and the clock it was
// measured on ("virtual", "host", or "count" for exact tallies).
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	clock string
	note  string
}

type result struct {
	Correct   bool               `json:"correct"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Metrics   map[string]*metric `json:"metrics"`
}

func main() {
	var (
		name    = flag.String("workload", "", "workload: fv-closed, route-open or chain-lossy")
		seed    = flag.Int64("seed", 1, "workload seed")
		seconds = flag.Float64("seconds", 10, "host seconds to measure for")
		trace   = flag.Int("trace", 0, "1 = traced run printing the per-layer metrics")
		state   = flag.String("state", "", "directory of per-seed virtual digests checked across runs (empty = none)")
		commit  = flag.String("commit", "unknown", "source revision, recorded in the run metadata")
	)
	flag.Parse()
	mk, ok := workloads[*name]
	if !ok || *trace < 0 || *trace > 1 || *seconds <= 0 {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workloads: %s)\n", strings.Join(workloadNames(), ", "))
		os.Exit(2)
	}
	w := mk(*seed)

	meta := map[string]any{
		"workload": *name, "seed": *seed, "trace": *trace,
		"cpu_model": cpuModel(), "nproc": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0),
		"go_version": runtime.Version(), "goos": runtime.GOOS, "goarch": runtime.GOARCH,
		"commit": *commit, "requests_per_round": w.requests,
	}
	res, rounds, err := measure(w, time.Duration(*seconds*float64(time.Second)), *trace == 1)
	if err == nil && *state != "" {
		err = checkDigest(*state, *name, *seed, rounds[0].digest)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		res.Correct = false
	}
	meta["rounds"] = len(rounds)
	report(os.Stdout, meta, res)
	if !res.Correct {
		os.Exit(1)
	}
}

// checkDigest compares this run's virtual digest with the one an
// earlier run of the same seed left in dir, and records it otherwise:
// every run of one seed, traced or not, must simulate the same thing.
func checkDigest(dir, name string, seed int64, digest string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-%d.digest", name, seed))
	prev, err := os.ReadFile(path)
	if err == nil {
		if string(prev) != digest {
			return fmt.Errorf("determinism: seed %d simulated differently from an earlier run", seed)
		}
		return nil
	}
	if !os.IsNotExist(err) {
		return err
	}
	return os.WriteFile(path, []byte(digest), 0o644)
}

// digestOf hashes the exact, simulation-determined part of a round.
func digestOf(vals map[string]float64) string {
	keys := make([]string, 0, len(vals))
	for k := range vals {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	h := sha256.New()
	for _, k := range keys {
		fmt.Fprintf(h, "%s=%v\n", k, vals[k])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// report prints the metadata line, a human-readable table, and the
// result object as the last line.
func report(out *os.File, meta map[string]any, res *result) {
	mj, _ := json.Marshal(map[string]any{"meta": meta})
	fmt.Fprintln(out, string(mj))
	names := make([]string, 0, len(res.Metrics))
	for k := range res.Metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		m := res.Metrics[k]
		fmt.Fprintf(out, "# %-34s %14.4f %-6s %-7s %s\n", k, m.Value, m.Unit, m.clock, m.note)
	}
	rj, _ := json.Marshal(res)
	fmt.Fprintln(out, string(rj))
}

// cpuModel reads the host CPU model for the run record.
func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
