// Command benchjson converts `go test -bench` output on stdin into a
// machine-readable benchmark trajectory file, so successive changes
// have a stable perf baseline to compare against.
//
// Usage:
//
//	go test -run '^$' -bench 'Fig4|TableIII|FullCampaign' . | go run ./cmd/benchjson -o BENCH_campaign.json
//
// Every metric the benchmarks report is preserved: ns/op, the
// campaign's tests/s throughput, the shape memo's classes/shape
// compression, allocation counters, and any future b.ReportMetric
// additions — the tool is schema-free on the metric axis.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"
)

// Benchmark is one benchmark result line.
type Benchmark struct {
	// Name is the benchmark name with the -cpu suffix stripped
	// (BenchmarkShapeDedup/dedup-8 → ShapeDedup/dedup).
	Name string `json:"name"`
	// Iterations is b.N for the recorded run.
	Iterations int64 `json:"iterations"`
	// Metrics maps unit → value for every reported metric (ns/op,
	// tests/s, classes/shape, B/op, allocs/op, ...). For a benchmark
	// run more than once (-count N) each value is the median.
	Metrics map[string]float64 `json:"metrics"`
	// Runs is the number of result lines folded into the medians;
	// omitted for a single run.
	Runs int `json:"runs,omitempty"`
}

// Trajectory is the file layout of BENCH_campaign.json.
type Trajectory struct {
	// Recorded is the RFC 3339 timestamp of the conversion.
	Recorded string `json:"recorded"`
	// Goos/Goarch/CPU/Pkg echo the `go test` environment header.
	Goos   string `json:"goos,omitempty"`
	Goarch string `json:"goarch,omitempty"`
	CPU    string `json:"cpu,omitempty"`
	Pkg    string `json:"pkg,omitempty"`
	// Gomaxprocs is the -N suffix of the benchmark lines: the
	// GOMAXPROCS the run used — and, since the campaign benches run
	// with Config.Workers=0, the worker-pool size behind every
	// throughput number.
	Gomaxprocs int `json:"gomaxprocs,omitempty"`
	// Workers is the campaign worker count the numbers were measured
	// at (equal to Gomaxprocs for the default-configured benches).
	Workers int `json:"workers,omitempty"`
	// Benchmarks holds one entry per benchmark line, in input order.
	Benchmarks []Benchmark `json:"benchmarks"`
	// History holds one compact snapshot per previous recording, in
	// chronological order: each refresh pushes the file's prior
	// current state here instead of discarding it, so the file shows
	// the perf trajectory across changes.
	History []HistoryEntry `json:"history,omitempty"`
}

// HistoryEntry is one superseded recording, reduced to its timestamp,
// CPU, and metric values.
type HistoryEntry struct {
	Recorded string `json:"recorded"`
	CPU      string `json:"cpu,omitempty"`
	// Metrics maps benchmark name → unit → value.
	Metrics map[string]map[string]float64 `json:"metrics"`
}

func main() {
	out := flag.String("o", "BENCH_campaign.json", "output file path")
	check := flag.Bool("check", false, "compare stdin against -baseline instead of writing; exit 1 on regression")
	baseline := flag.String("baseline", "BENCH_campaign.json", "baseline trajectory for -check")
	benchName := flag.String("bench", "FullCampaign", "benchmark compared by -check, with its sub-benchmarks")
	metric := flag.String("metric", "tests/s", "metric compared by -check (higher is better)")
	maxRegress := flag.Float64("max-regress", 0.20, "maximum allowed fractional drop for -check")
	flag.Parse()
	traj, err := parse(os.Stdin)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	if *check {
		if err := checkRegression(traj, *baseline, *benchName, *metric, *maxRegress); err != nil {
			fmt.Fprintln(os.Stderr, "benchjson:", err)
			os.Exit(1)
		}
		return
	}
	if prev, err := loadTrajectory(*out); err == nil {
		traj.History = append(prev.History, snapshot(prev))
	}
	data, err := json.MarshalIndent(traj, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	data = append(data, '\n')
	if err := os.WriteFile(*out, data, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "benchjson: wrote %d benchmarks to %s (%d history entries)\n",
		len(traj.Benchmarks), *out, len(traj.History))
}

// loadTrajectory reads a previously written trajectory file.
func loadTrajectory(path string) (*Trajectory, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var traj Trajectory
	if err := json.Unmarshal(data, &traj); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &traj, nil
}

// snapshot reduces a trajectory's current state to a history entry.
func snapshot(traj *Trajectory) HistoryEntry {
	h := HistoryEntry{
		Recorded: traj.Recorded,
		CPU:      traj.CPU,
		Metrics:  make(map[string]map[string]float64, len(traj.Benchmarks)),
	}
	for _, bm := range traj.Benchmarks {
		h.Metrics[bm.Name] = bm.Metrics
	}
	return h
}

// metricOf finds the named benchmark's value for the unit, or an
// error naming what was missing.
func metricOf(traj *Trajectory, bench, unit string) (float64, error) {
	for _, bm := range traj.Benchmarks {
		if bm.Name != bench {
			continue
		}
		if v, ok := bm.Metrics[unit]; ok {
			return v, nil
		}
		return 0, fmt.Errorf("benchmark %s has no %q metric", bench, unit)
	}
	return 0, fmt.Errorf("benchmark %s not found", bench)
}

// checkRegression compares the run on stdin against the committed
// baseline and fails when the metric (higher-is-better) dropped by
// more than the allowed fraction. Every entry of the run named bench,
// or one of its sub-benchmarks (FullCampaign/limit=300), is compared
// with the baseline entry of exactly the same name; a baseline without
// one is an error, never a comparison against another scale. So is a
// run at another GOMAXPROCS than the baseline's: the campaign benches
// size their worker pool from it.
func checkRegression(cur *Trajectory, baselinePath, bench, unit string, maxRegress float64) error {
	base, err := loadTrajectory(baselinePath)
	if err != nil {
		return err
	}
	if cur.Gomaxprocs != base.Gomaxprocs {
		return fmt.Errorf("current run at gomaxprocs %d, baseline %s at gomaxprocs %d; refusing to compare different core counts (run with -cpu %d)",
			cur.Gomaxprocs, baselinePath, base.Gomaxprocs, base.Gomaxprocs)
	}
	checked := 0
	for _, bm := range cur.Benchmarks {
		if bm.Name != bench && !strings.HasPrefix(bm.Name, bench+"/") {
			continue
		}
		checked++
		curV, err := metricOf(cur, bm.Name, unit)
		if err != nil {
			return fmt.Errorf("current run: %w", err)
		}
		baseV, err := metricOf(base, bm.Name, unit)
		if err != nil {
			return fmt.Errorf("baseline %s: %w; refusing to compare against another benchmark or scale (record one with make bench-json)",
				baselinePath, err)
		}
		floor := baseV * (1 - maxRegress)
		if curV < floor {
			return fmt.Errorf("%s %s regressed: %.0f < %.0f (baseline %.0f, tolerance %.0f%%)",
				bm.Name, unit, curV, floor, baseV, maxRegress*100)
		}
		fmt.Fprintf(os.Stderr, "benchjson: %s %s OK: %.0f vs baseline %.0f (floor %.0f)\n",
			bm.Name, unit, curV, baseV, floor)
	}
	if checked == 0 {
		return fmt.Errorf("current run: benchmark %s not found", bench)
	}
	return nil
}

// parse reads `go test -bench` output and collects header metadata
// and benchmark result lines. Non-benchmark lines (test output, PASS,
// ok) are ignored, so the tool can sit directly behind `go test`.
func parse(r io.Reader) (*Trajectory, error) {
	traj := &Trajectory{Recorded: time.Now().UTC().Format(time.RFC3339)}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		switch {
		case strings.HasPrefix(line, "goos:"):
			traj.Goos = strings.TrimSpace(strings.TrimPrefix(line, "goos:"))
		case strings.HasPrefix(line, "goarch:"):
			traj.Goarch = strings.TrimSpace(strings.TrimPrefix(line, "goarch:"))
		case strings.HasPrefix(line, "cpu:"):
			traj.CPU = strings.TrimSpace(strings.TrimPrefix(line, "cpu:"))
		case strings.HasPrefix(line, "pkg:"):
			traj.Pkg = strings.TrimSpace(strings.TrimPrefix(line, "pkg:"))
		case strings.HasPrefix(line, "Benchmark"):
			bm, procs, ok := parseBenchLine(line)
			if ok {
				traj.Benchmarks = append(traj.Benchmarks, bm)
				if traj.Gomaxprocs == 0 && procs > 0 {
					traj.Gomaxprocs = procs
					traj.Workers = procs
				}
			}
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(traj.Benchmarks) == 0 {
		return nil, fmt.Errorf("no benchmark lines found on stdin")
	}
	traj.Benchmarks = foldRepeats(traj.Benchmarks)
	if traj.Gomaxprocs == 0 {
		// go test omits the -N suffix exactly when GOMAXPROCS is 1.
		traj.Gomaxprocs, traj.Workers = 1, 1
	}
	return traj, nil
}

// foldRepeats merges the result lines of a benchmark run more than
// once (-count N) into one entry, in first-appearance order, holding
// the median of each metric: on a machine whose speed drifts, one
// sample can land far from the typical run, the median rarely does.
func foldRepeats(lines []Benchmark) []Benchmark {
	var out []Benchmark
	runs := make(map[string][]Benchmark, len(lines))
	for _, bm := range lines {
		if _, seen := runs[bm.Name]; !seen {
			out = append(out, bm)
		}
		runs[bm.Name] = append(runs[bm.Name], bm)
	}
	for i, bm := range out {
		rs := runs[bm.Name]
		if len(rs) == 1 {
			continue
		}
		folded := Benchmark{Name: bm.Name, Iterations: bm.Iterations,
			Metrics: make(map[string]float64, len(bm.Metrics)), Runs: len(rs)}
		for unit := range bm.Metrics {
			vals := make([]float64, 0, len(rs))
			for _, r := range rs {
				if v, ok := r.Metrics[unit]; ok {
					vals = append(vals, v)
				}
			}
			folded.Metrics[unit] = median(vals)
		}
		out[i] = folded
	}
	return out
}

// median returns the middle value of vals (the mean of the two middle
// values for an even count); vals is reordered.
func median(vals []float64) float64 {
	sort.Float64s(vals)
	n := len(vals)
	if n%2 == 1 {
		return vals[n/2]
	}
	return (vals[n/2-1] + vals[n/2]) / 2
}

// parseBenchLine parses one result line, returning the benchmark and
// the -N GOMAXPROCS marker (0 when the name carries none):
//
//	BenchmarkFig4Campaign-8   10   79370513 ns/op   124455 tests/s
func parseBenchLine(line string) (Benchmark, int, bool) {
	fields := strings.Fields(line)
	if len(fields) < 4 || len(fields)%2 != 0 {
		return Benchmark{}, 0, false
	}
	iters, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return Benchmark{}, 0, false
	}
	name, procs := splitCPUSuffix(strings.TrimPrefix(fields[0], "Benchmark"))
	bm := Benchmark{
		Name:       name,
		Iterations: iters,
		Metrics:    make(map[string]float64, (len(fields)-2)/2),
	}
	for i := 2; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			return Benchmark{}, 0, false
		}
		bm.Metrics[fields[i+1]] = v
	}
	return bm, procs, true
}

// splitCPUSuffix drops the trailing -N GOMAXPROCS marker from the last
// path segment of a benchmark name and returns its value (0 if none).
func splitCPUSuffix(name string) (string, int) {
	slash := strings.LastIndexByte(name, '/')
	dash := strings.LastIndexByte(name, '-')
	if dash <= slash {
		return name, 0
	}
	procs, err := strconv.Atoi(name[dash+1:])
	if err != nil {
		return name, 0
	}
	return name[:dash], procs
}
