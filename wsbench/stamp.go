package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// stamp records the scale and environment of one result. It is printed
// on the line before the result, and compare refuses to set results of
// different scale or core count against each other.
type stamp struct {
	Workload         string `json:"workload"`
	Seed             int64  `json:"seed"`
	ClassLimit       int    `json:"class_limit"`
	Workers          int    `json:"workers"`
	GOMAXPROCS       int    `json:"gomaxprocs"`
	NProc            int    `json:"nproc"`
	GoVersion        string `json:"go_version"`
	CPUModel         string `json:"cpu_model"`
	Commit           string `json:"commit"`
	Seconds          int    `json:"seconds"`
	Traced           bool   `json:"traced"`
	Iterations       int    `json:"iterations"`
	TracedIterations int    `json:"traced_iterations"`
	// StealShare is the share of the machine's CPU time that the
	// hypervisor gave to other guests during the loop. Wall times taken
	// under different steal are not like for like.
	StealShare float64 `json:"steal_share"`
	// RulerS is the median ruler reading of the loop (see ruler.go);
	// the timing metrics are scaled by rulerRef over the readings.
	RulerS float64 `json:"ruler_s"`
}

func newStamp(cfg *config, workers int) *stamp {
	return &stamp{
		Workload:   cfg.workload.name,
		Seed:       cfg.seed,
		ClassLimit: cfg.workload.limit,
		Workers:    workers,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NProc:      runtime.NumCPU(),
		GoVersion:  runtime.Version(),
		CPUModel:   cpuModel(),
		Commit:     sourceDigest(),
		Seconds:    cfg.seconds,
		Traced:     cfg.traced,
	}
}

// cpuModel reads the first "model name" of /proc/cpuinfo.
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

// sourceDigest identifies the code under test. The benchmark runs from
// a plain checkout without version-control metadata, so the commit is
// named by a digest of the sources it builds: go.mod and every .go
// file under internal/ and wsbench/, relative to the checkout root.
func sourceDigest() string {
	h := sha256.New()
	var files []string
	for _, root := range []string{"internal", "wsbench"} {
		err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err == nil && !d.IsDir() && strings.HasSuffix(path, ".go") {
				files = append(files, path)
			}
			return err
		})
		if err != nil {
			return "unknown"
		}
	}
	sort.Strings(files)
	for _, path := range append([]string{"go.mod"}, files...) {
		data, err := os.ReadFile(path)
		if err != nil {
			return "unknown"
		}
		fmt.Fprintf(h, "%s %d\n", filepath.ToSlash(path), len(data))
		h.Write(data)
	}
	return "src-" + hex.EncodeToString(h.Sum(nil))[:16]
}

// hostSteal reads the machine's cumulative steal time, in seconds over
// all CPUs, from /proc/stat; 0 where it is not available.
func hostSteal() float64 {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0
	}
	ticks, err := strconv.ParseFloat(fields[8], 64)
	if err != nil {
		return 0
	}
	return ticks / userHZ
}

// userHZ is the unit of /proc/stat's times, fixed at 100 per second on
// Linux.
const userHZ = 100

// runOutput is one parsed benchmark output: its stamp and result.
type runOutput struct {
	stamp  stamp
	result resultLine
}

// readOutputs parses every stamp + result pair in a file of captured
// benchmark standard output (one or more runs, concatenated).
func readOutputs(path string) ([]runOutput, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var runs []runOutput
	var pending *stamp
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if !strings.HasPrefix(line, "{") {
			continue
		}
		var st struct {
			Stamp *stamp `json:"stamp"`
		}
		if err := json.Unmarshal([]byte(line), &st); err == nil && st.Stamp != nil {
			pending = st.Stamp
			continue
		}
		var res resultLine
		if err := json.Unmarshal([]byte(line), &res); err != nil || res.Metrics == nil {
			continue
		}
		if pending == nil {
			return nil, fmt.Errorf("%s: result without a stamp line", path)
		}
		runs = append(runs, runOutput{stamp: *pending, result: res})
		pending = nil
	}
	if len(runs) == 0 {
		return nil, fmt.Errorf("%s: no benchmark results", path)
	}
	return runs, nil
}

// comparable names the first scale or core-count field in which two
// stamps differ; "" when results may be compared.
func comparable(a, b stamp) string {
	switch {
	case a.Workload != b.Workload:
		return "workload"
	case a.ClassLimit != b.ClassLimit:
		return "class_limit"
	case a.Seconds != b.Seconds:
		return "seconds"
	case a.Traced != b.Traced:
		return "traced"
	case a.Workers != b.Workers:
		return "workers"
	case a.GOMAXPROCS != b.GOMAXPROCS:
		return "gomaxprocs"
	case a.NProc != b.NProc:
		return "nproc"
	}
	return ""
}

// spec is the part of BENCHMARK.json compare reads.
type spec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// compareMain compares the medians of two sets of captured runs, metric
// by metric, against the bounds in BENCHMARK.json. It exits 2 when the
// runs differ in scale or core count (they are refused, not compared),
// 1 when any NEW run failed its oracle or a bounded metric got worse by
// more than its bound, else 0.
func compareMain(args []string, out, errOut io.Writer) int {
	if len(args) != 2 {
		fmt.Fprintln(errOut, "usage: wsbench compare BASE NEW")
		return 2
	}
	var sides [2][]runOutput
	for i := range sides {
		runs, err := readOutputs(args[i])
		if err != nil {
			fmt.Fprintln(errOut, "wsbench compare:", err)
			return 2
		}
		sides[i] = runs
	}
	ref := sides[0][0].stamp
	for _, side := range sides {
		for _, r := range side {
			if field := comparable(ref, r.stamp); field != "" {
				fmt.Fprintf(errOut, "wsbench compare: refused: %s differs (%s seed %d vs %s seed %d)\n",
					field, ref.Workload, ref.Seed, r.stamp.Workload, r.stamp.Seed)
				return 2
			}
		}
	}
	// A wrong answer fails the comparison whatever the timings say, and
	// one failing run is not hidden behind the other runs' medians.
	for i, r := range sides[1] {
		if !r.result.Correct || r.result.Failed > 0 {
			fmt.Fprintf(errOut, "wsbench compare: NEW run %d (%s seed %d) failed its oracle: %d of %d iterations\n",
				i+1, r.stamp.Workload, r.stamp.Seed, r.result.Failed, r.result.Attempted)
			return 1
		}
	}
	var sp spec
	if data, err := os.ReadFile("BENCHMARK.json"); err != nil {
		fmt.Fprintln(errOut, "wsbench compare:", err)
		return 2
	} else if err := json.Unmarshal(data, &sp); err != nil {
		fmt.Fprintln(errOut, "wsbench compare: BENCHMARK.json:", err)
		return 2
	}
	status := 0
	fmt.Fprintf(out, "%-28s %14s %14s %9s %7s\n", "metric", "base", "new", "change", "bound")
	for _, m := range sp.EndToEnd {
		var med [2]float64
		for i, side := range sides {
			v := make([]float64, 0, len(side))
			for _, r := range side {
				if x, ok := r.result.Metrics[m.Name]; ok {
					v = append(v, x.Value)
				}
			}
			med[i] = median(v)
		}
		change := share(med[1]-med[0], med[0])
		worse := change
		if m.Better == "higher" {
			worse = -change
		}
		verdict := ""
		if worse > m.Bound {
			verdict = "  WORSE"
			status = 1
		}
		fmt.Fprintf(out, "%-28s %14.6g %14.6g %+8.2f%% %6.0f%%%s\n",
			m.Name, med[0], med[1], 100*change, 100*m.Bound, verdict)
	}
	return status
}
