// Command wsbench is the repository's benchmark. It runs one workload
// of the interoperability campaign as a closed loop from a single
// load generator — the next iteration starts only after the previous one has
// finished and its output has passed the workload's oracle — and
// prints the end-to-end metrics, or with -trace 1 the per-layer
// metrics, as one JSON object on the last line of standard output.
//
//	bash wsbench/run.sh --workload study_cold --seed 1 --seconds 25 --trace 0
//	bash wsbench/run.sh compare base.out new.out
//
// README.md in this directory describes the workloads and metrics.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// Run sizing.
const (
	// setupProbes is how many fresh processes time the set-up; setup_s
	// is their median.
	setupProbes = 15
	// warmLimit caps the warm-up iteration that fills the program's
	// process-once caches before timing.
	warmLimit = 2
)

// workdir holds each process's checkpoint journals, below the build
// directory run.sh uses, relative to the checkout root.
const workdir = ".bench_build/wsbench/work"

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:], os.Stdout, os.Stderr))
	}
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "wsbench:", err)
		os.Exit(1)
	}
}

// config is the parsed command line.
type config struct {
	workload *workload
	seed     int64
	seconds  int
	traced   bool
	probe    bool
}

func parseArgs(args []string) (*config, error) {
	fs := flag.NewFlagSet("wsbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	seed := fs.Int64("seed", 1, "input seed")
	seconds := fs.Int("seconds", 25, "how long the closed loop measures")
	traceFlag := fs.Int("trace", 0, "1 runs the traced loop and prints the per-layer metrics")
	probe := fs.Bool("setup-probe", false, "set up, print ready and exit (used to time setup_s)")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	w, ok := lookupWorkload(*name)
	if !ok {
		return nil, fmt.Errorf("unknown workload %q (valid: %s)", *name, strings.Join(workloadNames(), ", "))
	}
	if *seconds < 1 {
		return nil, fmt.Errorf("-seconds must be positive, got %d", *seconds)
	}
	if *traceFlag != 0 && *traceFlag != 1 {
		return nil, fmt.Errorf("-trace must be 0 or 1, got %d", *traceFlag)
	}
	return &config{workload: w, seed: *seed, seconds: *seconds, traced: *traceFlag == 1,
		probe: *probe}, nil
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return names
}

func run(args []string, out io.Writer) error {
	cfg, err := parseArgs(args)
	if err != nil {
		return err
	}
	// The load fits the box: one worker per CPU and no other load.
	nproc := runtime.NumCPU()
	runtime.GOMAXPROCS(nproc)
	e := &env{seed: cfg.seed, workers: nproc,
		scratch: filepath.Join(workdir, strconv.Itoa(os.Getpid()))}
	defer os.RemoveAll(e.scratch)
	ctx := context.Background()

	if cfg.probe {
		if _, err := setUp(ctx, cfg.workload, e); err != nil {
			return err
		}
		_, err := fmt.Fprintln(out, "ready")
		return err
	}

	var prober *setupProber
	if !cfg.traced {
		if prober, err = newSetupProber(cfg); err != nil {
			return err
		}
	}
	catalogS, err := setUp(ctx, cfg.workload, e)
	if err != nil {
		return err
	}

	res, err := closedLoop(ctx, cfg, e, prober)
	if err != nil {
		return err
	}
	st := newStamp(cfg, e.workers)
	st.Iterations, st.TracedIterations = res.attempted-res.tracedAttempted, res.tracedAttempted
	st.StealShare = res.stealShare
	st.RulerS = median(res.readings)
	result := resultLine{
		Correct:   res.failed == 0,
		Attempted: res.attempted,
		Failed:    res.failed,
		Metrics:   make(map[string]metric),
	}
	if cfg.traced {
		tr := newTrace()
		if w := cfg.workload; w.perRun != nil {
			if err := w.perRun(e, w.limit, tr); err != nil {
				return err
			}
		}
		tr.set("typesys.catalog_s", catalogS)
		tr.set("trace.overhead_share", share(median(walls(res.traced)), median(walls(res.plain)))-1)
		for _, m := range layerMetrics {
			v, ok := tr.vals[m.name]
			if !ok {
				v = medianOf(res.traced, m.name)
			}
			result.Metrics[m.name] = metric{Value: v, Unit: m.unit}
		}
	} else {
		result.Metrics = endToEnd(res, prober.median(res.readings))
	}
	return printResult(out, st, result)
}

// setUp performs everything that precedes the timed loop: loading the
// corpus, whose duration it returns, and a small warm-up iteration that
// fills process-once caches.
func setUp(ctx context.Context, w *workload, e *env) (float64, error) {
	start := time.Now()
	if err := w.setup(e); err != nil {
		return 0, fmt.Errorf("setup: %w", err)
	}
	catalogS := time.Since(start).Seconds()
	if err := resetDir(e.scratch); err != nil {
		return 0, err
	}
	if _, err := w.iterate(ctx, e, warmLimit, nil); err != nil {
		return 0, fmt.Errorf("warm-up: %w", err)
	}
	return catalogS, nil
}

// setupProber times setup_s: each probe starts a fresh benchmark
// process, which sets up, reports that its timed loop could begin and
// exits, and is waited for before anything else runs. The probes are
// spread evenly over the timed loop, between iterations, so that their
// median, setup_s, averages over the machine's state during the whole
// run rather than one moment of it. Each probe is scaled by the ruler
// reading taken right after it, as iterations are. Probe time does not
// count against the loop's measuring window.
type setupProber struct {
	exe   string
	args  []string
	times []float64
	next  []int         // per probe, the index of the ruler reading that follows it
	spent time.Duration // total wall of the probes so far
}

func newSetupProber(cfg *config) (*setupProber, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	return &setupProber{exe: exe, args: []string{"-setup-probe", "-workload", cfg.workload.name,
		"-seed", strconv.FormatInt(cfg.seed, 10)}}, nil
}

// catchUp runs probes until the given share of setupProbes has run;
// next is the index of the ruler reading that will follow them. A nil
// prober (a traced run) runs none.
func (p *setupProber) catchUp(done float64, next int) error {
	if p == nil {
		return nil
	}
	for float64(len(p.times)) < min(done, 1)*setupProbes {
		if err := p.probe(); err != nil {
			return err
		}
		p.next = append(p.next, next)
	}
	return nil
}

func (p *setupProber) probe() error {
	cmd := exec.Command(p.exe, p.args...)
	cmd.Stderr = os.Stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return err
	}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return fmt.Errorf("setup probe: %w", err)
	}
	line, rerr := bufio.NewReader(stdout).ReadString('\n')
	elapsed := time.Since(start).Seconds()
	if werr := cmd.Wait(); werr != nil || rerr != nil || line != "ready\n" {
		return fmt.Errorf("setup probe failed: %v", errors.Join(werr, rerr))
	}
	p.times = append(p.times, elapsed)
	p.spent += time.Since(start)
	return nil
}

// elapsed is the wall the probes have taken so far.
func (p *setupProber) elapsed() time.Duration {
	if p == nil {
		return 0
	}
	return p.spent
}

// median is setup_s: the median probe, scaled to the ruler's reference
// speed; 0 for none.
func (p *setupProber) median(readings []float64) float64 {
	if p == nil {
		return 0
	}
	v := make([]float64, len(p.times))
	for i, t := range p.times {
		v[i] = t * rulerRef / readings[p.next[i]]
	}
	return median(v)
}

// sample is one iteration's measurement.
type sample struct {
	wall, cpu           float64 // seconds, scaled to the ruler's reference speed
	rawWall             float64 // seconds, as measured
	reading             int     // index of the ruler reading taken just before
	allocBytes, objects float64
	gcCPU, busyCPU      float64 // runtime-attributed CPU seconds
	cells               int
	layers              map[string]float64 // traced iterations only
}

// loopResult is the whole closed loop.
type loopResult struct {
	plain, traced                      []sample
	attempted, tracedAttempted, failed int
	stealShare                         float64   // of the machine's CPU time during the loop
	readings                           []float64 // ruler readings, one before every iteration and one after the last
}

// closedLoop runs iterations back to back until the next one would end
// past the measuring window, and the set-up probes between them. A
// traced loop alternates untraced and traced iterations, so both see
// the same machine state and trace.overhead_share compares like with
// like.
func closedLoop(ctx context.Context, cfg *config, e *env, prober *setupProber) (*loopResult, error) {
	res := &loopResult{}
	minIters := 1
	if cfg.traced {
		minIters = 2
	}
	rl, err := newRuler(e.workers)
	if err != nil {
		return nil, err
	}
	var bodies []float64
	steal0, begin := hostSteal(), time.Now()
	// measured is the loop's own time so far, without the probes'.
	measured := func() float64 { return (time.Since(begin) - prober.elapsed()).Seconds() }
	for i := 0; ; i++ {
		if i >= minIters && measured()+median(bodies) > float64(cfg.seconds) {
			break
		}
		bodyStart := time.Now()
		if err := resetDir(e.scratch); err != nil {
			return nil, err
		}
		runtime.GC()
		reading, err := rl.read()
		if err != nil {
			return nil, err
		}
		res.readings = append(res.readings, reading)
		var tr *trace
		if cfg.traced && i%2 == 1 {
			tr = newTrace()
			if ref := cfg.workload.reference; ref != nil {
				if err := ref(ctx, e, cfg.workload.limit, tr); err != nil {
					return nil, fmt.Errorf("traced reference: %w", err)
				}
			}
		}
		s, out, err := measure(func() (outcome, error) {
			return cfg.workload.iterate(ctx, e, cfg.workload.limit, tr)
		})
		if err == nil {
			err = out.verify()
		}
		s.reading = i
		res.attempted++
		if tr != nil {
			res.tracedAttempted++
		}
		switch {
		case err != nil:
			fmt.Fprintf(os.Stderr, "wsbench: iteration %d failed: %v\n", i, err)
			res.failed++
		case tr != nil:
			tr.set("gc.cpu_share", share(s.gcCPU, s.busyCPU))
			tr.set("alloc.objects", s.objects)
			s.layers = tr.vals
			res.traced = append(res.traced, s)
		default:
			res.plain = append(res.plain, s)
		}
		bodies = append(bodies, time.Since(bodyStart).Seconds())
		if err := prober.catchUp(measured()/float64(cfg.seconds), len(res.readings)); err != nil {
			return nil, err
		}
	}
	if err := prober.catchUp(1, len(res.readings)); err != nil {
		return nil, err
	}
	runtime.GC()
	reading, err := rl.read()
	if err != nil {
		return nil, err
	}
	res.readings = append(res.readings, reading)
	res.stealShare = share(hostSteal()-steal0, float64(runtime.NumCPU())*time.Since(begin).Seconds())
	res.plain, res.traced = res.scaled(res.plain), res.scaled(res.traced)
	raw := make([]float64, len(res.plain))
	for i, s := range res.plain {
		raw[i] = s.rawWall
	}
	fmt.Fprintf(os.Stderr, "wsbench: %s: %d untraced iterations, wall %s, scaled %s; %d traced, scaled wall %s\n",
		cfg.workload.name, len(res.plain), spread(raw), spread(walls(res.plain)), len(res.traced), spread(walls(res.traced)))
	fmt.Fprintf(os.Stderr, "wsbench: %s: %d ruler readings, %s\n", cfg.workload.name, len(res.readings), spread(res.readings))
	if prober != nil {
		fmt.Fprintf(os.Stderr, "wsbench: %s: %d set-up probes, %s\n", cfg.workload.name, len(prober.times), spread(prober.times))
	}
	return res, nil
}

// scaled returns the samples with wall and CPU time scaled to the
// ruler's reference speed, by the mean of the readings just before and
// just after each iteration.
func (res *loopResult) scaled(samples []sample) []sample {
	out := make([]sample, len(samples))
	for i, s := range samples {
		f := rulerRef / ((res.readings[s.reading] + res.readings[s.reading+1]) / 2)
		s.wall, s.cpu = s.wall*f, s.cpu*f
		out[i] = s
	}
	return out
}

func resetDir(dir string) error {
	if err := os.RemoveAll(dir); err != nil {
		return err
	}
	return os.MkdirAll(dir, 0o755)
}

// runtimeSamples are the runtime/metrics read around every iteration.
var runtimeSamples = []string{
	"/gc/heap/allocs:bytes",
	"/gc/heap/allocs:objects",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/cpu/classes/idle:cpu-seconds",
}

func readRuntime() []float64 {
	s := make([]metrics.Sample, len(runtimeSamples))
	for i, name := range runtimeSamples {
		s[i].Name = name
	}
	metrics.Read(s)
	out := make([]float64, len(s))
	for i := range s {
		switch s[i].Value.Kind() {
		case metrics.KindUint64:
			out[i] = float64(s[i].Value.Uint64())
		case metrics.KindFloat64:
			out[i] = s[i].Value.Float64()
		}
	}
	return out
}

// processCPU is the process's user + system CPU time in seconds.
func processCPU() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}

// measure runs one iteration between two readings of the clock, the
// process CPU time and the runtime's allocation and CPU accounting.
func measure(iterate func() (outcome, error)) (sample, outcome, error) {
	rt0, cpu0 := readRuntime(), processCPU()
	start := time.Now()
	out, err := iterate()
	wall := time.Since(start).Seconds()
	cpu1, rt1 := processCPU(), readRuntime()
	d := make([]float64, len(rt0))
	for i := range rt0 {
		d[i] = rt1[i] - rt0[i]
	}
	return sample{
		wall: wall, rawWall: wall, cpu: cpu1 - cpu0,
		allocBytes: d[0], objects: d[1],
		gcCPU: d[2], busyCPU: d[3] - d[4],
		cells: out.cells,
	}, out, err
}

// endToEnd computes the untraced loop's metrics.
func endToEnd(res *loopResult, setupS float64) map[string]metric {
	pick := func(f func(sample) float64) float64 {
		v := make([]float64, len(res.plain))
		for i, s := range res.plain {
			v[i] = f(s)
		}
		return median(v)
	}
	return map[string]metric{
		"setup_s":     {Value: setupS, Unit: "s"},
		"wall_s":      {Value: pick(func(s sample) float64 { return s.wall }), Unit: "s"},
		"cells_per_s": {Value: pick(func(s sample) float64 { return share(float64(s.cells), s.wall) }), Unit: "1/s"},
		"cpu_s":       {Value: pick(func(s sample) float64 { return s.cpu }), Unit: "s"},
		"alloc_mb":    {Value: pick(func(s sample) float64 { return s.allocBytes / (1 << 20) }), Unit: "MiB"},
		"peak_rss_mb": {Value: peakRSSMiB(), Unit: "MiB"},
		"ok_ratio":    {Value: share(float64(res.attempted-res.failed), float64(res.attempted)), Unit: "ratio"},
	}
}

// peakRSSMiB reads the process's resident-set high-water mark.
func peakRSSMiB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}

func walls(samples []sample) []float64 {
	v := make([]float64, len(samples))
	for i, s := range samples {
		v[i] = s.wall
	}
	return v
}

// medianOf is the median of one layer value across traced iterations.
func medianOf(samples []sample, name string) float64 {
	v := make([]float64, len(samples))
	for i, s := range samples {
		v[i] = s.layers[name]
	}
	return median(v)
}

// spread summarizes samples as min/median/max for the stderr log.
func spread(v []float64) string {
	if len(v) == 0 {
		return "-"
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return fmt.Sprintf("min %.4gs median %.4gs max %.4gs", s[0], median(s), s[len(s)-1])
}

// median of the values; 0 for none.
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the last line of standard output.
type resultLine struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// printResult writes the environment stamp line and then the result.
func printResult(out io.Writer, st *stamp, res resultLine) error {
	enc := json.NewEncoder(out)
	if err := enc.Encode(map[string]*stamp{"stamp": st}); err != nil {
		return err
	}
	return enc.Encode(res)
}
