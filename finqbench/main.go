// Command finqbench is finq's end-to-end benchmark. One process runs one
// workload: it generates the workload's inputs from --seed, drives them
// closed-loop from a single client — finq.Eval for the library workloads,
// the typed client against an in-process finqd server on 127.0.0.1 for
// serve-mix — checks every answer against the generator's expected
// answer, and prints its metrics as the last line of standard output:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end ones; with --trace 1 a
// separate traced run times the calls into each layer and prints the
// per-layer metrics. The program runs in the posture finqd ships: plan
// compiler, decision cache, obs, qstats and prof on, flight recorder
// disarmed; nothing toggles between set-up and measurement.
//
// Usage (from the repository root; finqbench/run.sh builds and runs it):
//
//	finqbench --workload enum-decide --seed 1 --seconds 10 --trace 0
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/deccache"
	"repro/internal/obs"
	"repro/internal/obs/prof"
	"repro/internal/obs/qstats"
	"repro/internal/obs/trace"
	"repro/internal/plan"
)

// setupRuns is how many times a measured run sets its workload up: the
// run's own set-up plus setupRuns-1 set-ups in child processes, each from
// a cold process, so setup_s is a median.
const setupRuns = 3

type config struct {
	workload  string
	seed      int64
	seconds   float64
	trace     bool
	setupOnly bool
	spansDir  string
}

func main() {
	var cfg config
	var traceFlag int
	flag.StringVar(&cfg.workload, "workload", "", "workload: "+strings.Join(workloadNames, ", "))
	flag.Int64Var(&cfg.seed, "seed", 1, "input seed")
	flag.Float64Var(&cfg.seconds, "seconds", 10, "measured seconds (whole passes; the last pass may overrun)")
	flag.IntVar(&traceFlag, "trace", 0, "1 = traced run printing the per-layer metrics")
	flag.BoolVar(&cfg.setupOnly, "setup-only", false, "set the workload up once, print its set-up time, and exit")
	flag.StringVar(&cfg.spansDir, "spans-dir", "", "traced run: write the recorded spans to <dir>/<workload>-seed<n>.jsonl")
	flag.Parse()
	cfg.trace = traceFlag == 1
	if err := run(cfg); err != nil {
		fmt.Fprintln(os.Stderr, "finqbench:", err)
		os.Exit(1)
	}
}

func run(cfg config) error {
	if cfg.workload == "" {
		return errors.New("--workload is required")
	}
	if err := checkPosture(); err != nil {
		return err
	}
	if cfg.setupOnly {
		s, err := startSession(cfg)
		if err != nil {
			return err
		}
		s.env.close()
		fmt.Printf("setup_s %.9f\n", s.setup.Seconds())
		return nil
	}
	var res *result
	var err error
	if cfg.trace {
		res, err = runTraced(cfg)
	} else {
		res, err = runMeasured(cfg)
	}
	if err != nil {
		return err
	}
	out, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	return nil
}

// checkPosture refuses to measure anything but the shipped posture.
func checkPosture() error {
	switch {
	case !plan.Enabled(), !deccache.Enabled(), !obs.Enabled(), !qstats.Enabled(), !prof.Enabled():
		return errors.New("posture: plan, deccache, obs, qstats and prof must all be on")
	case trace.Armed():
		return errors.New("posture: the flight recorder must be disarmed")
	}
	return nil
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// session is a set-up workload.
type session struct {
	env   *env
	setup time.Duration
}

// startSession sets the workload up: generate the inputs, build states
// and request bodies (and boot the server), self-check one op of every
// template, and run one whole warm-up pass. The measured passes repeat
// it, so every cache starts them in its steady state: a working set that
// fits is resident, and a cyclic one larger than its cache misses (and
// evicts) from the first measured op on.
func startSession(cfg config) (*session, error) {
	t0 := time.Now()
	w, err := generate(cfg.workload, cfg.seed)
	if err != nil {
		return nil, err
	}
	if w.procs > 0 {
		runtime.GOMAXPROCS(w.procs)
	}
	e, err := setUp(w)
	if err != nil {
		return nil, err
	}
	if err := e.selfCheck(); err != nil {
		e.close()
		return nil, err
	}
	failed := 0
	for _, o := range w.ops {
		if err := e.run(context.Background(), o); err != nil {
			if failed++; failed == 1 {
				fmt.Fprintln(os.Stderr, "finqbench: warm-up:", err)
			}
		}
	}
	if failed > 0 {
		e.close()
		return nil, fmt.Errorf("warm-up: %d of %d ops failed", failed, len(w.ops))
	}
	return &session{env: e, setup: time.Since(t0)}, nil
}

// selfCheckTimeout bounds each self-check op, so a template whose answer
// is not what the generator meant (an infinite one, say) fails fast
// instead of running to its budget.
const selfCheckTimeout = 20 * time.Second

// selfCheck runs the first op of every template once.
func (e *env) selfCheck() error {
	seen := map[string]bool{}
	for _, o := range e.w.ops {
		if seen[o.tmpl] {
			continue
		}
		seen[o.tmpl] = true
		ctx, cancel := context.WithTimeout(context.Background(), selfCheckTimeout)
		err := e.run(ctx, o)
		cancel()
		if err != nil {
			return fmt.Errorf("self-check: %w", err)
		}
	}
	return nil
}

// ---------------------------------------------------------------------
// The measured (untraced) run.

// counters are the program's obs counters reported per pass and per op.
var counterPrefixes = []string{"plan.cache.", "plan.compile.", "query.enumerate.", "deccache.hits", "deccache.misses", "deccache.evictions", "qe.presburger."}

func counterSnapshot() map[string]int64 {
	out := map[string]int64{}
	for name, v := range obs.Take().Counters {
		for _, p := range counterPrefixes {
			if strings.HasPrefix(name, p) {
				out[name] = v
			}
		}
	}
	return out
}

func deltas(a, b map[string]int64) map[string]int64 {
	out := map[string]int64{}
	for k, v := range b {
		out[k] = v - a[k]
	}
	return out
}

func ratio(num, den int64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

// hitRatios formats a pass's plan- and decision-cache hit ratios.
func hitRatios(d map[string]int64) string {
	return fmt.Sprintf("plan.hit_ratio %.4f deccache.hit_ratio %.4f",
		ratio(d["plan.cache.hits"], d["plan.cache.hits"]+d["plan.cache.misses"]),
		ratio(d["deccache.hits"], d["deccache.hits"]+d["deccache.misses"]))
}

// window is a measured stretch of whole passes.
type window struct {
	ops, failed int
	lat         []time.Duration
	class       []string
	segments    []segment
	wall, cpu   time.Duration // Σ over segments: op time, checks excluded
	allocBytes  uint64
	gcCPU       float64 // seconds
	gcCycles    uint64
	counts      map[string]int64
	passes      int
	firstPass   map[string]int64
	lastPass    map[string]int64
}

// segment is one run of ops of the pass's fixed class composition.
type segment struct {
	ops       int
	wall, cpu time.Duration
	p50       time.Duration
}

// minSamples is the fewest ops a measured run times: p99 then has at
// least ten samples beyond it.
const minSamples = 1000

// checkEvery is how many ops run between answer checks: few enough that
// holding their answers leaves the heap and peak RSS alone, enough that
// the readings around each stretch cost nothing measurable.
const checkEvery = 10

// measure runs whole passes over ops, cut into segLen-op segments, until
// at least d of op time has elapsed and minOps ops have run. Ops run in
// stretches of checkEvery between clock, CPU and runtime readings; call
// returns each op's answer check, and the checks run after the stretch's
// readings are taken, so their time and allocations stay out of every
// metric.
func measure(d time.Duration, minOps int, ops []*op, segLen int, call func(*op) func() error) *window {
	w := &window{}
	failures := 0
	checks := make([]func() error, checkEvery)
	lats := make([]time.Duration, segLen)
	c0 := counterSnapshot()
	prev := c0
	for w.wall < d || w.ops < minOps {
		for lo := 0; lo < len(ops); lo += segLen {
			seg := ops[lo : lo+segLen]
			sg := segment{ops: segLen}
			for c := 0; c < segLen; c += checkEvery {
				stretch := seg[c:min(c+checkEvery, segLen)]
				rt0, cpu0, t0 := readRuntime(), cpuTime(), time.Now()
				for i, o := range stretch {
					t := time.Now()
					checks[i] = call(o)
					lats[c+i] = time.Since(t)
				}
				sg.wall += time.Since(t0)
				sg.cpu += cpuTime() - cpu0
				rt1 := readRuntime()
				w.allocBytes += rt1.allocBytes - rt0.allocBytes
				w.gcCPU += rt1.gcCPU - rt0.gcCPU
				w.gcCycles += rt1.gcCycles - rt0.gcCycles

				for i, o := range stretch {
					err := checks[i]()
					checks[i] = nil
					w.ops++
					w.lat = append(w.lat, lats[c+i])
					w.class = append(w.class, o.class)
					if err != nil {
						w.failed++
						if failures++; failures <= 3 {
							fmt.Fprintln(os.Stderr, "finqbench: op failed:", err)
						}
					}
				}
			}
			sorted := append([]time.Duration(nil), lats...)
			sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
			sg.p50 = percentile(sorted, 0.5)
			w.wall += sg.wall
			w.cpu += sg.cpu
			w.segments = append(w.segments, sg)
		}
		w.passes++
		cur := counterSnapshot()
		if w.passes == 1 {
			w.firstPass = deltas(prev, cur)
		}
		w.lastPass = deltas(prev, cur)
		prev = cur
	}
	w.counts = deltas(c0, prev)
	return w
}

// segmentLen is the op count of one segment of the workload's pass.
func segmentLen(w *workload) int { return len(w.ops) / w.segments }

func runMeasured(cfg config) (*result, error) {
	var setups []float64
	for i := 0; i < setupRuns-1; i++ {
		s, err := childSetup(cfg)
		if err != nil {
			return nil, err
		}
		setups = append(setups, s)
	}
	s, err := startSession(cfg)
	if err != nil {
		return nil, err
	}
	defer s.env.close()
	setups = append(setups, s.setup.Seconds())

	w := s.env.w
	steal0, t0 := hostSteal(), time.Now()
	win := measure(seconds(cfg.seconds), minSamples, w.ops, segmentLen(w), func(o *op) func() error {
		return s.env.call(context.Background(), o)
	})
	steal, elapsed := hostSteal()-steal0, time.Since(t0)
	sorted := append([]time.Duration(nil), win.lat...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	n := float64(win.ops)
	var rates, p50s []float64
	for _, sg := range win.segments {
		rates = append(rates, float64(sg.ops)/sg.wall.Seconds())
		p50s = append(p50s, ms(sg.p50))
	}

	fmt.Printf("workload %s seed %d: %d ops in %d passes of %d (%d segments) over %.3fs of op time, %d failed\n",
		cfg.workload, cfg.seed, win.ops, win.passes, len(w.ops), len(win.segments), win.wall.Seconds(), win.failed)
	fmt.Printf("setup_s samples %.4f\n", setups)
	fmt.Printf("segment ops_per_s %.2f\n", rates)
	fmt.Printf("segment latency_p50_ms %.4f\n", p50s)
	fmt.Printf("host steal during the window: %.2f CPU-seconds (%.1f%% of %d CPUs)\n",
		steal.Seconds(), 100*steal.Seconds()/(elapsed.Seconds()*float64(runtime.NumCPU())), runtime.NumCPU())
	fmt.Printf("latency samples %d; %d beyond p99\n", win.ops, win.ops-rankOf(win.ops, 0.99)-1)
	fmt.Print(mixShape(win.lat, win.class, w.classes))
	fmt.Printf("first measured pass: %s\n", hitRatios(win.firstPass))
	fmt.Printf("last measured pass:  %s\n", hitRatios(win.lastPass))

	// Every metric covers the whole window. On a shared host the CPU's
	// speed switches between levels every few seconds (the segment series
	// above shows it); totals and all-sample percentiles average over those
	// levels, where a median over segments would jump between them.
	return &result{
		Correct:   win.failed == 0,
		Attempted: win.ops,
		Failed:    win.failed,
		Metrics: map[string]metric{
			"setup_s":            {median(setups), "s"},
			"ops_per_s":          {n / win.wall.Seconds(), "1/s"},
			"latency_p50_ms":     {ms(percentile(sorted, 0.5)), "ms"},
			"latency_p99_ms":     {ms(percentile(sorted, 0.99)), "ms"},
			"success_rate":       {float64(win.ops-win.failed) / n, "ratio"},
			"cpu_ms_per_op":      {ms(win.cpu) / n, "ms"},
			"alloc_bytes_per_op": {float64(win.allocBytes) / n, "B"},
			"peak_rss_mb":        {peakRSS(), "MB"},
		},
	}, nil
}

func seconds(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

// childSetup sets the workload up in a fresh process and returns its
// set-up time.
func childSetup(cfg config) (float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return 0, err
	}
	cmd := exec.Command(exe, "--workload", cfg.workload, "--seed", strconv.FormatInt(cfg.seed, 10), "--setup-only")
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return 0, fmt.Errorf("set-up child: %w", err)
	}
	var v float64
	if _, err := fmt.Sscanf(strings.TrimSpace(string(out)), "setup_s %g", &v); err != nil {
		return 0, fmt.Errorf("set-up child: output %q: %w", out, err)
	}
	return v, nil
}

// ---------------------------------------------------------------------
// Process measurements.

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

type runtimeSample struct {
	allocBytes uint64
	gcCPU      float64
	gcCycles   uint64
}

func readRuntime() runtimeSample {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/gc/cycles/total:gc-cycles"},
	}
	metrics.Read(s)
	return runtimeSample{allocBytes: s[0].Value.Uint64(), gcCPU: s[1].Value.Float64(), gcCycles: s[2].Value.Uint64()}
}

// hostSteal is the CPU time the hypervisor gave to others while this
// machine's CPUs wanted to run, summed over CPUs (/proc/stat, in USER_HZ
// ticks of 10ms); 0 where not reported. It explains slow runs on shared
// hosts; no metric is corrected by it.
func hostSteal() time.Duration {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	f := strings.Fields(strings.SplitN(string(data), "\n", 2)[0])
	if len(f) < 9 || f[0] != "cpu" {
		return 0
	}
	ticks, _ := strconv.ParseInt(f[8], 10, 64)
	return time.Duration(ticks) * 10 * time.Millisecond
}

// peakRSS is the process's VmHWM in MB.
func peakRSS() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, _ := strconv.ParseFloat(f[1], 64)
			return kb / 1024
		}
	}
	return 0
}
