// Command perfbench is the repository's end-to-end benchmark. It runs one
// workload per process, times it from outside around the program's public
// entry points, checks every output, and prints one JSON result line:
//
//	perfbench --workload table1-paper --seed 1 --seconds 15 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics (set-up time,
// throughput, median and tail latency, peak RSS). With --trace 1 the
// process measures half the operations untraced and the same operations
// again with span recording on, and reports the per-layer metrics plus the
// tracing overhead. README.md in this directory maps each per-layer metric
// to its module and to the end-to-end metric it should move.
//
// Each workload runs a fixed operation set derived from the seed and from
// --seconds (ops = seconds/rounds × the workload's calibrated rate on the
// 2-core reference box), not a deadline: parent and child commits then
// measure the same operations, and the retained state is fixed by the
// operation set rather than by throughput. An untraced run repeats the set
// `rounds` times and keeps each operation's fastest round.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"noisewave/internal/telemetry"
	"noisewave/internal/trace"
)

// processStart approximates process start: package initialization runs
// before main, after the runtime has started.
var processStart = time.Now()

// setupRuns is how many times each workload sets up per untraced run,
// setupRuns/rounds times before each round; setup_s is the median. Spread
// over the run, the set-ups are not all caught by one slow page-in, GC or
// stretch of host contention.
const setupRuns = 6

// defaultSeed is the seed whose outputs are pinned by the committed
// reference files under reference/.
const defaultSeed = 1

// rounds is how many times an untraced run repeats its operation set.
// Each operation's latency is its fastest round, and throughput is the
// fastest round's. Other tenants of a shared host slow it in stretches of
// seconds that only ever add time; a stretch then moves an operation's
// figure only when it covers all of the operation's rounds, which lie a
// third of the run apart.
const rounds = 3

// runStats is what one measured pass over the operation set produced.
type runStats struct {
	// latMs maps the index of every operation that completed its checks
	// to its latency.
	latMs     map[int]float64
	attempted int
	failed    int
	wall      time.Duration // timed wall time (generation and checks excluded)
	work      float64       // throughput units completed (ops, or gates for noisy-sta)
	failures  []string      // first few failure messages, for stderr
	// rssMB holds per-slice peak RSS for a workload that measures its
	// memory slice by slice; empty means the process peak is reported.
	rssMB []float64
}

func (s *runStats) fail(format string, args ...any) {
	s.failed++
	if len(s.failures) < 5 {
		s.failures = append(s.failures, fmt.Sprintf(format, args...))
	}
}

// done records operation op as completed, with its latency and the
// throughput units it did.
func (s *runStats) done(op int, lat time.Duration, work float64) {
	if s.latMs == nil {
		s.latMs = make(map[int]float64)
	}
	s.latMs[op] = ms(lat)
	s.work += work
}

// merge folds o's counts and failures into s; latencies stay with o.
func (s *runStats) merge(o runStats) {
	s.attempted += o.attempted
	s.failed += o.failed
	s.wall += o.wall
	s.work += o.work
	s.rssMB = append(s.rssMB, o.rssMB...)
	for _, f := range o.failures {
		if len(s.failures) < 5 {
			s.failures = append(s.failures, f)
		}
	}
}

// instance is one set-up workload, ready to run.
type instance interface {
	// run executes operations [0, n) of the workload's operation set. A
	// non-nil tracer records spans; a second call repeats the same
	// operations and checks that they give the same outputs.
	run(ctx context.Context, n int, tr *trace.Tracer) runStats
	// layers derives the per-layer metrics from the traced pass: its spans,
	// the registry counter deltas over it, and its stats.
	layers(spans []trace.SpanRecord, counters map[string]int64, st runStats) map[string]float64
	close()
}

// workload describes one benchmark workload.
type workload struct {
	name string
	// ops returns the operation count for a run of the given length.
	ops func(seconds float64) int
	// setup builds every input of an n-operation run and warms the program
	// up; the returned instance runs the timed operations.
	setup func(ctx context.Context, seed int64, n int, reg *telemetry.Registry) (instance, error)
}

var workloads = []workload{table1Workload, noisySTAWorkload, jobServiceWorkload}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// perLayer lists every per-layer metric with its unit. Each traced run
// reports all of them; a layer the workload does not run reports 0.
var perLayer = []struct{ name, unit string }{
	{"spice.newton_iterations_per_case", "count"},
	{"spice.steps_accepted_per_case", "count"},
	{"spice.steps_rejected_per_case", "count"},
	{"spice.lu_refactors_per_case", "count"},
	{"spice.lu_reuse_ratio", "ratio"},
	{"spice.recovery_rungs", "count"},
	{"xtalk.golden_ms", "ms"},
	{"core.replay_ms", "ms"},
	{"core.replays_per_case", "count"},
	{"core.compare_self_ms", "ms"},
	{"eqwave.fit_us.P1", "us"},
	{"eqwave.fit_us.P2", "us"},
	{"eqwave.fit_us.LSF3", "us"},
	{"eqwave.fit_us.E4", "us"},
	{"eqwave.fit_us.WLS5", "us"},
	{"eqwave.fit_us.SGDP", "us"},
	{"eqwave.fit_share", "ratio"},
	{"eqwave.sgdp_err_avg_ps", "ps"},
	{"sta.conversion_us", "us"},
	{"sta.noise_conversions", "count"},
	{"sta.run_ms", "ms"},
	{"sta.build_ms", "ms"},
	{"sta.propagate_ms", "ms"},
	{"sta.materialize_ms", "ms"},
	{"sta.run_self_ms", "ms"},
	{"sta.required_ms", "ms"},
	{"sta.levels", "count"},
	{"netgen.generate_ms", "ms"},
	{"http.submit_ms", "ms"},
	{"http.poll_ms", "ms"},
	{"http.polls_per_job", "count"},
	{"http.result_ms", "ms"},
	{"jobs.queue_ms", "ms"},
	{"jobs.run_ms_per_case", "ms"},
	{"jobs.cache_hit_ratio", "ratio"},
	{"jobs.latency_ms.table1", "ms"},
	{"jobs.latency_ms.pushout", "ms"},
	{"jobs.latency_ms.sta", "ms"},
	{"jobs.latency_ms.hit", "ms"},
	{"alloc_kb_per_op", "kB"},
	{"trace.overhead_ratio", "ratio"},
}

func main() {
	os.Exit(mainErr())
}

func mainErr() int {
	name := flag.String("workload", "", "workload: table1-paper | noisy-sta | job-service")
	seed := flag.Int64("seed", defaultSeed, "input seed")
	seconds := flag.Float64("seconds", 15, "run length on the reference box; fixes the operation count")
	traced := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	writeRef := flag.Bool("write-reference", false, "regenerate the default-seed reference file of the workload and exit")
	flag.Parse()

	var w *workload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *name)
		return 2
	}
	if *seconds <= 0 || (*traced != 0 && *traced != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		return 2
	}
	ctx := context.Background()
	if *writeRef {
		if err := writeReference(ctx, w.name); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
		return 0
	}

	printMeta(w.name, *seed, *seconds, *traced)
	var res result
	var err error
	if *traced == 1 {
		res, err = runTraced(ctx, w, *seed, *seconds)
	} else {
		res, err = runUntraced(ctx, w, *seed, *seconds)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(out))
	return 0
}

// printMeta records what a result depends on besides the code.
func printMeta(name string, seed int64, seconds float64, traced int) {
	meta := map[string]any{
		"workload":   name,
		"seed":       seed,
		"seconds":    seconds,
		"trace":      traced,
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
	}
	b, _ := json.Marshal(map[string]any{"meta": meta})
	fmt.Println(string(b))
}

// runUntraced measures the end-to-end metrics.
func runUntraced(ctx context.Context, w *workload, seed int64, seconds float64) (result, error) {
	reg := telemetry.New()
	n := w.ops(seconds / rounds)
	// The first instance runs every round, so later rounds repeat its
	// operations and check their outputs; later set-ups are only timed.
	var inst instance
	defer func() {
		if inst != nil {
			inst.close()
		}
	}()
	var setups []float64
	var st runStats
	fastest := make(map[int]float64, n)
	var tput float64
	for r := 0; r < rounds; r++ {
		for k := 0; k < setupRuns/rounds; k++ {
			t0 := time.Now()
			if len(setups) == 0 {
				t0 = processStart
			}
			next, err := w.setup(ctx, seed, n, reg)
			if err != nil {
				return result{}, fmt.Errorf("setup: %w", err)
			}
			setups = append(setups, time.Since(t0).Seconds())
			if inst == nil {
				inst = next
			} else {
				next.close()
			}
		}
		rs := inst.run(ctx, n, nil)
		for op, v := range rs.latMs {
			if f, seen := fastest[op]; !seen || v < f {
				fastest[op] = v
			}
		}
		if rs.wall > 0 {
			tput = max(tput, rs.work/rs.wall.Seconds())
		}
		st.merge(rs)
	}
	reportFailures(st)
	rss := maxRSSMB()
	if len(st.rssMB) > 0 {
		rss = median(st.rssMB)
	}
	lat := make([]float64, 0, len(fastest))
	for _, v := range fastest {
		lat = append(lat, v)
	}
	p50 := quantile(lat, 0.50)
	tailQ, tail, beyond := tailLatency(lat)
	summary := map[string]any{
		"rounds":                  rounds,
		"round_ops":               n,
		"latency_tail_percentile": fmt.Sprintf("p%g", tailQ*100),
		"latency_tail_samples":    len(lat),
		"latency_tail_beyond":     beyond,
		"failure_ratio":           float64(st.failed) / float64(max(st.attempted, 1)),
		"setup_runs_s":            setups,
		"slice_rss_mb":            st.rssMB,
	}
	b, _ := json.Marshal(map[string]any{"summary": summary})
	fmt.Println(string(b))

	return result{
		Correct:   st.failed == 0 && st.attempted > 0,
		Attempted: st.attempted,
		Failed:    st.failed,
		Metrics: map[string]metric{
			"setup_s":          {finite(median(setups)), "s"},
			"throughput_per_s": {finite(tput), "1/s"},
			"latency_p50_ms":   {finite(p50), "ms"},
			"latency_tail_ms":  {finite(tail), "ms"},
			"max_rss_mb":       {finite(rss), "MB"},
		},
	}, nil
}

// runTraced measures half the operations untraced, then the same
// operations with spans recorded, and derives the per-layer metrics from
// the traced pass.
func runTraced(ctx context.Context, w *workload, seed int64, seconds float64) (result, error) {
	reg := telemetry.New()
	n := w.ops(seconds / 2)
	inst, err := w.setup(ctx, seed, n, reg)
	if err != nil {
		return result{}, fmt.Errorf("setup: %w", err)
	}
	defer inst.close()

	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	plain := inst.run(ctx, n, nil)
	runtime.ReadMemStats(&m1)

	tr := trace.New()
	before := reg.Snapshot().Counters
	traced := inst.run(ctx, n, tr)
	after := reg.Snapshot().Counters
	delta := make(map[string]int64, len(after))
	for k, v := range after {
		delta[k] = v - before[k]
	}
	spans := tr.Spans()
	if err := writeSpans(w.name, seed, tr, spans); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: trace export:", err)
	}

	var st runStats
	st.merge(plain)
	st.merge(traced)
	reportFailures(st)

	vals := inst.layers(spans, delta, traced)
	vals["alloc_kb_per_op"] = float64(m1.TotalAlloc-m0.TotalAlloc) / 1024 / float64(max(plain.attempted, 1))
	vals["trace.overhead_ratio"] = traced.wall.Seconds() / plain.wall.Seconds()
	metrics := make(map[string]metric, len(perLayer))
	for _, m := range perLayer {
		metrics[m.name] = metric{finite(vals[m.name]), m.unit}
	}
	return result{
		Correct:   st.failed == 0 && st.attempted > 0,
		Attempted: st.attempted,
		Failed:    st.failed,
		Metrics:   metrics,
	}, nil
}

// writeSpans keeps the traced pass's spans as a Chrome trace under
// .bench_build/traces/, for reading alongside the per-layer numbers.
func writeSpans(name string, seed int64, tr *trace.Tracer, spans []trace.SpanRecord) error {
	dir := filepath.Join(".bench_build", "traces")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, fmt.Sprintf("%s-seed%d.json", name, seed)))
	if err != nil {
		return err
	}
	if err := trace.WriteChrome(f, tr.Epoch(), spans); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func reportFailures(st runStats) {
	for _, f := range st.failures {
		fmt.Fprintln(os.Stderr, "perfbench: check failed:", f)
	}
	if st.failed > len(st.failures) {
		fmt.Fprintf(os.Stderr, "perfbench: ... %d failures in total\n", st.failed)
	}
}

// tailLatency returns the highest of p90/p95/p99 that has at least ten
// samples beyond it, its value and that sample count.
func tailLatency(lat []float64) (q, v float64, beyond int) {
	q = 0.90
	for _, c := range []float64{0.99, 0.95} {
		if int(math.Floor(float64(len(lat))*(1-c))) >= 10 {
			q = c
			break
		}
	}
	return q, quantile(lat, q), int(math.Floor(float64(len(lat)) * (1 - q)))
}

// quantile is the linearly interpolated q-quantile (NaN for no samples).
func quantile(samples []float64, q float64) float64 {
	if len(samples) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

// finite maps a value no operation produced (NaN, ±Inf) to 0, so a run
// whose operations all failed still prints a result; correct is false then.
func finite(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	return v
}

func median(v []float64) float64 { return quantile(v, 0.5) }

func mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	var s float64
	for _, x := range v {
		s += x
	}
	return s / float64(len(v))
}

// maxRSSMB is the process's peak resident set (getrusage), in MB.
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// resetPeakRSS restarts the kernel's peak-RSS tracking at the current
// resident set, after returning freed heap to the OS.
func resetPeakRSS() error {
	debug.FreeOSMemory()
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMB reads the peak RSS since the last resetPeakRSS, in MB.
func peakRSSMB() (float64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			return kb / 1024, err
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}

// ms converts a duration to milliseconds.
func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// spanIndex answers parent/ancestor queries over one traced pass.
type spanIndex struct {
	byID map[uint64]*trace.SpanRecord
}

func newSpanIndex(spans []trace.SpanRecord) spanIndex {
	idx := spanIndex{byID: make(map[uint64]*trace.SpanRecord, len(spans))}
	for i := range spans {
		idx.byID[spans[i].ID] = &spans[i]
	}
	return idx
}

// under reports whether span s has an ancestor with the given name.
func (x spanIndex) under(s *trace.SpanRecord, name string) bool {
	for p := x.byID[s.Parent]; p != nil; p = x.byID[p.Parent] {
		if p.Name == name {
			return true
		}
	}
	return false
}

// attrInt returns an integer span attribute (0 when absent).
func attrInt(s *trace.SpanRecord, key string) float64 {
	for _, a := range s.Attrs {
		if a.Key == key {
			if v, ok := a.Value.(int64); ok {
				return float64(v)
			}
		}
	}
	return 0
}

// perOp divides a total by an operation count, 0 for no operations.
func perOp(total float64, n int) float64 {
	if n == 0 {
		return 0
	}
	return total / float64(n)
}

// readJSON decodes a committed reference file.
func readJSON(path string, v any) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	return json.Unmarshal(b, v)
}

// writeJSON writes a reference file.
func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// writeReference regenerates the default-seed reference of a workload.
func writeReference(ctx context.Context, name string) error {
	switch name {
	case table1Workload.name:
		return writeTable1Reference(ctx)
	case noisySTAWorkload.name:
		return writeNoisySTAReference(ctx)
	}
	return fmt.Errorf("workload %s has no reference file", name)
}

// refPath locates a reference file relative to the checkout root, where
// the benchmark runs.
func refPath(file string) string { return filepath.Join("perfbench", "reference", file) }
