// Command bhbench is the repository's benchmark: it builds the cmd/
// binaries, generates seeded inputs, drives one workload against the
// real binaries over real sockets and files, checks every output
// against a reference, and prints every metric by name with its unit.
// The last line of standard output is one JSON object (see
// BENCHMARK.json at the repository root and bench/README.md).
//
//	bash bench/run.sh --workload query-shard --seed 42 --seconds 10 --trace 0
//
// With --trace 0 the end-to-end metrics are measured with nothing
// else running. With --trace 1 a shorter end-to-end phase is observed
// from outside (response sizes, /proc, /stats) and then the in-process
// probes time each layer's public functions from this package's own
// probe_*.go files; the spans are written to .bench_build/spans/.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

// env is what every workload and probe gets: where things are, the
// seed, how long to measure.
type env struct {
	root     string // the checkout
	buildDir string // root/.bench_build: binaries, build cache, run dirs, spans
	runDir   string // this run's scratch, removed on exit
	seed     int64  // drives everything the harness randomises: keys, mixes, windows, read order
	fixture  int64  // the world the fixtures and binaries are built from (-fixture-seed)
	seconds  float64
	trace    bool
	procs    *procSet
	spec     *benchSpec
	ref      *reference // the fixed work every timed slice is read against
}

// timed is the length of the timed phase.
func (e *env) timed() time.Duration { return time.Duration(e.seconds * float64(time.Second)) }

func (e *env) bin(name string) string { return filepath.Join(e.buildDir, "bin", name) }

// tempDir makes a fresh directory under the run directory.
func (e *env) tempDir(prefix string) (string, error) {
	return os.MkdirTemp(e.runDir, prefix+"-")
}

func (e *env) logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "bhbench: "+format+"\n", args...)
}

// row is one workload-specific figure printed by name: the names later
// issues quote (shard_rps, fleet_window_p50_ms, ...) and diagnostics
// that exist on one workload only.
type row struct {
	name  string
	value float64
	unit  string
}

// outcome is one workload run.
type outcome struct {
	attempted int
	failed    int
	problems  []string           // oracle violations: any one fails the run
	e2e       map[string]float64 // BENCHMARK.json end_to_end names
	layer     map[string]float64 // BENCHMARK.json per_layer names
	rows      []row
}

func newOutcome() *outcome {
	return &outcome{e2e: map[string]float64{}, layer: map[string]float64{}}
}

func (o *outcome) problemf(format string, args ...any) {
	o.problems = append(o.problems, fmt.Sprintf(format, args...))
}

// observed fills the e2e.* per-layer rows, the part of a run read from
// outside the system under test: op latencies (ms), mean output bytes
// per op, the children's CPU over a busy wall-clock span, and the
// count that must repeat exactly for a fixture.
func (o *outcome) observed(lats []float64, bytesPerOp float64, cpu, busy time.Duration, resultCount int) {
	o.layer["e2e.ops"] = float64(len(lats))
	o.layer["e2e.op_p90_ms"] = percentile(lats, 0.9)
	o.layer["e2e.op_max_ms"] = percentile(lats, 1)
	o.layer["e2e.output_bytes_per_op"] = bytesPerOp
	o.layer["e2e.child_cpu_s"] = cpu.Seconds()
	o.layer["e2e.cpu_utilisation"] = cpu.Seconds() / (busy.Seconds() * float64(runtime.NumCPU()))
	o.layer["e2e.result_count"] = float64(resultCount)
}

func (o *outcome) row(name string, value float64, unit string) {
	o.rows = append(o.rows, row{name, value, unit})
}

// workloadSpec is one workload: run does its set-up, timed phase and
// oracle. A workload that never has two things to run at once is
// confined, harness and children, to one CPU (see pin.go); spread says
// it is not: bhreport replays in parallel on every CPU, and live was
// designed around a generator, a server and an observer side by side.
type workloadSpec struct {
	run    func(ctx context.Context, e *env) (*outcome, error)
	spread bool
}

// live is not among BENCHMARK.json's workloads (bench/README.md says
// why); it runs when asked for by name.
var workloads = map[string]workloadSpec{
	"report":      {runReport, true},
	"detect":      {runDetect, false},
	"live":        {runLive, true},
	"query-shard": {runShard, false},
	"query-fleet": {runFleet, false},
}

// workloadGuard bounds one workload's wall clock: a hang fails the
// workload instead of the whole harness sitting until the driver's
// timeout.
const workloadGuard = 120 * time.Second

func main() {
	var (
		workload = flag.String("workload", "", "workload to run (default: all, one after the other)")
		seed     = flag.Int64("seed", 42, "seed for the generated traffic: request keys, op mixes, query windows, read order")
		fixture  = flag.Int64("fixture-seed", goldenSeed, "seed of the synthetic world behind every fixture; forwarded to every binary")
		seconds  = flag.Float64("seconds", 10, "length of the timed phase")
		trace    = flag.Int("trace", 0, "0: end-to-end metrics, nothing traced; 1: per-layer metrics (observed run + in-process probes)")
		root     = flag.String("root", "", "repository checkout (default: found upward from the working directory)")
		agree    = flag.Bool("agree", false, "run every workload twice and fail if two runs of the same build disagree beyond the bounds")
		golden   = flag.Bool("update-golden", false, "rewrite bench/golden/*.sha256 from this run's outputs (default fixture seed only)")
	)
	flag.Parse()
	code, err := run(*workload, *seed, *fixture, *seconds, *trace != 0, *root, *agree, *golden)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bhbench:", err)
		if code == 0 {
			code = 1
		}
	}
	os.Exit(code)
}

func run(workload string, seed, fixture int64, seconds float64, trace bool, root string, agree, golden bool) (int, error) {
	if seconds < 1 {
		return 2, errors.New("-seconds must be at least 1")
	}
	root, err := findRoot(root)
	if err != nil {
		return 2, err
	}
	spec, err := loadSpec(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return 2, err
	}
	names := spec.workloadNames()
	if workload != "" {
		if _, ok := workloads[workload]; !ok {
			return 2, fmt.Errorf("unknown workload %q (have %s)", workload, strings.Join(names, ", "))
		}
		names = []string{workload}
	}

	buildDir := filepath.Join(root, ".bench_build")
	if err := os.MkdirAll(buildDir, 0o755); err != nil {
		return 1, err
	}
	sweepStaleRuns(buildDir)
	runDir, err := os.MkdirTemp(buildDir, "run-")
	if err != nil {
		return 1, err
	}
	procs := &procSet{runDir: runDir}
	defer procs.cleanup()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		cancel()
		procs.cleanup()
		os.Exit(130)
	}()

	e := &env{root: root, buildDir: buildDir, runDir: runDir, seed: seed, fixture: fixture, seconds: seconds,
		trace: trace, procs: procs, spec: spec}
	built, err := buildBinaries(ctx, root, buildDir)
	if err != nil {
		return 1, err
	}
	e.logf("binaries ready in %.2fs (GOMAXPROCS=%d, %s)", built.Seconds(), runtime.GOMAXPROCS(0), runtime.Version())
	goldenUpdate = golden
	if e.ref, err = startReference(); err != nil {
		return 1, err
	}
	defer e.ref.close()

	if agree {
		return runAgree(ctx, e, names)
	}
	code := 0
	for _, name := range names {
		out, err := runOne(ctx, e, name)
		if err != nil {
			return 1, fmt.Errorf("workload %s: %w", name, err)
		}
		if !printOutcome(e, name, out) {
			code = 1
		}
	}
	return code, nil
}

// sweepStaleRuns removes run directories a killed harness left
// behind. No run lasts ten minutes, so anything older is nobody's.
func sweepStaleRuns(buildDir string) {
	dirs, _ := filepath.Glob(filepath.Join(buildDir, "run-*"))
	for _, d := range dirs {
		if info, err := os.Stat(d); err == nil && time.Since(info.ModTime()) > 10*time.Minute {
			_ = os.RemoveAll(d)
		}
	}
}

// runOne runs a workload under the wall-clock guard, on the CPUs it
// is meant for.
func runOne(ctx context.Context, e *env, name string) (*outcome, error) {
	ctx, cancel := context.WithTimeout(ctx, workloadGuard)
	defer cancel()
	if all, err := getAffinity(); err != nil {
		e.logf("not pinning: sched_getaffinity: %v", err)
	} else if !workloads[name].spread {
		one, cpu := all.lastCPU()
		if err := confine(&one); err != nil {
			e.logf("not pinning: %v", err)
		} else {
			// One CPU, one P: the client and the reference then hand
			// over between goroutines of one thread, not between threads
			// that queue behind whatever else is runnable on the CPU.
			procs := runtime.GOMAXPROCS(1)
			e.logf("workload %s confined to CPU %d", name, cpu)
			defer func() { // for the next workload of a full set
				runtime.GOMAXPROCS(procs)
				_ = confine(&all)
			}()
		}
	}
	type result struct {
		out *outcome
		err error
	}
	done := make(chan result, 1)
	go func() {
		var r result
		if e.trace {
			r.out, r.err = runTraced(ctx, e, name)
		} else {
			r.out, r.err = workloads[name].run(ctx, e)
		}
		done <- r
	}()
	select {
	case r := <-done:
		return r.out, r.err
	case <-ctx.Done():
		// Children are killed by the deferred cleanup; the workload
		// goroutine is abandoned with the process about to exit.
		return nil, fmt.Errorf("wall-clock guard (%v) expired", workloadGuard)
	}
}

// printOutcome prints every metric by name with its unit, then the
// result object as the last line. It reports whether the run counts
// as correct.
func printOutcome(e *env, name string, out *outcome) bool {
	fmt.Printf("# workload %s seed %d fixture-seed %d seconds %g trace %v\n", name, e.seed, e.fixture, e.seconds, e.trace)
	want, values := e.spec.EndToEnd, out.e2e
	if e.trace {
		want, values = e.spec.PerLayer, out.layer
	}
	metrics := map[string]metricValue{}
	correct := len(out.problems) == 0 && out.failed == 0
	for _, m := range want {
		v, ok := values[m.Name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			out.problemf("metric %s was not measured", m.Name)
			correct = false
			continue
		}
		metrics[m.Name] = metricValue{Value: v, Unit: m.Unit}
		fmt.Printf("%-44s %16.6g %s\n", m.Name, v, m.Unit)
	}
	for _, r := range out.rows {
		fmt.Printf("%-44s %16.6g %s\n", r.name, r.value, r.unit)
	}
	fmt.Printf("%-44s %16d\n%-44s %16d\n", "ops_attempted", out.attempted, "ops_failed", out.failed)
	for _, p := range out.problems {
		fmt.Printf("PROBLEM %s\n", p)
	}
	attempted := out.attempted
	if attempted < 1 {
		attempted = 1
	}
	line, _ := json.Marshal(struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{correct, attempted, out.failed, metrics})
	fmt.Println(string(line))
	return correct
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// benchSpec is BENCHMARK.json: the harness prints exactly the metrics
// it lists, with its units, and -agree applies its bounds.
type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func loadSpec(path string) (*benchSpec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

func (s *benchSpec) workloadNames() []string {
	var names []string
	for _, w := range s.Workloads {
		names = append(names, w.Name)
	}
	return names
}

// findRoot locates the checkout: the directory holding BENCHMARK.json
// and the root module.
func findRoot(flagRoot string) (string, error) {
	if flagRoot != "" {
		return filepath.Abs(flagRoot)
	}
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "BENCHMARK.json")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("no BENCHMARK.json above the working directory; pass -root")
		}
		dir = parent
	}
}

// runAgree is the self-check: two sets of runs of the same build must
// agree within each end-to-end metric's own bound.
func runAgree(ctx context.Context, e *env, names []string) (int, error) {
	e.trace = false
	code := 0
	fmt.Printf("%-12s %-20s %14s %14s %9s %7s\n", "workload", "metric", "first", "second", "diff", "bound")
	for _, name := range names {
		var runs [2]*outcome
		for i := range runs {
			out, err := runOne(ctx, e, name)
			if err != nil {
				return 1, fmt.Errorf("workload %s: %w", name, err)
			}
			if len(out.problems) > 0 || out.failed > 0 {
				return 1, fmt.Errorf("workload %s: %d failed ops, problems: %v", name, out.failed, out.problems)
			}
			runs[i] = out
		}
		for _, m := range e.spec.EndToEnd {
			a, b := runs[0].e2e[m.Name], runs[1].e2e[m.Name]
			diff := math.Abs(a-b) / math.Min(math.Abs(a), math.Abs(b))
			verdict := ""
			if diff > m.Bound {
				verdict = "  DISAGREE"
				code = 1
			}
			fmt.Printf("%-12s %-20s %14.6g %14.6g %8.1f%% %6.0f%%%s\n", name, m.Name, a, b, 100*diff, 100*m.Bound, verdict)
		}
		// Counts the program makes must repeat exactly for a seed.
		keys := make([]string, 0, len(runs[0].layer))
		for k := range runs[0].layer {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			if !strings.HasSuffix(k, "_count") {
				continue
			}
			a, b := runs[0].layer[k], runs[1].layer[k]
			verdict := ""
			if a != b {
				verdict = "  DISAGREE"
				code = 1
			}
			fmt.Printf("%-12s %-20s %14.0f %14.0f %9s %7s%s\n", name, k, a, b, "exact", "", verdict)
		}
	}
	return code, nil
}
