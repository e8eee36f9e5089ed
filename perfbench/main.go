// Command perfbench is the repository's end-to-end benchmark: it
// drives a real efdd child process over loopback through efd/client,
// then runs the offline Figure 2 reproduction in-process, checks every
// output, and prints each metric by name with its unit.
//
//	bash perfbench/run.sh --workload ingest-binary-durable --seed 1 --seconds 10 --trace 0
//
// run.sh builds efdd and this program into .bench_build/ and passes
// -efdd, -work and -root. The last line of standard output is one
// JSON object {correct, attempted, failed, metrics}: with --trace 0
// the metrics are the end-to-end set (endToEnd), with --trace 1 the
// per-layer set (perLayer). BENCHMARK.json at the repository root and
// layers.json next to this file record the same names, why each
// workload exists and which end-to-end metric each layer metric is
// expected to move.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/signal"
	"sort"
	"strings"
	"syscall"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// metricDef is one reported metric: its name, unit and direction.
type metricDef struct {
	name, unit, better string
}

// endToEnd are the metrics a user of the system sees, reported by
// every untraced run of every workload.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"cpu_us_per_sample", "us", "lower"},
	{"result_p50_ms", "ms", "lower"},
	{"online_accuracy", "share", "higher"},
	{"figure2_cpu_s", "s", "lower"},
	{"figure2_macro_f1", "F", "higher"},
}

// perLayer are the metrics of single layers, reported by traced runs.
// A layer a workload does not run reports 0.
var perLayer = []metricDef{
	{"client.ingest_calls", "count", "higher"},
	{"client.retries", "count", "lower"},
	{"client.shed", "count", "lower"},
	{"client.op_error_rate", "share", "lower"},
	{"client.wall_samples_per_s", "samples/s", "higher"},
	{"client.ingest_p50_ms", "ms", "lower"},
	{"client.ingest_p99_ms", "ms", "lower"},
	{"client.result_p50_ms", "ms", "lower"},
	{"client.result_p99_ms", "ms", "lower"},
	{"client.label_p50_ms", "ms", "lower"},
	{"client.label_p99_ms", "ms", "lower"},
	{"client.ingest_residual_us", "us", "lower"},
	{"client.result_residual_us", "us", "lower"},
	{"client.stored_result_p50_ms", "ms", "lower"},
	{"client.stored_result_p99_ms", "ms", "lower"},
	{"codec.encode_ns_per_sample", "ns", "lower"},
	{"codec.decode_ns_per_sample", "ns", "lower"},
	{"codec.bytes_per_sample", "B", "lower"},
	{"server.ingest_mean_us", "us", "lower"},
	{"server.result_mean_us", "us", "lower"},
	{"server.label_mean_us", "us", "lower"},
	{"server.stored_result_mean_us", "us", "lower"},
	{"server.ingest_self_us", "us", "lower"},
	{"server.result_self_us", "us", "lower"},
	{"engine.ingest_mean_us", "us", "lower"},
	{"engine.batch_samples_mean", "samples", "higher"},
	{"engine.shed_total", "count", "lower"},
	{"engine.rejected_total", "count", "lower"},
	{"engine.ingest_self_us", "us", "lower"},
	{"engine.result_us", "us", "lower"},
	{"engine.label_us", "us", "lower"},
	{"engine.stored_result_us", "us", "lower"},
	{"tsdb.appends", "count", "higher"},
	{"tsdb.append_seconds_sum", "s", "lower"},
	{"tsdb.commits", "count", "lower"},
	{"tsdb.commit_seconds_sum", "s", "lower"},
	{"tsdb.records_per_commit", "records", "higher"},
	{"tsdb.flushes", "count", "lower"},
	{"tsdb.flush_seconds_sum", "s", "lower"},
	{"tsdb.flush_bytes", "B", "lower"},
	{"tsdb.mmap_reads", "count", "higher"},
	{"tsdb.bytes_per_sample", "B", "lower"},
	{"core.useful_sample_share", "share", "higher"},
	{"core.feed_ns_per_sample", "ns", "lower"},
	{"core.recognize_ns", "ns", "lower"},
	{"core.learn_us", "us", "lower"},
	{"core.dict_keys", "count", "lower"},
	{"core.fit_s", "s", "lower"},
	{"dataset.generate_s", "s", "lower"},
	{"dataset.executions", "count", "higher"},
	{"experiments.normal_fold_s", "s", "lower"},
	{"experiments.soft_input_s", "s", "lower"},
	{"experiments.soft_unknown_s", "s", "lower"},
	{"experiments.hard_input_s", "s", "lower"},
	{"experiments.hard_unknown_s", "s", "lower"},
	{"experiments.figure2_wall_s", "s", "lower"},
	{"efdd.cpu_s", "s", "lower"},
	{"efdd.peak_rss_mb", "MiB", "lower"},
	{"bench.cpu_s", "s", "lower"},
	{"bench.gc_pause_ms", "ms", "lower"},
	{"bench.peak_rss_mb", "MiB", "lower"},
	{"bench.calibration_s", "s", "lower"},
	{"budget.ingest_residual_share", "share", "lower"},
	{"budget.result_residual_share", "share", "lower"},
	{"budget.label_residual_share", "share", "lower"},
	{"budget.stored_result_residual_share", "share", "lower"},
	{"trace.overhead_share", "share", "lower"},
}

// options are the command-line settings of one invocation.
type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	efdd     string // efdd binary
	work     string // scratch root inside the checkout
	root     string // repository root, for provenance
	tiny     bool   // smoke-test size: small grids, short phases
	fault    string // deliberate defect a smoke test expects a check to catch
}

// errCheck marks a failed correctness check: the run is wrong, not
// merely unable to run.
var errCheck = errors.New("correctness check failed")

func checkf(format string, args ...any) error {
	return fmt.Errorf("%w: %s", errCheck, fmt.Sprintf(format, args...))
}

// result is the final JSON line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report collects one run's numbers. Values are keyed by metric name;
// notes are human-readable lines (sample counts, check outcomes)
// printed before the result.
type report struct {
	values      map[string]float64
	notes       []string
	attempted   int64
	failed      int64
	calibration []float64 // CPU seconds of each calibration kernel run
}

func newReport() *report { return &report{values: make(map[string]float64)} }

func (r *report) set(name string, v float64) { r.values[name] = v }

func (r *report) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	var traceFlag int
	fs.StringVar(&o.workload, "workload", "", "workload: "+strings.Join(workloadNames(), ", "))
	fs.Int64Var(&o.seed, "seed", 1, "input seed; the same seed gives the same inputs")
	fs.IntVar(&o.seconds, "seconds", 10, "length of the measured online phase")
	fs.IntVar(&traceFlag, "trace", 0, "0: end-to-end metrics; 1: traced run with per-layer metrics")
	fs.StringVar(&o.efdd, "efdd", "", "path to the efdd binary")
	fs.StringVar(&o.work, "work", "", "directory for temporary files (data directories, traces)")
	fs.StringVar(&o.root, "root", ".", "repository root (provenance)")
	fs.BoolVar(&o.tiny, "tiny", false, "smoke-test size")
	fs.StringVar(&o.fault, "fault", "", "inject a defect: drop-batch or wrong-label (smoke tests)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	o.trace = traceFlag == 1
	w, ok := workloads[o.workload]
	switch {
	case !ok:
		fmt.Fprintf(stderr, "perfbench: unknown workload %q (want one of %s)\n", o.workload, strings.Join(workloadNames(), ", "))
		return 2
	case traceFlag != 0 && traceFlag != 1:
		fmt.Fprintln(stderr, "perfbench: --trace must be 0 or 1")
		return 2
	case o.seconds < 1:
		fmt.Fprintln(stderr, "perfbench: --seconds must be at least 1")
		return 2
	case o.efdd == "" || o.work == "":
		fmt.Fprintln(stderr, "perfbench: -efdd and -work are required (use perfbench/run.sh)")
		return 2
	case o.fault != "" && o.fault != faultDropBatch && o.fault != faultWrongLabel:
		fmt.Fprintf(stderr, "perfbench: unknown fault %q\n", o.fault)
		return 2
	}
	if _, err := os.Stat(o.efdd); err != nil {
		fmt.Fprintf(stderr, "perfbench: efdd binary: %v\n", err)
		return 2
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	dir, err := os.MkdirTemp(o.work, "run-")
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	defer os.RemoveAll(dir)

	rep := newReport()
	err = runWorkload(ctx, w, o, dir, rep)
	prov := provenance(o, dir)
	for _, n := range rep.notes {
		fmt.Fprintln(stdout, "# "+n)
	}
	pj, _ := json.Marshal(prov)
	fmt.Fprintf(stdout, "# provenance %s\n", pj)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", o.workload, err)
		return 1
	}

	defs := endToEnd
	if o.trace {
		defs = perLayer
	}
	res := result{Correct: true, Attempted: rep.attempted, Failed: rep.failed, Metrics: make(map[string]metric, len(defs))}
	for _, d := range defs {
		v, ok := rep.values[d.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			fmt.Fprintf(stderr, "perfbench: %s: metric %s was not measured\n", o.workload, d.name)
			return 1
		}
		res.Metrics[d.name] = metric{Value: v, Unit: d.unit}
		fmt.Fprintf(stdout, "%-38s %16.6g %s\n", d.name, v, d.unit)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// runWorkload is one invocation: set-up, the online phase (twice in a
// traced run: untraced, then traced), the checks, then the offline
// Figure 2 phase.
func runWorkload(ctx context.Context, w workload, o options, dir string, rep *report) error {
	sz := fullSize
	if o.tiny {
		sz = tinySize
	}
	calibrateInto(rep)
	env, err := setupOnline(ctx, w, o, sz, dir, rep)
	if err != nil {
		return err
	}
	if o.trace {
		if err := tracedOnline(ctx, env, rep); err != nil {
			return err
		}
	} else if err := measuredOnline(ctx, env, rep); err != nil {
		return err
	}
	calibrateInto(rep)
	if err := figure2Phase(o, sz, dir, rep); err != nil {
		return err
	}
	calibrateInto(rep)
	// The end-to-end timings, as they would read on the reference
	// machine (see calibrate.go).
	for _, name := range []string{"setup_s", "cpu_us_per_sample", "result_p50_ms", "figure2_cpu_s"} {
		if v, ok := rep.values[name]; ok {
			rep.set(name, rep.calibrated(v))
		}
	}
	rep.set("bench.calibration_s", median(rep.calibration))
	rep.note("calibration kernel CPU s %v: timings scaled by %.4f", roundAll(rep.calibration, 4), calibrationRef/median(rep.calibration))
	return nil
}

// calibrateInto times the calibration kernel calibrationRounds times.
func calibrateInto(rep *report) {
	for i := 0; i < calibrationRounds; i++ {
		rep.calibration = append(rep.calibration, calibrate())
	}
}
