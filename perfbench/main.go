// Command perfbench is the repository's end-to-end service benchmark: it
// drives parsl-cwl-serve over HTTP the way users do and reports runs/s,
// tasks/s and latency percentiles per workload, plus a per-layer ledger.
//
//	bash perfbench/run.sh --workload expr-scatter-shared --seed 1 --seconds 45 --trace 0
//
// run.sh builds parsl-cwl-serve, parsl-cwl-worker, imgtool and this command
// from the checkout, then runs it from the checkout root.
//
// Untraced (--trace 0): for the workload it starts fresh parsl-cwl-serve
// subprocesses, each with an fsync'd WAL (-data-dir), two API-key tenants
// weighted 2:1 with submissions alternating between them, and an HTEX over
// the process provider with the real worker; every other serve setting
// keeps its default except -workers and -queue. Set-up (exec → /healthz
// with a connected manager) is timed on several fresh servers and reported
// as the median. The measurement is shared between three of them in turn,
// each taking a third of every phase, so that each lives under the
// service's 30 s checkpoint period (see untraced.go). On each, a
// single-process load generator using at most nproc connections runs a
// closed-loop warm-up and then its third of two phases, cut into steps that
// interleave (four saturate steps, with up to two paced steps between
// them) so that both phases sample the whole run:
//
//   - saturate (0.4 of --seconds at the workload's nominal throughput): a
//     fixed number of runs submitted back to back from one sender per
//     connection; runs_per_s is the median over its steps of completed
//     runs ÷ (last finishedAt − first due time), and tasks_per_s the median
//     of the tool executions the workers answered in the step (a /metrics
//     delta) over the same span. Each step prints how many runs queued at
//     once, from the runs' createdAt and startedAt, to show that the server,
//     not the generator, is the bottleneck.
//   - paced (0.6 of --seconds): an open loop at the workload's fixed rate;
//     every latency is measured from when the request was due, each
//     percentile is the median of the steps' percentiles, and the
//     generator's own lateness (due time → its goroutine sends) is
//     reported; a run whose p99 lateness passes 50 ms is invalid. The wait
//     for a free connection (all nproc busy with earlier, unanswered
//     requests) is printed beside it: it is the server's doing and counts
//     in the latencies, which run from the due time.
//
// After each step every acknowledged run's terminal snapshot is fetched
// with GET /runs/{id}?wait=1 over all the connections, so no fetch competes
// with a measured request; a step is refused if it would outgrow the
// service's 4096-run retention before that.
//
// The latency tails are p90, not p99: on a 2-core VM the p99 of 500–2600
// paced samples varied by more than half between runs. p99 is printed but
// not reported as a metric. persist.compactions in the ledger shows a
// server that crossed the checkpoint period anyway.
//
// Dirty pages are flushed (sync) once the inputs are generated, so they are
// not written back during the measurement, and after removing a run's
// directories, so the next run does not pay for this one. Nothing is
// flushed between steps or servers: writing back the job directories the
// program creates is part of what it costs.
//
// Every succeeded run's outputs are checked against a reference computed
// here; refused, failed, wrong, and never-seen-terminal runs count as
// failed (failed_ratio is printed, and carried as the result's failed and
// attempted counts: it is 0 on a good run, and a metric must not be).
// /metrics is diffed around each phase into the counter ledger, and the
// client's refusals must reconcile with the server's shed and rejected
// counters.
//
// Traced (--trace 1): the same workload against in-process stacks, four in
// turn for the reason the untraced run uses three, built from the public
// constructors (parsl.Load, service.New) with the seams wrapped — the HTTP
// handler, the HTEX provider and its manager handles, and the DFK
// task-event hook — plus direct timings of the layers the workload
// exercises (document parse, expression evaluation, tool staging and exec,
// image kernels). It prints the per-layer metrics. The saturate
// phase runs in quarters, untraced, traced, traced, untraced, and the
// untraced-to-traced throughput ratio is obs.trace_overhead_ratio; each
// stack runs one quarter and a quarter of the paced phase.
//
// Workloads (BENCHMARK.json lists the last two; at 45 s a run, three
// workloads' runs would not fit the time the whole measurement is given):
//
//   - tool-unique: a one-step echo tool with a unique message per run.
//     Tool exec is about 1 ms, so per-run overhead dominates: auth, WAL,
//     fair-share queue, DFK, codec and wire, worker job-dir staging. The
//     document cache always hits; the result cache never does.
//   - image-pipeline: the paper's resize → sepia → blur Workflow over seeded
//     512-px PNGs resized to 256 px, as in examples/imagepipeline, each run
//     its own image. The three imgtool executions (PNG codec and kernels)
//     dominate; an overhead optimisation should predict little change here.
//   - expr-scatter-shared: the paper's Listing 5 capitalize_words
//     InlinePython tool scattered 8-wide. Documents come from a pool larger
//     than the document cache, so most submissions parse; every third
//     measured submission repeats a warm-up run of the other tenant, so the
//     shared result cache (serve's default size) answers it at admission.
//
// The last line of standard output is one JSON object: correct, attempted,
// failed and the metrics of the mode. The command exits non-zero when any
// output check fails or the run is invalid.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"syscall"
	"time"
)

// Run validity and shape.
const (
	// maxLagP99 bounds the generator's p99 lateness; a run past it measured
	// a starved generator, not the server, and is invalid.
	maxLagP99 = 50 * time.Millisecond
	// setups is how many fresh servers are started to time set-up, the
	// ones that take the load included. A set-up takes a few milliseconds,
	// and its median over 11 moved by a quarter between sets of runs.
	setups = 31
	// drainTimeout bounds the wait for acknowledged runs to finish.
	drainTimeout = 45 * time.Second
)

type options struct {
	workload *workload
	seed     int64
	seconds  int
	trace    bool
	binDir   string
	tmpRoot  string
}

func main() {
	code, err := run(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
	}
	os.Exit(code)
}

func run(args []string) (int, error) {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload: tool-unique, image-pipeline or expr-scatter-shared")
	seed := fs.Int64("seed", 1, "seed of every generated document, input and image")
	seconds := fs.Int("seconds", 45, "measured seconds (saturate + paced phases)")
	trace := fs.Int("trace", 0, "1 = in-process traced run printing per-layer metrics")
	binDir := fs.String("bin", filepath.Join(".bench_build", "bin"), "directory holding the built binaries")
	tmpRoot := fs.String("tmp", filepath.Join(".bench_build", "tmp"), "root for per-run temporary directories")
	if err := fs.Parse(args); err != nil {
		return 2, err
	}
	w, ok := workloads[*name]
	if !ok {
		return 2, fmt.Errorf("unknown workload %q", *name)
	}
	if *trace != 0 && *trace != 1 {
		return 2, errors.New("--trace must be 0 or 1")
	}
	if *seconds < 1 {
		return 2, errors.New("--seconds must be at least 1")
	}
	bin, err := filepath.Abs(*binDir)
	if err != nil {
		return 2, err
	}
	for _, b := range []string{"parsl-cwl-serve", "parsl-cwl-worker", "imgtool"} {
		if _, err := os.Stat(filepath.Join(bin, b)); err != nil {
			return 2, fmt.Errorf("missing binary (build with perfbench/run.sh): %w", err)
		}
	}
	if err := os.MkdirAll(*tmpRoot, 0o755); err != nil {
		return 2, err
	}
	root, err := os.MkdirTemp(*tmpRoot, fmt.Sprintf("%s-%d-", w.name, *seed))
	if err != nil {
		return 2, err
	}
	root, err = filepath.Abs(root)
	if err != nil {
		return 2, err
	}
	defer func() {
		if err := os.RemoveAll(root); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: removing the run's directories:", err)
		}
		// Flush the deletions now (the file system discards freed blocks at
		// journal commit) rather than during the next run's measurements.
		syscall.Sync()
	}()
	opts := options{workload: w, seed: *seed, seconds: *seconds, trace: *trace == 1, binDir: bin, tmpRoot: root}
	var res *result
	if opts.trace {
		res, err = runTraced(opts)
	} else {
		res, err = runUntraced(opts)
	}
	if err != nil {
		return 1, err
	}
	if res.invalid != "" {
		// Not a measurement: print no result.
		return 3, fmt.Errorf("invalid run: %s", res.invalid)
	}
	if err := res.emit(os.Stdout); err != nil {
		return 1, err
	}
	if !res.correct {
		return 1, errors.New("output or accounting checks failed")
	}
	return 0, nil
}

// phaseSizes returns the saturate run count and the paced request count:
// fixed functions of the workload and --seconds, so two commits measured
// with the same settings do the same work.
func phaseSizes(w *workload, seconds int) (nSat, nPaced int) {
	nSat = int(math.Round(w.satRate * satShare * float64(seconds)))
	nPaced = int(math.Round(w.pacedRate * pacedShare * float64(seconds)))
	return max(nSat, 1), max(nPaced, 1)
}

// conns is the generator's connection (and GOMAXPROCS) budget: nproc.
func conns() int { return runtime.NumCPU() }

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is what one run prints.
type result struct {
	correct   bool
	invalid   string
	attempted int
	failed    int
	metrics   map[string]metric
}

func newResult() *result { return &result{correct: true, metrics: map[string]metric{}} }

// set records a metric and prints it with its unit and basis.
func (r *result) set(name string, v float64, unit, basis string) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	r.metrics[name] = metric{Value: v, Unit: unit}
	fmt.Printf("  %-34s %14.4f %-8s %s\n", name, v, unit, basis)
}

func (r *result) fail(format string, a ...any) {
	r.correct = false
	fmt.Printf("CHECK FAILED: "+format+"\n", a...)
}

func (r *result) emit(f *os.File) error {
	out := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.correct, r.attempted, r.failed, r.metrics}
	data, err := json.Marshal(out)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(f, "%s\n", data)
	return err
}
