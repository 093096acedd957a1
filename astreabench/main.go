// Command astreabench is the repository's benchmark. One invocation runs one
// named workload in a fresh process and prints, as the last line of standard
// output, one JSON object with the operations attempted and failed, whether
// every output passed its correctness check, and the metrics: the end-to-end
// set with -trace 0, the per-layer set with -trace 1.
//
//	bash astreabench/run.sh --workload mwpm-d9 --seed 1 --seconds 15 --trace 0
//
// Every run has the same shape: timed set-up calls into the program, untimed
// preparation (input sampling from -seed and reference answers), an untimed
// warm-up, then a timed phase of whole passes over the prepared inputs. The
// process exits 1 when any output fails its check, and 2 on a usage or
// set-up error.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"
)

// workload is one benchmark scenario. It performs its own set-up (recording
// setup spans on rc.tr) and timed phase, and returns the tallies and metrics.
type workload func(rc runConfig) (*result, error)

var workloads = map[string]workload{
	"mwpm-d9":   runMWPM,
	"serve-d7":  runServe,
	"stream-d5": runStream,
}

// runConfig is what every workload receives.
type runConfig struct {
	seed    uint64
	seconds float64
	// tr is nil on untraced runs.
	tr *tracer
}

// result is a workload's outcome. attempted counts operations (decodes,
// requests or streams); failed counts those whose output failed a check or
// that the program refused, errored or never answered.
type result struct {
	attempted int64
	failed    int64
	// failures keeps the first few failure reasons for standard error.
	failures []string
	metrics  map[string]float64
}

func newResult() *result { return &result{metrics: map[string]float64{}} }

// fail records one failed operation.
func (r *result) fail(reason string) {
	r.failed++
	if len(r.failures) < 10 {
		r.failures = append(r.failures, reason)
	}
}

// check counts one attempted operation, named by op and id, and records a
// failure when err is non-nil. The name is formatted only on failure, so
// the check allocates nothing beside the timed calls.
func (r *result) check(op string, id int64, err error) {
	r.attempted++
	if err != nil {
		r.fail(op + " " + strconv.FormatInt(id, 10) + ": " + err.Error())
	}
}

// merge adds another result's tallies to r.
func (r *result) merge(o *result) {
	r.attempted += o.attempted
	r.failed += o.failed
	for _, f := range o.failures {
		if len(r.failures) < 10 {
			r.failures = append(r.failures, f)
		}
	}
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	start := time.Now()
	fs := flag.NewFlagSet("astreabench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: mwpm-d9, serve-d7 or stream-d5")
	seed := fs.Uint64("seed", 1, "input seed; the same seed gives the same inputs")
	seconds := fs.Float64("seconds", 15, "length of the timed phase in seconds")
	trace := fs.Int("trace", 0, "1 runs the traced run and reports the per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "astreabench: need --workload (one of %v), --seconds > 0 and --trace 0|1\n", workloadNames())
		return 2
	}
	rc := runConfig{seed: *seed, seconds: *seconds}
	if *trace == 1 {
		rc.tr = newTracer(start)
	}
	res, err := w(rc)
	if err != nil {
		fmt.Fprintf(stderr, "astreabench: %s: %v\n", *name, err)
		return 2
	}
	res.metrics["peak_rss_mb"] = peakRSSMB()
	for _, f := range res.failures {
		fmt.Fprintf(stderr, "astreabench: FAILED %s\n", f)
	}

	names := endToEnd
	if rc.tr != nil {
		names = perLayer
		path := filepath.Join(".bench_out", *name+".spans.jsonl")
		if err := rc.tr.writeFile(path); err != nil {
			fmt.Fprintf(stderr, "astreabench: writing spans: %v\n", err)
			return 2
		}
		fmt.Fprintf(stdout, "spans: %d written to %s\n", len(rc.tr.spans), path)
	}
	out := report{Correct: res.failed == 0, Attempted: res.attempted, Failed: res.failed, Metrics: map[string]metric{}}
	for _, m := range names {
		v, ok := res.metrics[m.name]
		if !ok {
			// A layer this workload never calls did no work.
			v = 0
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			fmt.Fprintf(stderr, "astreabench: metric %s is %v\n", m.name, v)
			return 2
		}
		out.Metrics[m.name] = metric{Value: v, Unit: m.unit}
		fmt.Fprintf(stdout, "%-34s %14.4f %s\n", m.name, v, m.unit)
	}
	b, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintf(stderr, "astreabench: %v\n", err)
		return 2
	}
	fmt.Fprintf(stdout, "%s\n", b)
	if !out.Correct {
		return 1
	}
	return 0
}

type report struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metricDef struct{ name, unit string }

// endToEnd lists the metrics of an untraced run, in BENCHMARK.json order.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"throughput_per_s", "1/s"},
	{"p50_us", "us"},
	{"peak_rss_mb", "MB"},
}

// perLayer lists the metrics of a traced run, in BENCHMARK.json order.
var perLayer = []metricDef{
	{"p99_us", "us"},
	{"setup.dem_s", "s"},
	{"setup.graph_s", "s"},
	{"setup.gwt_s", "s"},
	{"setup.artifact_load_s", "s"},
	{"setup.server_start_s", "s"},
	{"setup.window_envs_s", "s"},
	{"setup.window_envs", "count"},
	{"decode.calls.hw0-2", "count"},
	{"decode.calls.hw3-6", "count"},
	{"decode.calls.hw7-10", "count"},
	{"decode.calls.hw11-14", "count"},
	{"decode.calls.hw15up", "count"},
	{"decode.p50_us.hw0-2", "us"},
	{"decode.p50_us.hw3-6", "us"},
	{"decode.p50_us.hw7-10", "us"},
	{"decode.p50_us.hw11-14", "us"},
	{"decode.p50_us.hw15up", "us"},
	{"decode.busy_s", "s"},
	{"decode.allocs_per_call", "count"},
	{"client.send_us.p50", "us"},
	{"server.wire_us.p50", "us"},
	{"server.sojourn_us.p50", "us"},
	{"server.sojourn_us.p99", "us"},
	{"server.decode_us.p50", "us"},
	{"client.payload_bytes", "bytes"},
	{"server.mean_batch", "count"},
	{"server.rejected", "count"},
	{"server.skipped", "count"},
	{"serve.gen_late_us.p99", "us"},
	{"stream.commit_sojourn_us.p50", "us"},
	{"stream.commit_sojourn_us.p99", "us"},
	{"stream.windows_per_stream", "count"},
	{"stream.open_us.p50", "us"},
	{"stream.close_us.p50", "us"},
	{"stream.push_block_us.p99", "us"},
	{"stream.fallbacks", "count"},
	{"stream.forced_cuts", "count"},
	{"trace.overhead_pct", "%"},
	{"trace.spans", "count"},
}

// logf reports a run's input make-up and progress on standard error.
func logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "astreabench: "+format+"\n", args...)
}

// sortedHist renders a histogram as "key:count" pairs in key order.
func sortedHist(h map[int]int) string {
	keys := make([]int, 0, len(h))
	for k := range h {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	var b strings.Builder
	for i, k := range keys {
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%d:%d", k, h[k])
	}
	return b.String()
}

func workloadNames() []string {
	var out []string
	for n := range workloads {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}
