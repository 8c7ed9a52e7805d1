// Command perfbench is the repository's end-to-end benchmark. It drives the
// simulator and the durable live peer from outside, through exported
// functions only, on seeded workloads; it checks every run's output and
// prints one JSON result line. Build and run it from the repository root:
//
//	bash perfbench/run.sh --workload sim-mit --seed 1 --seconds 20 --trace 0
//
// With --trace 0 it prints the end-to-end metrics; with --trace 1 it runs
// the workload traced and untraced, and prints the per-layer metrics.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"syscall"

	"photodtn/internal/experiments"
)

// workload is one named input family of the benchmark.
type workload struct {
	name string
	// why records the one-sentence reason the workload exists.
	why  string
	kind experiments.TraceKind
	run  func(o options, in *inputs, ch *checks) (report, error)
}

var workloads = []workload{
	{
		name: "sim-mit",
		why:  "contact-heavy: Table I run on the 97-node MIT-like trace, where metadata merges and reallocation dominate; shows selection, coverage and metadata",
		kind: experiments.MIT,
		run:  runSim,
	},
	{
		name: "sim-cambridge",
		why:  "capture-heavy: Table I run on the 54-node Cambridge-like trace, 49k captures to 245 contacts, so OnPhoto eviction dominates",
		kind: experiments.Cambridge,
		run:  runSim,
	},
	{
		name: "live-mit",
		why:  "MIT-like trace replayed through 98 durable peers on loopback TCP with real fsync; exercises peer, wire, journal and transfer, bypasses sim and core",
		kind: experiments.MIT,
		run:  runLive,
	},
}

// Metric units, shared by the end-to-end and per-layer tables.
const (
	unitS     = "s"
	unitMS    = "ms"
	unitUS    = "us"
	unitMB    = "MB"
	unitKiB   = "KiB"
	unitB     = "B"
	unitCount = "count"
	unitRatio = "ratio"
	unitFrac  = "fraction"
	unitDeg   = "deg"
	unitPct   = "%"
)

// endToEnd lists the metrics --trace 0 prints, with their units.
var endToEnd = []struct{ name, unit string }{
	{"setup_s", unitS},
	{"run_s", unitS},
	{"contact_p50_ms", unitMS},
	{"contact_p95_ms", unitMS},
	{"capture_p50_us", unitUS},
	{"alloc_mb", unitMB},
	{"wire_kb_per_contact", unitKiB},
	{"delivered_photos", unitCount},
	{"coverage_point", unitFrac},
	{"coverage_aspect_deg", unitDeg},
}

// perLayer lists the metrics --trace 1 prints. A workload that never
// reaches a layer reports its metrics as 0.
var perLayer = []struct{ name, unit string }{
	{"core.on_photo.calls", unitCount},
	{"core.on_photo.busy_s", unitS},
	{"core.peer_contact.calls", unitCount},
	{"core.peer_contact.busy_s", unitS},
	{"core.cc_contact.busy_s", unitS},
	{"core.self_s", unitS},
	{"sim.engine_self_s", unitS},
	{"sim.transfers", unitCount},
	{"selection.evaluators", unitCount},
	{"selection.rounds", unitCount},
	{"selection.gain_evals", unitCount},
	{"selection.gain_evals_per_round", unitRatio},
	{"selection.scenarios_mean", unitCount},
	{"coverage.fp_cache_hit_ratio", unitRatio},
	{"coverage.fp_cache_misses", unitCount},
	{"metadata.invalidations", unitCount},
	{"peer.add_photo.calls", unitCount},
	{"peer.add_photo.rejected", unitCount},
	{"peer.add_photo.busy_s", unitS},
	{"peer.contact.busy_s", unitS},
	{"peer.contact_aborts", unitCount},
	{"peer.contact_retries", unitCount},
	{"peer.commit_conflicts", unitCount},
	{"peer.self_s", unitS},
	{"wire.bytes_per_contact", unitB},
	{"wire.writes_per_contact", unitCount},
	{"wire.read_wait_s", unitS},
	{"wire.write_s", unitS},
	{"wire.self_s", unitS},
	{"journal.syncs", unitCount},
	{"journal.sync_s", unitS},
	{"journal.write_s", unitS},
	{"journal.bytes_per_commit", unitB},
	{"journal.checkpoints", unitCount},
	{"journal.self_s", unitS},
	{"transfer.chunks_sent", unitCount},
	{"transfer.chunks_received", unitCount},
	{"transfer.wasted_bytes", unitB},
	{"runtime.gc_cycles", unitCount},
	{"runtime.gc_pause_s", unitS},
	{"trace.run_s", unitS},
	{"trace.unattributed_s", unitS},
	{"trace.overhead_pct", unitPct},
}

// options are the command-line settings of one run.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	// spanHours > 0 replays only that many simulated hours; only the smoke
	// test sets it.
	spanHours float64
	work      string
}

// report is what a workload measured: values by metric name, plus notes
// for the information line.
type report struct {
	values map[string]float64
	info   map[string]any
}

// metric is one printed value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line the benchmark prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// checks tallies operations and correctness checks. Every failed check
// counts as a failed operation and is described on standard error.
type checks struct {
	attempted, failed int64
}

// ops records n operations, failed of which failed.
func (c *checks) ops(n, failed int) {
	c.attempted += int64(n)
	c.failed += int64(failed)
}

// check records one correctness check.
func (c *checks) check(ok bool, format string, args ...any) {
	c.attempted++
	if !ok {
		c.failed++
		fmt.Fprintf(os.Stderr, "perfbench: check failed: "+format+"\n", args...)
	}
}

// setupRepeats is how many times a run builds its inputs before the timed
// part, and again after it. Every repetition builds them once more, so the
// setup samples span the run; setup_s is their median.
const setupRepeats = 3

func main() {
	var o options
	var traceFlag int
	flag.StringVar(&o.workload, "workload", "sim-mit", "workload name: "+workloadNames())
	flag.Int64Var(&o.seed, "seed", 1, "seed for the PoIs and photos")
	flag.Float64Var(&o.seconds, "seconds", 20, "how long to measure, in seconds")
	flag.IntVar(&traceFlag, "trace", 0, "1 prints the per-layer metrics of a traced run")
	flag.StringVar(&o.work, "work", ".bench_build", "directory for state dirs and span files")
	flag.Parse()
	o.trace = traceFlag == 1
	res, info, err := run(o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	enc := json.NewEncoder(os.Stdout)
	if err := enc.Encode(info); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if err := enc.Encode(res); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return strings.Join(names, ", ")
}

// run sets up and measures one workload and returns the result line and
// the information line printed before it.
func run(o options) (*result, map[string]any, error) {
	var w *workload
	for i := range workloads {
		if workloads[i].name == o.workload {
			w = &workloads[i]
		}
	}
	if w == nil {
		return nil, nil, fmt.Errorf("unknown workload %q (want one of %s)", o.workload, workloadNames())
	}
	if o.seconds <= 0 {
		return nil, nil, errors.New("--seconds must be positive")
	}
	in, err := newInputs(w.kind, o.seed, o.spanHours)
	if err != nil {
		return nil, nil, err
	}
	if err := in.repeat(setupRepeats); err != nil {
		return nil, nil, err
	}
	ch := &checks{}
	rep, err := w.run(o, in, ch)
	if err != nil {
		return nil, nil, err
	}
	if err := in.repeat(setupRepeats); err != nil {
		return nil, nil, err
	}
	rep.values["setup_s"] += median(in.times)

	table := endToEnd
	if o.trace {
		table = perLayer
	}
	res := &result{Attempted: ch.attempted, Failed: ch.failed, Metrics: map[string]metric{}}
	for _, m := range table {
		v, ok := rep.values[m.name]
		if !ok && !o.trace {
			return nil, nil, fmt.Errorf("workload %s measured no %s", w.name, m.name)
		}
		res.Metrics[m.name] = metric{Value: v, Unit: m.unit}
	}
	res.Correct = res.Failed == 0

	info := map[string]any{
		"workload": w.name,
		"why":      w.why,
		"seed":     o.seed,
		"seconds":  o.seconds,
		"trace":    o.trace,
		"env":      environment(),
	}
	if o.spanHours > 0 {
		info["span_hours"] = o.spanHours
	}
	for k, v := range rep.info {
		info[k] = v
	}
	return res, info, nil
}

// environment stamps the result with the machine it ran on.
func environment() map[string]any {
	env := map[string]any{
		"cpu":        cpuModel(),
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
	}
	var u syscall.Utsname
	if err := syscall.Uname(&u); err == nil {
		env["kernel"] = utsString(u.Release[:])
	}
	return env
}

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

func utsString[T int8 | uint8](f []T) string {
	var b strings.Builder
	for _, c := range f {
		if c == 0 {
			break
		}
		b.WriteByte(byte(c))
	}
	return b.String()
}
