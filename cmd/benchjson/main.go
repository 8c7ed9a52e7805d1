// Command benchjson converts `go test -bench` text output into a stable
// JSON document, so benchmark baselines can be committed and diffed across
// the repository's history.
//
// Usage:
//
//	go test -run='^$' -bench=. -benchmem ./internal/selection/ | benchjson -o BENCH_selection.json
//	benchjson -diff [-threshold 1.30] old.json new.json
//
// In the default mode the input is read from stdin; the environment header
// lines (goos, goarch, pkg, cpu) and every benchmark result line are parsed,
// everything else is ignored. GOMAXPROCS is read from the -N suffix of the
// benchmark names (go test omits it at 1). Output is indented JSON sorted in
// input order.
//
// In -diff mode two previously converted documents are compared. Both
// documents' cpu and gomaxprocs are printed first, with a mismatch flagged;
// that note is informational and never gates. Then, for every
// benchmark present in both, the new/old ratios of ns/op, B/op, and
// allocs/op are printed, and the exit status is non-zero when any ns/op or
// allocs/op ratio exceeds the threshold (a regression). The allocs gate
// additionally requires an absolute growth beyond allocSlack: benchmarks
// with near-zero allocation counts (pooled steady-state paths) see their
// first-iteration warm-up amortised over an iteration count that varies
// run to run, so a pure ratio on a small count is noise, not a regression.
// B/op is reported but not gated — it tracks allocs/op and is the noisier
// of the two. Benchmarks present on only one side are listed but never
// gate.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"strconv"
	"strings"
)

// Result is one benchmark line: name, iteration count, and the reported
// per-operation metrics.
type Result struct {
	Name        string  `json:"name"`
	Iterations  int64   `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  int64   `json:"b_per_op,omitempty"`
	AllocsPerOp int64   `json:"allocs_per_op,omitempty"`
	// Metrics holds any other reported units (MB/s, custom b.ReportMetric
	// units) keyed by unit string.
	Metrics map[string]float64 `json:"metrics,omitempty"`
}

// Document is the full converted report.
type Document struct {
	GoOS      string `json:"goos"`
	GoArch    string `json:"goarch"`
	GoVersion string `json:"goversion"`
	Pkg       string `json:"pkg,omitempty"`
	CPU       string `json:"cpu,omitempty"`
	// GOMAXPROCS is the benchmark run's -N name suffix; zero in documents
	// written before it was recorded.
	GOMAXPROCS int      `json:"gomaxprocs,omitempty"`
	Benchmarks []Result `json:"benchmarks"`
}

func main() {
	out := flag.String("o", "", "output file (default stdout)")
	diff := flag.Bool("diff", false, "compare two benchmark JSON documents: benchjson -diff old.json new.json")
	threshold := flag.Float64("threshold", 1.30, "new/old ratio above which a ns/op or allocs/op change is a regression (with -diff)")
	flag.Parse()

	if *diff {
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("-diff needs exactly two arguments: old.json new.json"))
		}
		if diffDocs(os.Stdout, flag.Arg(0), flag.Arg(1), *threshold) {
			os.Exit(1)
		}
		return
	}

	doc, err := parseDoc(os.Stdin)
	if err != nil {
		fatal(err)
	}
	buf, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		fatal(err)
	}
	buf = append(buf, '\n')
	if *out == "" {
		os.Stdout.Write(buf)
		return
	}
	if err := os.WriteFile(*out, buf, 0o644); err != nil {
		fatal(err)
	}
}

// parseDoc converts `go test -bench` output into a document.
func parseDoc(in io.Reader) (*Document, error) {
	doc := &Document{
		GoOS:       runtime.GOOS,
		GoArch:     runtime.GOARCH,
		GoVersion:  runtime.Version(),
		GOMAXPROCS: 1,
	}
	sc := bufio.NewScanner(in)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		switch {
		case strings.HasPrefix(line, "goos: "):
			doc.GoOS = strings.TrimPrefix(line, "goos: ")
		case strings.HasPrefix(line, "goarch: "):
			doc.GoArch = strings.TrimPrefix(line, "goarch: ")
		case strings.HasPrefix(line, "pkg: "):
			doc.Pkg = strings.TrimPrefix(line, "pkg: ")
		case strings.HasPrefix(line, "cpu: "):
			doc.CPU = strings.TrimPrefix(line, "cpu: ")
		case strings.HasPrefix(line, "Benchmark"):
			if r, ok := parseLine(line); ok {
				doc.Benchmarks = append(doc.Benchmarks, r)
				_, procs := trimProcs(strings.Fields(line)[0])
				doc.GOMAXPROCS = max(doc.GOMAXPROCS, procs)
			}
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(doc.Benchmarks) == 0 {
		return nil, fmt.Errorf("no benchmark lines found on stdin")
	}
	return doc, nil
}

// parseLine parses one benchmark result line of the form
//
//	BenchmarkName-8   12345   678.9 ns/op   10 B/op   2 allocs/op
//
// Any subset of the value/unit pairs may be present (no -benchmem drops the
// B/op and allocs/op columns; b.ReportMetric with ns/op replaces the time
// column entirely) and units beyond the three standard ones — MB/s,
// custom b.ReportMetric units — are collected into Metrics instead of being
// discarded. A pair that fails to parse is skipped, not fatal for the whole
// line; the line is kept as long as at least one metric parsed.
func parseLine(line string) (Result, bool) {
	f := strings.Fields(line)
	if len(f) < 2 {
		return Result{}, false
	}
	iters, err := strconv.ParseInt(f[1], 10, 64)
	if err != nil {
		return Result{}, false
	}
	name, _ := trimProcs(f[0])
	r := Result{Name: name, Iterations: iters}
	parsed := false
	for i := 2; i+1 < len(f); i += 2 {
		val, unit := f[i], f[i+1]
		switch unit {
		case "ns/op":
			if v, err := strconv.ParseFloat(val, 64); err == nil {
				r.NsPerOp = v
				parsed = true
			}
		case "B/op":
			if v, err := strconv.ParseInt(val, 10, 64); err == nil {
				r.BytesPerOp = v
				parsed = true
			}
		case "allocs/op":
			if v, err := strconv.ParseInt(val, 10, 64); err == nil {
				r.AllocsPerOp = v
				parsed = true
			}
		default:
			if v, err := strconv.ParseFloat(val, 64); err == nil {
				if r.Metrics == nil {
					r.Metrics = make(map[string]float64)
				}
				r.Metrics[unit] = v
				parsed = true
			}
		}
	}
	return r, parsed
}

// trimProcs strips the trailing -N GOMAXPROCS suffix from a benchmark name
// and returns N, which is 1 when the suffix is absent.
func trimProcs(name string) (string, int) {
	i := strings.LastIndexByte(name, '-')
	if i < 0 {
		return name, 1
	}
	n, err := strconv.Atoi(name[i+1:])
	if err != nil {
		return name, 1
	}
	return name[:i], n
}

// allocSlack is the absolute allocs/op growth below which the allocs ratio
// never gates, however large: amortised warm-up on near-allocation-free
// benchmarks moves small counts by a few tens between runs.
const allocSlack = 48

// diffDocs compares two converted documents and reports whether any
// benchmark regressed: a new/old ratio of ns/op or allocs/op above the
// threshold (allocs additionally needs absolute growth beyond allocSlack).
// Ratios are printed for every benchmark present in both documents;
// one-sided benchmarks are listed but never gate.
func diffDocs(w io.Writer, oldPath, newPath string, threshold float64) (regressed bool) {
	oldDoc, err := loadDoc(oldPath)
	if err != nil {
		fatal(err)
	}
	newDoc, err := loadDoc(newPath)
	if err != nil {
		fatal(err)
	}
	oldByName := make(map[string]Result, len(oldDoc.Benchmarks))
	for _, r := range oldDoc.Benchmarks {
		oldByName[r.Name] = r
	}

	envLine(w, "cpu", oldDoc.CPU, newDoc.CPU)
	envLine(w, "gomaxprocs", procsOf(oldDoc), procsOf(newDoc))
	fmt.Fprintf(w, "%-60s %12s %12s %8s %8s %8s\n",
		"benchmark", "old ns/op", "new ns/op", "ns", "B/op", "allocs")
	seen := make(map[string]bool, len(newDoc.Benchmarks))
	for _, nr := range newDoc.Benchmarks {
		seen[nr.Name] = true
		or, ok := oldByName[nr.Name]
		if !ok {
			fmt.Fprintf(w, "%-60s %12s %12.0f %8s %8s %8s  (new)\n",
				nr.Name, "-", nr.NsPerOp, "-", "-", "-")
			continue
		}
		nsRatio := ratio(nr.NsPerOp, or.NsPerOp)
		bRatio := ratio(float64(nr.BytesPerOp), float64(or.BytesPerOp))
		aRatio := ratio(float64(nr.AllocsPerOp), float64(or.AllocsPerOp))
		flag := ""
		if nsRatio > threshold || (aRatio > threshold && nr.AllocsPerOp-or.AllocsPerOp > allocSlack) {
			flag = "  REGRESSION"
			regressed = true
		}
		fmt.Fprintf(w, "%-60s %12.0f %12.0f %8s %8s %8s%s\n",
			nr.Name, or.NsPerOp, nr.NsPerOp,
			fmtRatio(nsRatio), fmtRatio(bRatio), fmtRatio(aRatio), flag)
	}
	for _, or := range oldDoc.Benchmarks {
		if !seen[or.Name] {
			fmt.Fprintf(w, "%-60s %12.0f %12s %8s %8s %8s  (removed)\n",
				or.Name, or.NsPerOp, "-", "-", "-", "-")
		}
	}
	if regressed {
		fmt.Fprintf(w, "\nregression: at least one ns/op or allocs/op ratio exceeds %.2f\n", threshold)
	}
	return regressed
}

// envLine prints one environment field of both documents ("?" when a
// document does not record it) and flags a mismatch. Ratios across
// machines or GOMAXPROCS settings measure the machine as much as the code;
// the flag is a note for the reader and never gates.
func envLine(w io.Writer, key, oldV, newV string) {
	if oldV == "" {
		oldV = "?"
	}
	if newV == "" {
		newV = "?"
	}
	note := ""
	if oldV != "?" && newV != "?" && oldV != newV {
		note = "  (mismatch)"
	}
	fmt.Fprintf(w, "%-11s old %s, new %s%s\n", key+":", oldV, newV, note)
}

// procsOf formats a document's GOMAXPROCS, empty when it is not recorded.
func procsOf(d *Document) string {
	if d.GOMAXPROCS == 0 {
		return ""
	}
	return strconv.Itoa(d.GOMAXPROCS)
}

// ratio returns new/old, or 1 when the old value is zero and the new one is
// too; a metric appearing from zero reports as +Inf and is caught by any
// threshold.
func ratio(newV, oldV float64) float64 {
	if oldV == 0 {
		if newV == 0 {
			return 1
		}
		return math.Inf(1)
	}
	return newV / oldV
}

func fmtRatio(r float64) string {
	if math.IsInf(r, 1) {
		return "+inf"
	}
	return fmt.Sprintf("%.2fx", r)
}

func loadDoc(path string) (*Document, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var doc Document
	if err := json.Unmarshal(buf, &doc); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &doc, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchjson:", err)
	os.Exit(1)
}
