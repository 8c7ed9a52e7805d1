package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

func TestParseLine(t *testing.T) {
	tests := []struct {
		name string
		line string
		want Result
		ok   bool
	}{
		{
			name: "full benchmem line",
			line: "BenchmarkEvaluator/n=32-8   12345   678.9 ns/op   1024 B/op   7 allocs/op",
			want: Result{
				Name: "BenchmarkEvaluator/n=32", Iterations: 12345,
				NsPerOp: 678.9, BytesPerOp: 1024, AllocsPerOp: 7,
			},
			ok: true,
		},
		{
			name: "time only (no -benchmem)",
			line: "BenchmarkGreedy-4 200 51234 ns/op",
			want: Result{Name: "BenchmarkGreedy", Iterations: 200, NsPerOp: 51234},
			ok:   true,
		},
		{
			name: "zero allocs still parses",
			line: "BenchmarkNoop-8 1000000000 0.25 ns/op 0 B/op 0 allocs/op",
			want: Result{Name: "BenchmarkNoop", Iterations: 1000000000, NsPerOp: 0.25},
			ok:   true,
		},
		{
			name: "custom unit only, no ns/op",
			line: "BenchmarkThroughput-8 50 128.5 MB/s",
			want: Result{
				Name: "BenchmarkThroughput", Iterations: 50,
				Metrics: map[string]float64{"MB/s": 128.5},
			},
			ok: true,
		},
		{
			name: "custom ReportMetric unit alongside ns/op",
			line: "BenchmarkScan-8 30 4567 ns/op 12.5 scenarios/op 3 allocs/op",
			want: Result{
				Name: "BenchmarkScan", Iterations: 30, NsPerOp: 4567, AllocsPerOp: 3,
				Metrics: map[string]float64{"scenarios/op": 12.5},
			},
			ok: true,
		},
		{
			name: "malformed pair skipped, rest kept",
			line: "BenchmarkPartial-8 10 garbage B/op 99 ns/op",
			want: Result{Name: "BenchmarkPartial", Iterations: 10, NsPerOp: 99},
			ok:   true,
		},
		{
			name: "no GOMAXPROCS suffix",
			line: "BenchmarkPlain 7 3.5 ns/op",
			want: Result{Name: "BenchmarkPlain", Iterations: 7, NsPerOp: 3.5},
			ok:   true,
		},
		{
			name: "bad iteration count",
			line: "BenchmarkBroken-8 xyz 99 ns/op",
			ok:   false,
		},
		{
			name: "no metrics at all",
			line: "BenchmarkBare-8 100",
			ok:   false,
		},
		{
			name: "only unparsable pairs",
			line: "BenchmarkBad-8 100 foo bar",
			ok:   false,
		},
		{
			name: "name only",
			line: "BenchmarkName-8",
			ok:   false,
		},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			got, ok := parseLine(tc.line)
			if ok != tc.ok {
				t.Fatalf("parseLine(%q) ok = %v, want %v", tc.line, ok, tc.ok)
			}
			if !ok {
				return
			}
			if !reflect.DeepEqual(got, tc.want) {
				t.Fatalf("parseLine(%q)\n got %+v\nwant %+v", tc.line, got, tc.want)
			}
		})
	}
}

func TestTrimProcs(t *testing.T) {
	tests := []struct {
		in, want string
		procs    int
	}{
		{"BenchmarkFoo-8", "BenchmarkFoo", 8},
		{"BenchmarkFoo-128", "BenchmarkFoo", 128},
		{"BenchmarkFoo", "BenchmarkFoo", 1},
		{"BenchmarkFoo/sub=a-b-4", "BenchmarkFoo/sub=a-b", 4},
		{"BenchmarkFoo-bar", "BenchmarkFoo-bar", 1},
	}
	for _, tc := range tests {
		if got, procs := trimProcs(tc.in); got != tc.want || procs != tc.procs {
			t.Errorf("trimProcs(%q) = %q, %d, want %q, %d", tc.in, got, procs, tc.want, tc.procs)
		}
	}
}

func TestParseDocGOMAXPROCS(t *testing.T) {
	tests := []struct {
		name, in string
		want     int
	}{
		{"suffixed", "cpu: Some CPU\nBenchmarkA-2 10 5 ns/op\nBenchmarkB/x-2 10 6 ns/op\nPASS\n", 2},
		{"no suffix means 1", "BenchmarkA 10 5 ns/op\n", 1},
	}
	for _, tc := range tests {
		doc, err := parseDoc(strings.NewReader(tc.in))
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if doc.GOMAXPROCS != tc.want {
			t.Errorf("%s: GOMAXPROCS = %d, want %d", tc.name, doc.GOMAXPROCS, tc.want)
		}
		if doc.Benchmarks[0].Name != "BenchmarkA" {
			t.Errorf("%s: name %q not trimmed", tc.name, doc.Benchmarks[0].Name)
		}
	}
	if _, err := parseDoc(strings.NewReader("PASS\n")); err == nil {
		t.Error("input without benchmark lines parsed")
	}
}

func TestDiffPrintsEnvironment(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, doc Document) string {
		buf, err := json.Marshal(doc)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, buf, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	rows := []Result{{Name: "BenchmarkA", Iterations: 10, NsPerOp: 100}}
	legacy := write("legacy.json", Document{CPU: "cpu A", Benchmarks: rows})
	two := write("two.json", Document{CPU: "cpu A", GOMAXPROCS: 2, Benchmarks: rows})
	eight := write("eight.json", Document{CPU: "cpu B", GOMAXPROCS: 8, Benchmarks: rows})

	tests := []struct {
		name, old, new string
		want           []string
	}{
		{"match", two, two, []string{"cpu:        old cpu A, new cpu A\n", "gomaxprocs: old 2, new 2\n"}},
		{"mismatch", two, eight, []string{"old cpu A, new cpu B  (mismatch)", "old 2, new 8  (mismatch)"}},
		{"unrecorded", legacy, two, []string{"gomaxprocs: old ?, new 2\n"}},
	}
	for _, tc := range tests {
		var out bytes.Buffer
		if diffDocs(&out, tc.old, tc.new, 1.3) {
			t.Errorf("%s: an environment difference gated the diff", tc.name)
		}
		for _, w := range tc.want {
			if !strings.Contains(out.String(), w) {
				t.Errorf("%s: output lacks %q:\n%s", tc.name, w, out.String())
			}
		}
	}
}
