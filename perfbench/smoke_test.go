package main

import (
	"encoding/json"
	"math"
	"os"
	"testing"
)

// smokeSpans are the simulated hours the smoke test replays: short, but
// long enough that one repetition has the 200 contacts a p95 needs. The
// Cambridge-like trace has 245 contacts in all, so it runs whole (0).
var smokeSpans = map[string]float64{"sim-mit": 96, "sim-cambridge": 0, "live-mit": 96}

// reached lists, per workload, the per-layer metrics that must be above 0:
// the layers the workload reaches. A per-layer boundary that is not wired
// in (no observer, no timing journal FS, no counting listener, no
// operation set on the tracer) leaves one of them at 0.
var reached = map[string][]string{
	"sim-mit": {
		"core.on_photo.calls", "core.on_photo.busy_s", "core.peer_contact.calls", "core.peer_contact.busy_s",
		"core.cc_contact.busy_s", "core.self_s", "sim.engine_self_s", "sim.transfers",
		"selection.rounds", "selection.gain_evals", "coverage.fp_cache_misses", "metadata.invalidations",
		"runtime.gc_cycles",
	},
	"sim-cambridge": {
		"core.on_photo.calls", "core.on_photo.busy_s", "core.peer_contact.calls", "core.peer_contact.busy_s",
		"core.self_s", "sim.engine_self_s", "sim.transfers", "selection.rounds", "coverage.fp_cache_misses",
		"runtime.gc_cycles",
	},
	"live-mit": {
		"peer.add_photo.calls", "peer.add_photo.busy_s", "peer.contact.busy_s", "peer.self_s",
		"wire.bytes_per_contact", "wire.writes_per_contact", "wire.read_wait_s", "wire.write_s", "wire.self_s",
		"journal.syncs", "journal.sync_s", "journal.write_s", "journal.bytes_per_commit", "journal.self_s",
		"transfer.chunks_sent", "transfer.chunks_received", "selection.rounds", "runtime.gc_cycles",
	},
}

// maxUnattributed is the share of a traced run that may fall outside every
// operation: for the live replay, the loop's own time between captures
// and contacts.
const maxUnattributed = 0.1

// TestSmoke runs a short span of every workload untraced and traced. Each
// must pass its checks and print every metric of its table with its unit.
// The traced run must reach the layers its workload exercises, attribute
// nearly all of its run time to them, and have self times that add up to
// its run time.
func TestSmoke(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			o := options{workload: w.name, seed: 1, seconds: 2, spanHours: smokeSpans[w.name], work: t.TempDir()}
			res, info, err := run(o)
			if err != nil {
				t.Fatal(err)
			}
			checkResult(t, res, endToEnd)
			for _, m := range endToEnd {
				if res.Metrics[m.name].Value <= 0 {
					t.Errorf("%s = %v, want > 0", m.name, res.Metrics[m.name].Value)
				}
			}
			t.Logf("%v", info)

			o.trace = true
			res, _, err = run(o)
			if err != nil {
				t.Fatal(err)
			}
			checkResult(t, res, perLayer)
			m := res.Metrics
			for _, name := range reached[w.name] {
				if m[name].Value <= 0 {
					t.Errorf("%s = %v, want > 0", name, m[name].Value)
				}
			}
			run := m["trace.run_s"].Value
			unattributed := m["trace.unattributed_s"].Value
			if run <= 0 || unattributed < 0 || unattributed > maxUnattributed*run {
				t.Errorf("trace.unattributed_s = %v of trace.run_s = %v, want at most %v of it", unattributed, run, maxUnattributed)
			}
			self := unattributed
			for _, name := range []string{"core.self_s", "sim.engine_self_s", "peer.self_s", "wire.self_s", "journal.self_s"} {
				self += m[name].Value
			}
			if math.Abs(self-run) > 1e-6*run {
				t.Errorf("self times sum to %v s, traced run took %v s", self, run)
			}
		})
	}
}

func checkResult(t *testing.T, res *result, table []struct{ name, unit string }) {
	t.Helper()
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Errorf("correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
	}
	if len(res.Metrics) != len(table) {
		t.Errorf("%d metrics, want %d", len(res.Metrics), len(table))
	}
	for _, m := range table {
		got, ok := res.Metrics[m.name]
		if !ok || got.Unit != m.unit {
			t.Errorf("metric %s = %+v, want unit %s", m.name, got, m.unit)
		}
	}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json's metric and workload lists
// in step with the tables this program prints from.
func TestBenchmarkJSONMatches(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type entry struct{ Name, Unit, Why string }
	var doc struct {
		Workloads []entry `json:"workloads"`
		EndToEnd  []entry `json:"end_to_end"`
		PerLayer  []entry `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	same := func(what string, got []entry, want []struct{ name, unit string }) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d, the program %d", what, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s %d: BENCHMARK.json has %s (%s), the program %s (%s)", what, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	same("end_to_end", doc.EndToEnd, endToEnd)
	same("per_layer", doc.PerLayer, perLayer)
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program %d", len(doc.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if got := doc.Workloads[i]; got.Name != w.name || got.Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %s (%q), the program %s (%q)", i, got.Name, got.Why, w.name, w.why)
		}
	}
}
