package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// Span names. Each belongs to the layer named before its first dot.
const (
	spanSimRun       = "sim.run"
	spanOnPhoto      = "core.on_photo"
	spanPeerContact  = "core.peer_contact"
	spanCCContact    = "core.cc_contact"
	spanLiveRun      = "live.run"
	spanAddPhoto     = "peer.add_photo"
	spanContact      = "peer.contact"
	spanDial         = "peer.dial"  // the dialing side's DialContext
	spanServe        = "peer.serve" // the serving side, accept to close
	spanWireDial     = "wire.dial"
	spanWireRead     = "wire.read"
	spanWireWrite    = "wire.write"
	spanJournalWrite = "journal.write"
	spanJournalSync  = "journal.sync"
	spanJournalOther = "journal.other"
)

// span is one timed call at a layer boundary. Times are offsets from the
// tracer's origin. Node is the node that made the call (-1 for the engine
// and the replay loop); Peer is the other node of a contact.
type span struct {
	ID     int           `json:"id"`
	Parent int           `json:"parent"`
	Name   string        `json:"name"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
	Node   int           `json:"node"`
	Peer   int           `json:"peer,omitempty"`
	Bytes  int           `json:"bytes,omitempty"`
}

// tracer keeps spans in memory until the run ends. Untraced runs have no
// tracer and pay one nil check per boundary.
type tracer struct {
	origin time.Time

	mu    sync.Mutex
	spans []span
	// op is the top-level operation (capture or contact) in flight: with
	// at most one in flight, every wire and journal call belongs to it.
	op int
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

func (t *tracer) now() time.Duration { return time.Since(t.origin) }

// add records a finished span under parent (ids start at 1; parent 0 is
// the root).
func (t *tracer) add(name string, parent int, start, end time.Duration, node, peer int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Start: start, End: end, Node: node, Peer: peer})
}

// reserve allocates the id of a span that is still open, so the calls it
// makes can name it as their parent before it ends.
func (t *tracer) reserve() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{})
	return len(t.spans)
}

// finish fills in a reserved span.
func (t *tracer) finish(id int, name string, parent int, start, end time.Duration, node, peer int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1] = span{ID: id, Parent: parent, Name: name, Start: start, End: end, Node: node, Peer: peer}
}

// setOp marks the operation in flight (0 for none).
func (t *tracer) setOp(id int) {
	t.mu.Lock()
	t.op = id
	t.mu.Unlock()
}

// leaf records a wire or journal call that node made, moving bytes, under
// the operation in flight. Calls outside any operation (opening and
// closing the peers) are not part of the run and are dropped.
func (t *tracer) leaf(name string, start time.Duration, node, bytes int) {
	end := t.now()
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.op == 0 {
		return
	}
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: t.op, Name: name, Start: start, End: end, Node: node, Bytes: bytes})
}

// writeJSONL writes every span, one JSON object a line.
func (t *tracer) writeJSONL(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			_ = f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		_ = f.Close()
		return err
	}
	return f.Close()
}

// selfTimes splits the traced run into the layers' self times, in
// seconds. For the simulator, the scheme's calls are core's and the rest of
// the engine's run is the engine's own; for the live replay, each capture
// and contact is split among peer, wire and journal. Time no operation
// covers goes to "unattributed", so the values always sum to run.
//
// Inside a live operation two parties run at once: the driver (the
// capturing or dialing peer) and the serving peer. Each instant goes to
// one layer: to the journal while either party is in a journal call, else
// to the peer while either party computes (is inside the operation but in
// no wire call), else to the wire. So a dialer blocked reading while the
// server fsyncs is charged to the journal, and one blocked while the
// server selects photos is charged to the peer.
func (t *tracer) selfTimes(run time.Duration) map[string]float64 {
	children := make(map[int][]span)
	for _, s := range t.spans {
		children[s.Parent] = append(children[s.Parent], s)
	}
	self := map[string]float64{}
	covered := time.Duration(0)
	for _, top := range children[0] {
		switch top.Name {
		case spanSimRun:
			var scheme time.Duration
			for _, c := range children[top.ID] {
				scheme += c.End - c.Start
			}
			self["core"] += scheme.Seconds()
			self["sim.engine"] += (top.End - top.Start - scheme).Seconds()
			covered += top.End - top.Start
		case spanLiveRun:
			// The replay loop's own time between operations stays
			// unattributed.
			for _, op := range children[top.ID] {
				for layer, d := range sweep(op, children[op.ID]) {
					self[layer] += d.Seconds()
				}
				covered += op.End - op.Start
			}
		}
	}
	self["unattributed"] = (run - covered).Seconds()
	return self
}

// sweep partitions one live operation's interval among peer, wire and
// journal (see selfTimes). Party 0 is the driver (op.Node); party 1 the
// serving peer.
func sweep(op span, kids []span) map[string]time.Duration {
	type edge struct {
		at    time.Duration
		delta int
		kind  int // 0 inside, 1 wire, 2 journal
		party int
	}
	var edges []edge
	add := func(s span, kind, party int) {
		start, end := max(s.Start, op.Start), min(s.End, op.End)
		if end <= start {
			return
		}
		edges = append(edges, edge{start, 1, kind, party}, edge{end, -1, kind, party})
	}
	party := func(node int) int {
		if node == op.Node {
			return 0
		}
		return 1
	}
	if op.Name == spanAddPhoto {
		add(op, 0, 0)
	}
	for _, k := range kids {
		switch {
		case k.Name == spanDial || k.Name == spanServe:
			add(k, 0, party(k.Node))
		case k.Name == spanWireDial || k.Name == spanWireRead || k.Name == spanWireWrite:
			add(k, 1, party(k.Node))
		default: // journal.*
			add(k, 2, party(k.Node))
		}
	}
	sort.Slice(edges, func(i, j int) bool { return edges[i].at < edges[j].at })
	var count [3][2]int
	out := map[string]time.Duration{}
	last := op.Start
	for _, e := range edges {
		if e.at > last {
			out[layerOf(count)] += e.at - last
			last = e.at
		}
		count[e.kind][e.party] += e.delta
	}
	if op.End > last {
		out[layerOf(count)] += op.End - last
	}
	return out
}

// layerOf names the layer an instant belongs to, given how many inside,
// wire and journal spans each party has open.
func layerOf(c [3][2]int) string {
	if c[2][0]+c[2][1] > 0 {
		return "journal"
	}
	for p := 0; p < 2; p++ {
		if c[0][p] > 0 && c[1][p] == 0 {
			return "peer"
		}
	}
	if c[1][0]+c[1][1] > 0 {
		return "wire"
	}
	return "peer"
}

// spansPath is where a traced run leaves its spans.
func spansPath(work, workload string, seed int64) string {
	return filepath.Join(work, "spans", fmt.Sprintf("%s-seed%d.jsonl", workload, seed))
}
