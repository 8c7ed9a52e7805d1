package main

import (
	"fmt"
	"runtime"
	"time"

	"photodtn"
	"photodtn/internal/core"
	"photodtn/internal/model"
	"photodtn/internal/sim"
)

// timedScheme wraps the scheme under test and times every call the engine
// makes into it. With a tracer it also records each call as a span.
type timedScheme struct {
	sim.Scheme
	tr     *tracer
	parent int
	// photo, peer and cc hold the durations of OnPhoto, node-node
	// OnContact and gateway OnContact calls.
	photo, peer, cc []time.Duration
}

// OnPhoto implements sim.Scheme.
func (s *timedScheme) OnPhoto(node model.NodeID, p model.Photo) {
	t0 := time.Now()
	s.Scheme.OnPhoto(node, p)
	d := time.Since(t0)
	s.photo = append(s.photo, d)
	s.span(spanOnPhoto, t0, d, int(node), 0)
}

// OnContact implements sim.Scheme.
func (s *timedScheme) OnContact(sess *sim.Session) {
	t0 := time.Now()
	s.Scheme.OnContact(sess)
	d := time.Since(t0)
	if sess.A.IsCommandCenter() || sess.B.IsCommandCenter() {
		s.cc = append(s.cc, d)
		s.span(spanCCContact, t0, d, int(sess.A), int(sess.B))
		return
	}
	s.peer = append(s.peer, d)
	s.span(spanPeerContact, t0, d, int(sess.A), int(sess.B))
}

func (s *timedScheme) span(name string, t0 time.Time, d time.Duration, a, b int) {
	if s.tr == nil {
		return
	}
	start := t0.Sub(s.tr.origin)
	s.tr.add(name, s.parent, start, start+d, a, b)
}

// simRun is one repetition's outcome.
type simRun struct {
	res    *sim.Result
	wall   time.Duration
	scheme *timedScheme
	alloc  uint64
	gcs    uint32
	pause  time.Duration
}

// runSimOnce runs the engine once on a fresh scheme; tr and o are nil for
// an untraced run.
func runSimOnce(sc *sim.Config, tr *tracer, o *photodtn.Observer) (*simRun, error) {
	contacts := len(sc.Trace.Contacts) + len(sim.GatewayContacts(*sc, sc.Span))
	ts := &timedScheme{
		Scheme: core.New(core.DefaultConfig()),
		tr:     tr,
		photo:  make([]time.Duration, 0, len(sc.Photos)),
		peer:   make([]time.Duration, 0, contacts),
		cc:     make([]time.Duration, 0, contacts),
	}
	var opts []photodtn.Option
	if o != nil {
		opts = append(opts, photodtn.WithObserver(o))
	}
	if tr != nil {
		ts.parent = tr.reserve()
	}
	runtime.GC()
	before := memTotals()
	t0 := time.Now()
	res, err := photodtn.RunSimulation(*sc, ts, opts...)
	wall := time.Since(t0)
	after := memTotals()
	if err != nil {
		return nil, fmt.Errorf("simulate: %w", err)
	}
	if tr != nil {
		start := t0.Sub(tr.origin)
		tr.finish(ts.parent, spanSimRun, 0, start, start+wall, -1, 0)
	}
	return &simRun{
		res: res, wall: wall, scheme: ts,
		alloc: after.TotalAlloc - before.TotalAlloc,
		gcs:   after.NumGC - before.NumGC,
		pause: time.Duration(after.PauseTotalNs - before.PauseTotalNs),
	}, nil
}

// runSim measures a simulator workload: each repetition builds the
// inputs, runs the engine on a fresh scheme and checks the outcome.
func runSim(o options, in *inputs, ch *checks) (report, error) {
	var s samples
	var transferred, nContacts float64
	minReps := 1
	if o.trace {
		minReps = 2
	}
	err := measure(o, minReps, func(i int) error {
		traced := o.trace && i%2 == 1
		var tr *tracer
		var ob *photodtn.Observer
		if traced {
			tr = newTracer()
			ob = photodtn.NewObserver(0, nil)
		}
		sc, err := in.build()
		if err != nil {
			return err
		}
		r, err := runSimOnce(sc, tr, ob)
		if err != nil {
			ch.ops(1, 1)
			return err
		}
		ts := r.scheme
		ch.ops(len(ts.photo)+len(ts.peer)+len(ts.cc), 0)
		final := r.res.Final
		s.agree(o, ch, i, checkDelivered(sc, ch, r.res.DeliveredPhotos, final.PointFrac, final.AspectRad, o.workload))
		transferred, nContacts = float64(r.res.TransferredBytes), float64(len(ts.peer)+len(ts.cc))
		if traced {
			s.traced = append(s.traced, tracedRep{simLayers(r, tr, ob), tr})
			return nil
		}
		s.add(r.wall, r.alloc, append(append([]time.Duration(nil), ts.peer...), ts.cc...), ts.photo)
		return nil
	})
	if err != nil {
		return report{}, err
	}
	return s.report(o, ratio(transferred, nContacts)/1024, map[string]any{"contacts_per_run": nContacts})
}

// simLayers reads one traced repetition's per-layer metrics.
func simLayers(r *simRun, tr *tracer, o *photodtn.Observer) map[string]float64 {
	ts := r.scheme
	sum := func(ds []time.Duration) float64 {
		var t time.Duration
		for _, d := range ds {
			t += d
		}
		return t.Seconds()
	}
	self := tr.selfTimes(r.wall)
	v := map[string]float64{
		"core.on_photo.calls":      float64(len(ts.photo)),
		"core.on_photo.busy_s":     sum(ts.photo),
		"core.peer_contact.calls":  float64(len(ts.peer)),
		"core.peer_contact.busy_s": sum(ts.peer),
		"core.cc_contact.busy_s":   sum(ts.cc),
		"core.self_s":              self["core"],
		"sim.engine_self_s":        self["sim.engine"],
		"sim.transfers":            float64(o.Counter("sim.transfers").Value()),
		"trace.run_s":              r.wall.Seconds(),
		"trace.unattributed_s":     self["unattributed"],
	}
	observerLayers(v, o)
	v["runtime.gc_cycles"] = float64(r.gcs)
	v["runtime.gc_pause_s"] = r.pause.Seconds()
	return v
}

// observerLayers copies the selection, coverage and metadata counters an
// observer collected.
func observerLayers(v map[string]float64, o *photodtn.Observer) {
	count := func(name string) float64 { return float64(o.Counter(name).Value()) }
	v["selection.evaluators"] = count("selection.evaluators")
	v["selection.rounds"] = count("selection.rounds")
	v["selection.gain_evals"] = count("selection.gain_evals")
	v["selection.gain_evals_per_round"] = ratio(count("selection.gain_evals"), count("selection.rounds"))
	v["selection.scenarios_mean"] = o.Histogram("selection.scenarios").Mean()
	hits, misses := count("coverage.fp_cache_hits"), count("coverage.fp_cache_misses")
	v["coverage.fp_cache_hit_ratio"] = ratio(hits, hits+misses)
	v["coverage.fp_cache_misses"] = misses
	v["metadata.invalidations"] = count("metadata.invalidations")
}
