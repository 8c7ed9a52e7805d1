package main

import (
	"fmt"
	"sort"
	"time"

	"photodtn/internal/experiments"
	"photodtn/internal/model"
	"photodtn/internal/sim"
	"photodtn/internal/trace"
)

// deploymentSeed fixes what the paper also keeps fixed across runs: the
// contact trace realisation (as experiments.BaseTrace does) and which
// devices carry a gateway link. Drawing the gateways per seed would make
// the result depend mostly on whether a well-connected node was picked,
// which hides everything else.
const deploymentSeed = 424242

// params generates the trace with trace.Generate and returns the
// experiment parameters that run on it. spanHours > 0 cuts the run short.
func params(kind experiments.TraceKind, spanHours float64) (experiments.Params, error) {
	synth := trace.MITLike(deploymentSeed)
	if kind == experiments.Cambridge {
		synth = trace.CambridgeLike(deploymentSeed)
	}
	tr, err := trace.Generate(synth)
	if err != nil {
		return experiments.Params{}, fmt.Errorf("generate trace: %w", err)
	}
	p := experiments.DefaultParams(kind)
	p.CustomTrace = tr
	p.SpanHours = spanHours
	return p, nil
}

// inputs builds one workload's scenario on demand and times every build.
type inputs struct {
	kind      experiments.TraceKind
	seed      int64
	spanHours float64
	// gateways is the deployment's gateway set, drawn once before any
	// timed build.
	gateways []model.NodeID
	times    []float64 // seconds per build
}

func newInputs(kind experiments.TraceKind, seed int64, spanHours float64) (*inputs, error) {
	p, err := params(kind, spanHours)
	if err != nil {
		return nil, err
	}
	deploy, _, err := experiments.Build(p, experiments.SchemeOurs, deploymentSeed)
	if err != nil {
		return nil, fmt.Errorf("build deployment: %w", err)
	}
	return &inputs{kind: kind, seed: seed, spanHours: spanHours, gateways: deploy.Gateways}, nil
}

// build generates the trace, and the PoIs and photos with
// experiments.Build at the run's seed, on the deployment's gateways.
func (in *inputs) build() (*sim.Config, error) {
	t0 := time.Now()
	sc, err := in.scenario()
	in.times = append(in.times, time.Since(t0).Seconds())
	return sc, err
}

func (in *inputs) scenario() (*sim.Config, error) {
	p, err := params(in.kind, in.spanHours)
	if err != nil {
		return nil, err
	}
	cfg, _, err := experiments.Build(p, experiments.SchemeOurs, in.seed)
	if err != nil {
		return nil, fmt.Errorf("build workload: %w", err)
	}
	cfg.Gateways = in.gateways
	return &cfg, nil
}

// repeat builds the scenario n times for their timings alone.
func (in *inputs) repeat(n int) error {
	for i := 0; i < n; i++ {
		if _, err := in.build(); err != nil {
			return err
		}
	}
	return nil
}

// event is one step of a live replay: a capture or a contact.
type event struct {
	time    float64
	photo   *sim.PhotoEvent
	contact *trace.Contact
}

// replayEvents merges the captures, the trace's contacts and the gateway
// contacts in time order, breaking ties as the simulator does: a photo
// taken at a contact's instant rides that contact.
func replayEvents(cfg *sim.Config) []event {
	span := cfg.Span
	var evs []event
	for i := range cfg.Photos {
		if pe := &cfg.Photos[i]; pe.Time <= span {
			evs = append(evs, event{time: pe.Time, photo: pe})
		}
	}
	for i := range cfg.Trace.Contacts {
		if c := &cfg.Trace.Contacts[i]; c.Start <= span {
			evs = append(evs, event{time: c.Start, contact: c})
		}
	}
	gw := sim.GatewayContacts(*cfg, span)
	for i := range gw {
		evs = append(evs, event{time: gw[i].Start, contact: &gw[i]})
	}
	sort.SliceStable(evs, func(i, j int) bool {
		if evs[i].time != evs[j].time {
			return evs[i].time < evs[j].time
		}
		return evs[i].photo != nil && evs[j].photo == nil
	})
	return evs
}
