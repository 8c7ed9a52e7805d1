package selection

// Differential tests of the scenario-delta evaluator: the optimised
// implementation (dense states, shared base, residual caching, optional
// parallel scan) must agree — within the coverage comparison epsilon — with
// a straightforward clone-per-scenario oracle built only from the public
// State API, and with the exhaustive ExactExpectedCoverage enumeration.

import (
	"math/rand"
	"testing"

	"photodtn/internal/coverage"
	"photodtn/internal/model"
)

const diffEps = 1e-9

// legacyEval is the pre-optimisation evaluator semantics, reconstructed from
// the public coverage API: one fully materialized State per delivery
// outcome. Scenario construction mirrors NewEvaluator exactly (same mask
// order, same Monte Carlo draw order), so agreement must be exact up to
// floating-point reassociation.
type legacyEval struct {
	states []*coverage.State
	ws     []float64
}

func newLegacyEval(m *coverage.Map, cfg Config, ccFPs []coverage.Footprint, background []bgNode) *legacyEval {
	cfg = cfg.normalized()
	base := m.NewState()
	for _, fp := range ccFPs {
		base.Add(fp)
	}
	var live []bgNode
	for _, b := range background {
		if len(b.fps) == 0 || b.p <= 0 {
			continue
		}
		if b.p >= 1 {
			for _, fp := range b.fps {
				base.Add(fp)
			}
			continue
		}
		live = append(live, b)
	}
	le := &legacyEval{}
	materialize := func(w float64, delivered func(i int) bool) {
		st := base.Clone()
		for i, b := range live {
			if delivered(i) {
				for _, fp := range b.fps {
					st.Add(fp)
				}
			}
		}
		le.states = append(le.states, st)
		le.ws = append(le.ws, w)
	}
	if len(live) <= cfg.ExactLimit {
		for mask := 0; mask < 1<<len(live); mask++ {
			w := 1.0
			for i, b := range live {
				if mask&(1<<i) != 0 {
					w *= b.p
				} else {
					w *= 1 - b.p
				}
			}
			if w <= 0 {
				continue
			}
			materialize(w, func(i int) bool { return mask&(1<<i) != 0 })
		}
	} else {
		rng := rand.New(rand.NewSource(cfg.Seed))
		w := 1.0 / float64(cfg.Samples)
		for s := 0; s < cfg.Samples; s++ {
			del := make([]bool, len(live))
			for i, b := range live {
				del[i] = rng.Float64() < b.p
			}
			materialize(w, func(i int) bool { return del[i] })
		}
	}
	return le
}

func (le *legacyEval) Gain(fp coverage.Footprint) coverage.Coverage {
	var g coverage.Coverage
	for i, st := range le.states {
		g = g.Add(st.Gain(fp).Scale(le.ws[i]))
	}
	return g
}

func (le *legacyEval) Commit(fp coverage.Footprint) {
	for _, st := range le.states {
		st.Add(fp)
	}
}

func (le *legacyEval) Expected() coverage.Coverage {
	var c coverage.Coverage
	for i, st := range le.states {
		c = c.Add(st.Coverage().Scale(le.ws[i]))
	}
	return c
}

func covClose(a, b coverage.Coverage, tol float64) bool {
	d := a.Sub(b)
	return d.Point <= tol && d.Point >= -tol && d.Aspect <= tol && d.Aspect >= -tol
}

// diffConfigs covers the exact regime, the Monte Carlo regime, and the
// ExactLimit=0 edge (Monte Carlo even for tiny node sets).
func diffConfigs() []Config {
	return []Config{
		{ExactLimit: 5, Samples: 24, Seed: 3},
		{ExactLimit: 2, Samples: 16, Seed: 3},
		{ExactLimit: 0, Samples: 24, Seed: 9},
	}
}

// TestEvaluatorMatchesLegacyClones is the main differential property: on
// randomized instances the delta evaluator tracks the clone-per-scenario
// oracle through interleaved Gain and Commit sequences.
func TestEvaluatorMatchesLegacyClones(t *testing.T) {
	scales := benchScales()
	for _, sc := range scales[:2] { // exact16 and exact32 instances
		for ci, cfg := range diffConfigs() {
			m, ccFPs, bg, pool := benchInstance(t, sc)
			ev := NewEvaluator(m, cfg, ccFPs, bg)
			le := newLegacyEval(m, cfg, ccFPs, bg)
			if ev.Scenarios() != len(le.states) {
				t.Fatalf("%s cfg %d: %d scenarios, legacy %d", sc.name, ci, ev.Scenarios(), len(le.states))
			}
			if !covClose(ev.Expected(), le.Expected(), diffEps) {
				t.Fatalf("%s cfg %d: Expected %+v, legacy %+v", sc.name, ci, ev.Expected(), le.Expected())
			}
			for round := 0; round < 4; round++ {
				for pi, it := range pool {
					got, want := ev.Gain(it.FP), le.Gain(it.FP)
					if !covClose(got, want, diffEps) {
						t.Fatalf("%s cfg %d round %d photo %d: Gain %+v, legacy %+v",
							sc.name, ci, round, pi, got, want)
					}
				}
				if g := ev.Gain(coverage.Footprint{}); !g.IsZero() {
					t.Fatalf("%s cfg %d: empty footprint gain %+v", sc.name, ci, g)
				}
				commit := pool[round*3%len(pool)].FP
				ev.Commit(commit)
				le.Commit(commit)
				if !covClose(ev.Expected(), le.Expected(), diffEps) {
					t.Fatalf("%s cfg %d round %d: Expected %+v, legacy %+v",
						sc.name, ci, round, ev.Expected(), le.Expected())
				}
			}
			ev.Release()
		}
	}
}

// TestEvaluatorMatchesExactOracle pins the exact-enumeration regime to the
// independent ExactExpectedCoverage oracle, including p=0 and p=1
// participants (dropped resp. folded into the base).
func TestEvaluatorMatchesExactOracle(t *testing.T) {
	m, photos := exactInstance(t)
	ccPhotos := photos[:3]
	probs := []float64{0, 1, 0.35, 0.8} // includes both edge probabilities
	var parts []Participant
	for i := 0; i < 4; i++ {
		parts = append(parts, Participant{
			Node:   model.NodeID(i + 1),
			P:      probs[i%len(probs)],
			Photos: photos[3+i*3 : 6+i*3],
		})
	}
	cfg := Config{ExactLimit: 8, Samples: 24, Seed: 1}
	got := ExpectedCoverage(m, cfg, ccPhotos, parts)
	want := ExactExpectedCoverage(m, ccPhotos, parts)
	if !covClose(got, want, diffEps) {
		t.Fatalf("ExpectedCoverage %+v, exact oracle %+v", got, want)
	}
}

// TestEvaluatorEdgeProbabilityReduction: a p=0 participant must be
// equivalent to absence; a p=1 participant must be equivalent to handing its
// photos to the command center.
func TestEvaluatorEdgeProbabilityReduction(t *testing.T) {
	m, photos := exactInstance(t)
	fpc := coverage.NewFootprintCache(m)
	cc := footprintsOf(fpc, photos[:3])
	aFPs := footprintsOf(fpc, photos[3:6])
	bFPs := footprintsOf(fpc, photos[6:9])
	cfg := Config{ExactLimit: 5, Samples: 24, Seed: 1}

	withZero := NewEvaluator(m, cfg, cc, []bgNode{{p: 0.4, fps: aFPs}, {p: 0, fps: bFPs}})
	without := NewEvaluator(m, cfg, cc, []bgNode{{p: 0.4, fps: aFPs}})
	if !covClose(withZero.Expected(), without.Expected(), diffEps) {
		t.Fatalf("p=0 node changed Expected: %+v vs %+v", withZero.Expected(), without.Expected())
	}
	if withZero.Scenarios() != without.Scenarios() {
		t.Fatalf("p=0 node changed scenario count: %d vs %d", withZero.Scenarios(), without.Scenarios())
	}

	withOne := NewEvaluator(m, cfg, cc, []bgNode{{p: 0.4, fps: aFPs}, {p: 1, fps: bFPs}})
	folded := NewEvaluator(m, cfg, append(append([]coverage.Footprint{}, cc...), bFPs...),
		[]bgNode{{p: 0.4, fps: aFPs}})
	if !covClose(withOne.Expected(), folded.Expected(), diffEps) {
		t.Fatalf("p=1 node not folded into base: %+v vs %+v", withOne.Expected(), folded.Expected())
	}
	for _, fp := range footprintsOf(fpc, photos[9:15]) {
		if !covClose(withOne.Gain(fp), folded.Gain(fp), diffEps) {
			t.Fatal("p=1 folding changed a gain")
		}
	}
	withZero.Release()
	without.Release()
	withOne.Release()
	folded.Release()
}

// exactInstance builds a small deterministic map and photo list sized for
// exhaustive 2^m enumeration.
func exactInstance(t *testing.T) (*coverage.Map, model.PhotoList) {
	t.Helper()
	sc := benchScale{name: "exact", pois: 60, bgNodes: 2, perNode: 4, poolSize: 80,
		cfg: Config{ExactLimit: 8, Samples: 16, Seed: 1}}
	m, _, _, pool := benchInstance(t, sc)
	var photos model.PhotoList
	for _, it := range pool {
		photos = append(photos, it.Photo)
	}
	if len(photos) < 15 {
		t.Fatalf("instance too small: %d photos", len(photos))
	}
	return m, photos
}
