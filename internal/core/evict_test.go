package core

import (
	"fmt"
	"math/rand"
	"testing"

	"photodtn/internal/coverage"
	"photodtn/internal/faults"
	"photodtn/internal/geo"
	"photodtn/internal/model"
	"photodtn/internal/sim"
	"photodtn/internal/trace"
	"photodtn/internal/workload"
)

// lowestSolo is the eviction oracle: a scan of the stored photos and the
// incoming one for the least standalone coverage in the exact
// (Point, Aspect, ID) order. It shares no code with the heap's order.
func lowestSolo(m *coverage.Map, stored model.PhotoList, incoming model.Photo) model.PhotoID {
	best, bestCov := incoming.ID, m.SoloCoverage(incoming)
	for _, q := range stored {
		c := m.SoloCoverage(q)
		if c.Point < bestCov.Point ||
			c.Point == bestCov.Point && (c.Aspect < bestCov.Aspect ||
				c.Aspect == bestCov.Aspect && q.ID < best) {
			best, bestCov = q.ID, c
		}
	}
	return best
}

// oracleOnPhoto replays a capture against a copy of the storage with the
// oracle scan and returns the collection OnPhoto must leave behind.
func oracleOnPhoto(m *coverage.Map, st *sim.Storage, p model.Photo) model.PhotoList {
	st = st.Clone()
	if p.Size > st.Capacity() {
		return st.List()
	}
	for p.Size > st.Free() {
		victim := lowestSolo(m, st.Photos(), p)
		if victim == p.ID {
			return st.List()
		}
		st.Remove(victim)
	}
	_ = st.Add(p)
	return st.List()
}

// checkHeap asserts the eviction-heap invariant at a node: the slice is a
// min-heap, and every stored photo has a live entry with its exact key.
func checkHeap(t *testing.T, s *Scheme, node model.NodeID) {
	t.Helper()
	h := s.nodes[node].evict
	for i := 1; i < len(h); i++ {
		if h[i].less(h[(i-1)/2]) {
			t.Fatalf("node %v: heap order broken at slot %d", node, i)
		}
	}
	keys := make(map[evictKey]bool, len(h))
	for _, k := range h {
		keys[k] = true
	}
	for _, p := range s.w.Storage(node).Photos() {
		c := s.w.Map.SoloCoverage(p)
		if !keys[evictKey{point: c.Point, aspect: c.Aspect, id: p.ID}] {
			t.Fatalf("node %v: stored photo %v has no live heap entry", node, p.ID)
		}
	}
}

// evictChecker wraps the scheme and checks every capture against the
// oracle and the heap invariant at every node.
type evictChecker struct {
	*Scheme
	t        *testing.T
	captures int
	changed  int // captures that evicted or rejected something
}

func (c *evictChecker) OnPhoto(node model.NodeID, p model.Photo) {
	if c.w.Storage(node).Has(p.ID) {
		return // a re-capture of a photo still held: not a capture
	}
	if capture(c.t, c.Scheme, node, p) {
		c.changed++
	}
	c.captures++
	for n := 1; n <= c.w.NumNodes(); n++ {
		checkHeap(c.t, c.Scheme, model.NodeID(n))
	}
}

// evictWorld builds a small dense world with tight storages, random photo
// sizes, worthless photos, re-captures of earlier photos, peer and gateway contacts, and
// crash/rejoin churn.
func evictWorld(seed int64) sim.Config {
	rng := rand.New(rand.NewSource(seed))
	wl := workload.Default(5, 6*3600)
	wl.NumPoIs = 30
	wl.Region = geo.Square(1000)
	wl.PhotosPerHour = 60
	m := coverage.NewMap(workload.GeneratePoIs(wl, rng), geo.Radians(30))
	var photos []sim.PhotoEvent
	for _, e := range workload.GeneratePhotos(wl, rng) {
		p := e.Photo
		p.Size = int64(1+rng.Intn(6)) * mb
		if rng.Intn(4) == 0 {
			p.Location = geo.Vec{X: 1e6, Y: 1e6} // worthless: ties at zero, broken by ID
		}
		node := p.Owner
		if len(photos) > 0 && rng.Intn(5) == 0 {
			// Take an earlier photo again, possibly at another node, so an
			// evicted or removed ID gets stored again.
			p = photos[rng.Intn(len(photos))].Photo
			node = model.NodeID(1 + rng.Intn(wl.Nodes))
		}
		photos = append(photos, sim.PhotoEvent{Time: e.Time, Node: node, Photo: p})
	}
	var contacts []trace.Contact
	for time := 300.0; time < wl.Span; time += 200 + rng.Float64()*400 {
		a := model.NodeID(rng.Intn(wl.Nodes) + 1)
		b := model.NodeID(rng.Intn(wl.Nodes) + 1)
		if a != b {
			contacts = append(contacts, trace.Contact{Start: time, End: time + 60, A: a, B: b})
		}
	}
	return sim.Config{
		Trace:           &trace.Trace{Nodes: wl.Nodes, Contacts: contacts},
		Map:             m,
		Photos:          photos,
		StorageBytes:    16 * mb,
		Bandwidth:       float64(mb) / 8, // 60 s contacts carry about 7 MB
		Gateways:        []model.NodeID{1, 2},
		GatewayInterval: 1800,
		GatewayDuration: 60,
		SampleInterval:  3600,
		Seed:            seed,
		Faults: &faults.Config{
			Seed: seed, NodeFailRate: 0.6, MeanDowntimeSec: 900, MeanUptimeSec: 3600,
			FrameLossProb: 0.05,
		},
	}
}

// TestOnPhotoMatchesOracle drives random worlds and requires every capture
// to evict or reject exactly what the oracle scan does, with every stored
// photo covered by a live heap entry throughout.
func TestOnPhotoMatchesOracle(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		c := &evictChecker{Scheme: New(DefaultConfig()), t: t}
		res := runScheme(t, evictWorld(seed), c)
		if c.changed == 0 || res.NodeCrashes == 0 || res.Final.Delivered == 0 {
			t.Fatalf("seed %d: degenerate world: %d of %d captures evicted or rejected, %d crashes, %d delivered",
				seed, c.changed, c.captures, res.NodeCrashes, res.Final.Delivered)
		}
	}
}

// directScheme returns a scheme bound to a one-node world whose storage
// holds two 4 MB photos, for driving OnPhoto by hand.
func directScheme(t *testing.T) *Scheme {
	t.Helper()
	s := New(DefaultConfig())
	runScheme(t, sim.Config{
		Trace: &trace.Trace{Nodes: 1}, Map: poiMap(), StorageBytes: 8 * mb, Seed: 1, Span: 1,
	}, s)
	return s
}

// capture runs OnPhoto, checks it against the oracle and the node's heap,
// and reports whether it evicted or rejected anything.
func capture(t *testing.T, s *Scheme, node model.NodeID, p model.Photo) bool {
	t.Helper()
	st := s.w.Storage(node)
	want := oracleOnPhoto(s.w.Map, st, p)
	before := st.Len()
	s.OnPhoto(node, p)
	got := st.List()
	if len(got) != len(want) {
		t.Fatalf("capture of %v at %v kept %v, oracle %v", p.ID, node, got.IDs(), want.IDs())
	}
	for i := range got {
		if got[i].ID != want[i].ID {
			t.Fatalf("capture of %v at %v kept %v, oracle %v", p.ID, node, got.IDs(), want.IDs())
		}
	}
	checkHeap(t, s, node)
	return len(got) != before+1 || !st.Has(p.ID)
}

func TestOnPhotoStoresEvictedIDAgain(t *testing.T) {
	s := directScheme(t)
	st := s.w.Storage(1)
	worst, east, north := farAway(1, 0), viewFrom(1, 1, 0), viewFrom(1, 2, 90)
	capture(t, s, 1, worst)
	capture(t, s, 1, east)
	capture(t, s, 1, north) // evicts worst
	if st.Has(worst.ID) {
		t.Fatal("worthless photo not evicted")
	}
	st.Remove(east.ID) // delivered, say: its entry goes stale
	capture(t, s, 1, worst)
	// Removed outside OnPhoto and stored again: two live entries share
	// the ID until it leaves.
	st.Remove(worst.ID)
	capture(t, s, 1, worst)
	capture(t, s, 1, viewFrom(1, 3, 180)) // evicts worst; its twin goes stale
	if st.Has(worst.ID) {
		t.Fatal("re-stored worthless photo not evicted")
	}
	capture(t, s, 1, farAway(1, 4)) // rejected past the stale entries
	if got := st.List(); len(got) != 2 || got[0].ID != north.ID || got[1].ID != model.MakePhotoID(1, 3) {
		t.Fatalf("storage = %v", got)
	}
}

func TestEvictHeapRebuilds(t *testing.T) {
	s := New(DefaultConfig())
	runScheme(t, sim.Config{
		Trace: &trace.Trace{Nodes: 1}, Map: poiMap(), StorageBytes: 40 * mb, Seed: 1, Span: 1,
	}, s)
	st := s.w.Storage(1)
	for i := uint32(0); i < 10; i++ {
		capture(t, s, 1, viewFrom(1, i, float64(36*i)))
	}
	for i := uint32(0); i < 7; i++ {
		st.Remove(model.MakePhotoID(1, i)) // delivered elsewhere: 7 stale entries
	}
	capture(t, s, 1, viewFrom(1, 10, 5)) // 11 entries, 4 live: rebuilt
	if got := len(s.nodes[1].evict); got != st.Len() {
		t.Fatalf("heap holds %d entries after the rebuild, storage %d", got, st.Len())
	}
	for i := uint32(11); i < 20; i++ {
		capture(t, s, 1, viewFrom(1, i, float64(17*i)))
	}
}

// TestOnPhotoExactOrderNearTie pins the exact-order rule. Two photos whose
// standalone aspects differ by 1e-10 tie under coverage.Cmp's epsilon,
// which would evict the lower ID; the exact order evicts the lower aspect.
func TestOnPhotoExactOrderNearTie(t *testing.T) {
	s := directScheme(t)
	st := s.w.Storage(1)
	low, high := viewFrom(1, 1, 0), viewFrom(1, 0, 90)
	s.solo[high.ID] = coverage.Coverage{Point: 1, Aspect: 2 + 1e-10}
	s.solo[low.ID] = coverage.Coverage{Point: 1, Aspect: 2}
	if s.solo[low.ID].Cmp(s.solo[high.ID]) != 0 {
		t.Fatal("the crafted pair must tie under the epsilon comparison")
	}
	s.OnPhoto(1, high)
	s.OnPhoto(1, low)
	best := viewFrom(1, 2, 180)
	s.solo[best.ID] = coverage.Coverage{Point: 2, Aspect: 2}
	s.OnPhoto(1, best)
	if st.Has(low.ID) || !st.Has(high.ID) || !st.Has(best.ID) {
		t.Fatalf("storage = %v, want the lower-aspect photo %v evicted", st.List(), low.ID)
	}
}

// BenchmarkOnPhotoEvict measures one capture at a full node storing n
// photos: every capture is a fresh photo that evicts a stored one or is
// rejected. The per-capture cost grows as O(log n), not O(n).
func BenchmarkOnPhotoEvict(b *testing.B) {
	for _, n := range []int{64, 512, 4096} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			wl := workload.Default(1, 8192) // about 8k photos at 1/s
			wl.Region = geo.Square(2000)
			wl.PhotosPerHour = 3600
			m := coverage.NewMap(workload.GeneratePoIs(wl, rng), geo.Radians(30))
			var pool model.PhotoList
			for _, e := range workload.GeneratePhotos(wl, rng) {
				pool = append(pool, e.Photo)
			}
			s := New(DefaultConfig())
			if _, err := sim.Run(sim.Config{
				Trace: &trace.Trace{Nodes: 1}, Map: m, StorageBytes: int64(n) * wl.PhotoSize, Seed: 1, Span: 1,
			}, s); err != nil {
				b.Fatal(err)
			}
			for _, p := range pool[:n] {
				s.OnPhoto(1, p)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				p := pool[i%len(pool)]
				p.ID = model.MakePhotoID(2, uint32(i))
				s.OnPhoto(1, p)
			}
		})
	}
}
