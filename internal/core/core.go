// Package core implements the paper's resource-aware photo crowdsourcing
// framework as a simulation scheme: the distributed protocol a participant
// runs at every contact.
//
// At a peer contact the two nodes (1) exchange PROPHET beacons and update
// delivery predictabilities, (2) exchange and gossip photo metadata
// (§III-B), (3) jointly compute the greedy photo reallocation that
// maximises expected coverage (§III-C/D), and (4) realise it by
// transferring photos in selection order under the contact's bandwidth
// budget, discarding whatever the contact is too short to finish.
//
// At a gateway contact with the command center the node learns the command
// center's collection (the acknowledgement view), uploads its photos in
// marginal-gain order, and frees the storage of everything delivered.
package core

import (
	"photodtn/internal/metadata"
	"photodtn/internal/model"
	"photodtn/internal/obs"
	"photodtn/internal/prophet"
	"photodtn/internal/selection"
	"photodtn/internal/sim"

	"photodtn/internal/coverage"
)

// Config tunes the framework.
type Config struct {
	// Selection configures expected-coverage evaluation.
	Selection selection.Config
	// Prophet configures delivery predictability.
	Prophet prophet.Config
	// Pthld is the metadata validity threshold of eq. (1).
	Pthld float64
	// DisableMetadata turns off metadata caching and management entirely —
	// the NoMetadata baseline of §V-B. Contacts then optimise using only
	// the two live collections.
	DisableMetadata bool
	// MinQuality implements the §II-C quality discussion as a binary
	// threshold: assessed photos (Quality > 0) below it are rejected at
	// capture, before they ever enter the coverage model. Zero disables
	// the filter.
	MinQuality float64
}

// DefaultConfig returns the Table I configuration.
func DefaultConfig() Config {
	return Config{
		Selection: selection.DefaultConfig(),
		Prophet:   prophet.DefaultConfig(),
		Pthld:     metadata.DefaultPthld,
	}
}

// nodeState is the per-node protocol state.
type nodeState struct {
	cache *metadata.Cache
	rate  *metadata.RateEstimator
	table *prophet.Table
	evict evictHeap
}

// Scheme is the framework as a sim.Scheme. Create it with New.
type Scheme struct {
	cfg   Config
	name  string
	w     *sim.World
	nodes []*nodeState
	solo  map[model.PhotoID]coverage.Coverage
	fpc   *coverage.FootprintCache
	// sel is the scheme's selection arena: pools, heaps, residuals, and
	// scenario buffers are recycled across every contact of the run.
	sel *selection.Session

	// Observability (all nil — no-ops — when the world has no observer).
	obsv           *obs.Observer
	cInvalidations *obs.Counter
	hTableAge      *obs.Histogram
}

var _ sim.Scheme = (*Scheme)(nil)

// New returns the full framework ("OurScheme").
func New(cfg Config) *Scheme {
	name := "OurScheme"
	if cfg.DisableMetadata {
		name = "NoMetadata"
	}
	return &Scheme{cfg: cfg, name: name}
}

// Name implements sim.Scheme.
func (s *Scheme) Name() string { return s.name }

// Unconstrained implements sim.Scheme.
func (s *Scheme) Unconstrained() bool { return false }

// Init implements sim.Scheme.
func (s *Scheme) Init(w *sim.World) {
	s.w = w
	s.solo = make(map[model.PhotoID]coverage.Coverage)
	s.fpc = coverage.NewFootprintCache(w.Map)
	s.sel = selection.NewSession()
	o := w.Obs()
	s.obsv = o
	if o != nil {
		s.cfg.Selection.Metrics = selection.ObserverMetrics(o)
	}
	s.cInvalidations = o.Counter("metadata.invalidations")
	s.hTableAge = o.Histogram("prophet.table_age_sec")
	s.fpc.SetMetrics(o.Counter("coverage.fp_cache_hits"), o.Counter("coverage.fp_cache_misses"))
	s.nodes = make([]*nodeState, w.NumNodes()+1)
	for i := range s.nodes {
		s.nodes[i] = &nodeState{
			cache: metadata.NewCache(model.NodeID(i), s.cfg.Pthld),
			rate:  metadata.NewRateEstimator(),
			table: prophet.NewTable(model.NodeID(i), s.cfg.Prophet),
		}
	}
}

// soloCoverage returns the (cached) standalone coverage of a photo; it is
// constant for a fixed PoI map.
func (s *Scheme) soloCoverage(p model.Photo) coverage.Coverage {
	if c, ok := s.solo[p.ID]; ok {
		return c
	}
	c := s.w.Map.SoloCoverage(p)
	s.solo[p.ID] = c
	return c
}

// OnPhoto implements sim.Scheme. A newly taken photo is stored if it fits;
// when the storage is full, the photos with the least standalone coverage
// (including possibly the new one) are evicted until it fits. "Least" is
// the exact (Point, Aspect, ID) order of evictKey, so each eviction is one
// O(log n) pop from the node's heap instead of a scan of the storage.
func (s *Scheme) OnPhoto(node model.NodeID, p model.Photo) {
	if s.cfg.MinQuality > 0 && p.Quality > 0 && p.Quality < s.cfg.MinQuality {
		return // unqualified photo: filtered before the model sees it
	}
	st := s.w.Storage(node)
	if p.Size > st.Capacity() {
		return
	}
	ns := s.nodes[node]
	key := s.evictKey(p)
	for p.Size > st.Free() {
		// The storage holds a photo, so the heap holds a live entry. A
		// stale minimum is popped like a victim (Remove is a no-op for it):
		// the live entries all order after it, so a newcomer below it is
		// below them too.
		victim := ns.evict[0]
		if key.less(victim) {
			return // the new photo is the least valuable: reject it
		}
		ns.evict.pop()
		st.Remove(victim.id)
	}
	_ = st.Add(p) // fits by construction; duplicate IDs cannot occur
	s.stored(ns, st, key)
}

// evictKey is a photo's capture-time eviction key: its standalone coverage
// and ID. Keys compare exactly, Point then Aspect then ID. coverage.Cmp's
// epsilon is not transitive, so it could not order a heap.
type evictKey struct {
	point, aspect float64
	id            model.PhotoID
}

func (s *Scheme) evictKey(p model.Photo) evictKey {
	c := s.soloCoverage(p)
	return evictKey{point: c.Point, aspect: c.Aspect, id: p.ID}
}

func (k evictKey) less(o evictKey) bool {
	switch {
	case k.point != o.point:
		return k.point < o.point
	case k.aspect != o.aspect:
		return k.aspect < o.aspect
	default:
		return k.id < o.id
	}
}

// stored records that the photo keyed k is now stored at the node. Every
// stored photo has an entry in its node's heap. Entries of photos that
// left the storage (delivered, reallocated away, lost in a crash) go stale
// in place; once they outnumber the live ones the heap is rebuilt from the
// storage. An ID removed and stored again may have two entries: both are
// live until it leaves, and both go stale then.
func (s *Scheme) stored(ns *nodeState, st *sim.Storage, k evictKey) {
	ns.evict.push(k)
	if len(ns.evict) <= 2*st.Len() {
		return
	}
	ns.evict = ns.evict[:0]
	for _, q := range st.Photos() {
		ns.evict = append(ns.evict, s.evictKey(q))
	}
	ns.evict.init()
}

// evictHeap is a node's min-heap of eviction keys. It is a typed slice
// heap: container/heap would box every push into an allocation.
type evictHeap []evictKey

func (h *evictHeap) push(k evictKey) {
	*h = append(*h, k)
	h.up(len(*h) - 1)
}

func (h *evictHeap) pop() {
	n := len(*h) - 1
	(*h)[0] = (*h)[n]
	*h = (*h)[:n]
	h.down(0)
}

func (h evictHeap) init() {
	for i := len(h)/2 - 1; i >= 0; i-- {
		h.down(i)
	}
}

func (h evictHeap) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !h[i].less(h[parent]) {
			return
		}
		h[i], h[parent] = h[parent], h[i]
		i = parent
	}
}

func (h evictHeap) down(i int) {
	for {
		least := i
		if l := 2*i + 1; l < len(h) && h[l].less(h[least]) {
			least = l
		}
		if r := 2*i + 2; r < len(h) && h[r].less(h[least]) {
			least = r
		}
		if least == i {
			return
		}
		h[i], h[least] = h[least], h[i]
		i = least
	}
}

// OnContact implements sim.Scheme.
func (s *Scheme) OnContact(sess *sim.Session) {
	switch {
	case sess.A.IsCommandCenter():
		s.ccContact(sess, sess.B)
	case sess.B.IsCommandCenter():
		s.ccContact(sess, sess.A)
	default:
		s.peerContact(sess)
	}
}

// ccContact handles a gateway node meeting the command center.
func (s *Scheme) ccContact(sess *sim.Session, node model.NodeID) {
	now := sess.Time
	ns := s.nodes[node]
	ns.rate.Observe(model.CommandCenter, now)
	prophet.Exchange(ns.table, s.nodes[model.CommandCenter].table, now)

	// Upload photos in marginal-gain order over what the command center
	// already has (live knowledge during the contact).
	st := s.w.Storage(node)
	plan := s.sel.SelectForUpload(s.fpc, s.selCfg(), s.w.CCPhotos(), st.List())
	for _, p := range plan {
		if err := sess.Transfer(model.CommandCenter, p); err != nil {
			break // budget exhausted; unfinished transfer discarded
		}
		st.Remove(p.ID) // delivered: the copy here has no further value
	}

	if !s.cfg.DisableMetadata {
		// The command center's collection is the acknowledgement view.
		ns.cache.Put(metadata.Entry{
			Node:      model.CommandCenter,
			Photos:    s.w.CCPhotos().Clone(),
			Timestamp: now,
		})
	}
}

// peerContact handles a contact between two participants.
func (s *Scheme) peerContact(sess *sim.Session) {
	now := sess.Time
	a, b := sess.A, sess.B
	nsA, nsB := s.nodes[a], s.nodes[b]
	nsA.rate.Observe(b, now)
	nsB.rate.Observe(a, now)
	s.hTableAge.Observe(now - nsA.table.LastAged())
	s.hTableAge.Observe(now - nsB.table.LastAged())
	prophet.Exchange(nsA.table, nsB.table, now)
	pa := nsA.table.DeliveryProb(now)
	pb := nsB.table.DeliveryProb(now)

	stA, stB := s.w.Storage(a), s.w.Storage(b)
	photosA, photosB := stA.List(), stB.List()

	var (
		ccPhotos   model.PhotoList
		background []selection.Participant
	)
	if !s.cfg.DisableMetadata {
		// Gossip caches both ways, then snapshot each other.
		nsA.cache.MergeFrom(nsB.cache)
		nsB.cache.MergeFrom(nsA.cache)
		nsA.cache.Put(metadata.Entry{
			Node: b, Photos: photosB, Lambda: nsB.rate.Rate(now), P: pb, Timestamp: now,
		})
		nsB.cache.Put(metadata.Entry{
			Node: a, Photos: photosA, Lambda: nsA.rate.Rate(now), P: pa, Timestamp: now,
		})
		da := nsA.cache.DropInvalid(now)
		db := nsB.cache.DropInvalid(now)
		s.cInvalidations.Add(int64(da + db))
		if s.obsv != nil {
			if da > 0 {
				s.obsv.Emit(obs.Event{Time: now, Kind: obs.EvMetadataStaled,
					A: int32(a), B: obs.NoNode, Photo: obs.NoPhoto, Value: float64(da)})
			}
			if db > 0 {
				s.obsv.Emit(obs.Event{Time: now, Kind: obs.EvMetadataStaled,
					A: int32(b), B: obs.NoNode, Photo: obs.NoPhoto, Value: float64(db)})
			}
		}

		// The joint optimisation sees the union of both (identical, after
		// the merge) valid cache views.
		for _, e := range nsA.cache.ValidEntries(now) {
			if e.Node == a || e.Node == b {
				continue
			}
			if e.Node.IsCommandCenter() {
				ccPhotos = e.Photos
				continue
			}
			background = append(background, selection.Participant{
				Node: e.Node, Photos: e.Photos, P: e.P,
			})
		}
	}

	cfg := s.selCfg()
	res := s.sel.Reallocate(s.fpc, cfg, ccPhotos, background,
		selection.Alloc{Node: a, P: pa, Capacity: stA.Capacity(), Photos: photosA},
		selection.Alloc{Node: b, P: pb, Capacity: stB.Capacity(), Photos: photosB},
	)

	// Realise the plan: the first selector's transfers take priority.
	if res.AFirst {
		s.realize(sess, a, res.ASel)
		s.realize(sess, b, res.BSel)
	} else {
		s.realize(sess, b, res.BSel)
		s.realize(sess, a, res.ASel)
	}
}

// realize morphs a node's collection into the selected target: unselected
// photos are dropped, missing ones are pulled from the peer in selection
// order until the budget runs out.
func (s *Scheme) realize(sess *sim.Session, node model.NodeID, sel model.PhotoList) {
	st := s.w.Storage(node)
	want := make(map[model.PhotoID]bool, len(sel))
	for _, p := range sel {
		want[p.ID] = true
	}
	for _, p := range st.List() {
		if !want[p.ID] {
			st.Remove(p.ID)
		}
	}
	for _, p := range sel {
		if st.Has(p.ID) {
			continue
		}
		if s.obsv != nil {
			s.obsv.Emit(obs.Event{Time: sess.Time, Kind: obs.EvPhotoSelected,
				A: int32(node), B: obs.NoNode, Photo: int64(p.ID)})
		}
		if sess.Exhausted() {
			break
		}
		if err := sess.Transfer(node, p); err != nil {
			break // budget gone (ErrBudget) — the rest of the plan is moot
		}
		s.stored(s.nodes[node], st, s.evictKey(p))
	}
}

// selCfg derives a per-contact selection configuration with a deterministic
// Monte Carlo seed from the run's RNG stream.
func (s *Scheme) selCfg() selection.Config {
	cfg := s.cfg.Selection
	cfg.Seed = s.w.Rand.Int63()
	return cfg
}
