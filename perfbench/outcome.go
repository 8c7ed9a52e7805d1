package main

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"sort"

	"photodtn/internal/model"
	"photodtn/internal/sim"
)

// outcome is what a run must reproduce: the command center's delivered
// set and final coverage.
type outcome struct {
	Digest    uint64
	Delivered int
	Point     float64
	AspectRad float64
}

func (a outcome) String() string {
	return fmt.Sprintf("digest=%016x delivered=%d point=%.12g aspect=%.12g", a.Digest, a.Delivered, a.Point, a.AspectRad)
}

// equal compares two outcomes; coverage values may differ in the last
// bits when summed in another order.
func (a outcome) equal(b outcome) bool {
	near := func(x, y float64) bool { return math.Abs(x-y) <= 1e-9*math.Max(1, math.Abs(x)) }
	return a.Digest == b.Digest && a.Delivered == b.Delivered && near(a.Point, b.Point) && near(a.AspectRad, b.AspectRad)
}

// photoDigest hashes a photo set's IDs in increasing order.
func photoDigest(ids []model.PhotoID) uint64 {
	ws := make([]uint64, len(ids))
	for i, id := range ids {
		ws[i] = uint64(id)
	}
	sort.Slice(ws, func(i, j int) bool { return ws[i] < ws[j] })
	return fnvWords(ws)
}

// fnvWords hashes 64-bit words, in order, with FNV-1a.
func fnvWords(ws []uint64) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for _, w := range ws {
		binary.LittleEndian.PutUint64(b[:], w)
		h.Write(b[:])
	}
	return h.Sum64()
}

// checkDelivered checks a command center's collection: no photo twice,
// and the reported coverage equal to the coverage recomputed from the
// photos. It returns the collection's outcome.
func checkDelivered(sc *sim.Config, ch *checks, photos model.PhotoList, point, aspect float64, what string) outcome {
	ids := photos.IDs()
	seen := make(map[model.PhotoID]bool, len(ids))
	for _, id := range ids {
		seen[id] = true
	}
	ch.check(len(seen) == len(ids), "%s: %d delivered photos but %d distinct IDs", what, len(ids), len(seen))
	pt, as := sc.Map.Normalized(sc.Map.Of(photos))
	got := outcome{Digest: photoDigest(ids), Delivered: len(ids), Point: point, AspectRad: aspect}
	want := outcome{Digest: got.Digest, Delivered: len(seen), Point: pt, AspectRad: as}
	ch.check(got.equal(want), "%s: reported coverage %v, recomputed %v", what, got, want)
	return got
}

// checkReference compares an outcome with the one recorded for this
// workload and seed, if there is one.
func checkReference(o options, ch *checks, got outcome) {
	want, ok := references[refKey{o.workload, o.seed, o.spanHours}]
	if !ok {
		return
	}
	ch.check(got.equal(want.outcome), "%s seed %d: outcome %v, recorded %v", o.workload, o.seed, got, want.outcome)
}

// refKey names a recorded run: workload, seed and simulated span in hours
// (0 for the whole trace).
type refKey struct {
	workload string
	seed     int64
	span     float64
}

// reference is what a run on a recorded key must reproduce. State is the
// live replay's StateDigest of every peer, folded by fnvWords (0 for the
// simulator).
type reference struct {
	outcome
	State uint64
}

// references pins each workload's default seed (1), one other seed (2), and
// the smoke test's span (see smokeSpans). The values are the "outcome" and
// "state_digest" a run prints on its information line. A run on any other
// seed checks that its repetitions agree and that the delivered set's
// coverage recomputes.
var references = map[refKey]reference{
	{"sim-mit", 1, 0}:       {outcome{0x641b1bb2b99cd039, 1825, 1, 4.9791569642}, 0},
	{"sim-mit", 2, 0}:       {outcome{0xd2db4b810b4a6f30, 1805, 1, 5.07093417877}, 0},
	{"sim-mit", 1, 96}:      {outcome{0x5bdd1c9df2f903d9, 414, 0.808, 1.566362047}, 0},
	{"sim-cambridge", 1, 0}: {outcome{0xa45ac73f1a41291a, 935, 0.984, 3.18863230621}, 0},
	{"sim-cambridge", 2, 0}: {outcome{0xec65980ee14676c3, 944, 1, 3.30793090789}, 0},
	{"live-mit", 1, 0}:      {outcome{0xb18367208621de09, 1359, 1, 4.04326865669}, 0x6acdcd6dbc338620},
	{"live-mit", 2, 0}:      {outcome{0xe19b3a59158f7220, 1389, 1, 4.20362094123}, 0x007d6a23677d0b63},
	{"live-mit", 1, 96}:     {outcome{0xad1c8412909073ae, 397, 0.788, 1.50076778358}, 0x39c4c12aac50d31d},
}
