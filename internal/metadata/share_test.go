package metadata

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"photodtn/internal/model"
)

// deepEntries returns the cache's entries with private copies of their
// photo lists, so later mutations of the cache cannot reach them. An empty
// list reads as nil: no reader of the cache can tell the two apart.
func deepEntries(c *Cache) []Entry {
	es := c.Entries()
	for i := range es {
		if len(es[i].Photos) == 0 {
			es[i].Photos = nil
		} else {
			es[i].Photos = es[i].Photos.Clone()
		}
	}
	return es
}

// referencePut is the §III-B rule with no no-op test and no sharing: a
// newer snapshot replaces, a command-center snapshot merges by a fresh
// union that zeroes λ and p, and anything else is ignored. Put must end in
// the same state.
func referencePut(c *Cache, e Entry) {
	if e.Node == c.owner {
		return
	}
	old, ok := c.entries[e.Node]
	switch {
	case !ok:
		e.Photos = e.Photos.Clone()
	case e.Node.IsCommandCenter():
		merged := Entry{Node: model.CommandCenter, Timestamp: math.Max(old.Timestamp, e.Timestamp)}
		seen := map[model.PhotoID]bool{}
		for _, p := range append(old.Photos.Clone(), e.Photos...) {
			if !seen[p.ID] {
				seen[p.ID] = true
				merged.Photos = append(merged.Photos, p)
			}
		}
		e = merged
	case e.Timestamp > old.Timestamp:
		e.Photos = e.Photos.Clone()
	default:
		return
	}
	c.setEntry(e)
	c.evict()
}

// putCase names what kind of Put a property-test step performed, so the
// test can prove it covered each one.
type putCase int

const (
	caseOwner putCase = iota
	caseNew
	caseOlder
	caseEqual
	caseNewer
	caseCCNoNewIDs
	caseCCNewIDs
	caseCCDupIDs
	caseSelfEvicted
	numPutCases
)

// randomEntry draws a Put argument over a small universe of nodes, stamps
// and photo IDs, so that owner entries, older, equal and newer stamps, and
// command-center snapshots that add nothing or repeat IDs all recur.
func randomEntry(rng *rand.Rand, c *Cache) Entry {
	nodes := []model.NodeID{model.CommandCenter, c.Owner(), 2, 3, 4, 5, 6}
	e := Entry{
		Node:      nodes[rng.Intn(len(nodes))],
		Timestamp: float64(rng.Intn(6)),
	}
	if rng.Intn(3) > 0 {
		e.Lambda = []float64{0.001, 0.01, 1}[rng.Intn(3)]
		e.P = 0.5
	}
	old, ok := c.Get(e.Node)
	switch {
	case e.Node.IsCommandCenter() && ok && rng.Intn(2) == 0:
		// A sample of what the cache already holds, in any order,
		// sometimes with a repeat.
		for _, p := range old.Photos {
			if rng.Intn(3) > 0 {
				e.Photos = append(e.Photos, p)
			}
		}
		rng.Shuffle(len(e.Photos), func(i, j int) { e.Photos[i], e.Photos[j] = e.Photos[j], e.Photos[i] })
		if len(e.Photos) > 0 && rng.Intn(4) == 0 {
			e.Photos = append(e.Photos, e.Photos[0])
		}
		if rng.Intn(2) == 0 {
			e.Lambda, e.P = 0, 0
		}
	default:
		for n := rng.Intn(4); n > 0; n-- {
			e.Photos = append(e.Photos, photoOf(9, uint32(rng.Intn(6))))
		}
	}
	return e
}

// classify names the case a Put of e against c exercises.
func classify(c *Cache, e Entry) putCase {
	if e.Node == c.Owner() {
		return caseOwner
	}
	old, ok := c.Get(e.Node)
	if !ok {
		return caseNew
	}
	if e.Node.IsCommandCenter() {
		seen := map[model.PhotoID]bool{}
		for _, p := range old.Photos {
			if seen[p.ID] {
				return caseCCDupIDs
			}
			seen[p.ID] = true
		}
		for _, p := range e.Photos {
			if !seen[p.ID] {
				return caseCCNewIDs
			}
		}
		return caseCCNoNewIDs
	}
	switch {
	case e.Timestamp < old.Timestamp:
		return caseOlder
	case e.Timestamp == old.Timestamp:
		return caseEqual
	}
	return caseNewer
}

// TestChangesExact checks the no-op predicate over seeded random sequences
// of Put, MergeFrom, DropInvalid, Remove and SetLimits: Changes is false
// exactly when a Put leaves Entries() and Bytes() deeply unchanged, and
// Put ends in the state referencePut reaches.
func TestChangesExact(t *testing.T) {
	var seen [numPutCases]int
	for seed := int64(1); seed <= 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		c := NewCache(1, 0.8)
		gossip := NewCache(7, 0.8)
		for step := 0; step < 200; step++ {
			switch op := rng.Intn(20); {
			case op == 0:
				c.SetLimits(rng.Intn(5), int64(rng.Intn(4))*(entryOverhead+2*model.PhotoWireSize))
			case op == 1:
				c.DropInvalid(float64(rng.Intn(200)))
			case op == 2:
				c.Remove([]model.NodeID{model.CommandCenter, 2, 3, 4}[rng.Intn(4)])
			case op == 3:
				c.MergeFrom(gossip)
			case op < 7:
				gossip.Put(randomEntry(rng, gossip))
			default:
				e := randomEntry(rng, c)
				kind := classify(c, e)
				before, bytes := deepEntries(c), c.Bytes()
				ref := c.Clone()
				referencePut(ref, e)
				changes := c.Changes(e)
				c.Put(e)
				after := deepEntries(c)
				changed := !reflect.DeepEqual(before, after) || bytes != c.Bytes()
				if changes != changed {
					t.Fatalf("seed %d step %d: Changes(%+v) = %v, but Put changed the cache: %v\nbefore %+v\nafter  %+v",
						seed, step, e, changes, changed, before, after)
				}
				if want := deepEntries(ref); !reflect.DeepEqual(after, want) || ref.Bytes() != c.Bytes() {
					t.Fatalf("seed %d step %d: Put(%+v) left\n%+v (%d bytes), the reference rule\n%+v (%d bytes)",
						seed, step, e, after, c.Bytes(), want, ref.Bytes())
				}
				if kind == caseNew && !changes {
					kind = caseSelfEvicted
				}
				seen[kind]++
			}
		}
	}
	names := [numPutCases]string{"owner", "new", "older", "equal", "newer",
		"CC adds no ID", "CC adds an ID", "CC list with duplicate IDs", "new entry evicted on arrival"}
	for k, n := range seen {
		if n == 0 {
			t.Errorf("no Put exercised the %s case", names[k])
		}
	}
}

// TestSharedListsIsolated checks that caches sharing photo lists through
// Clone or MergeFrom stay independent: no mutation through one cache's API
// changes what the other reports, and a growing command-center merge never
// writes into a shared list's spare capacity.
func TestSharedListsIsolated(t *testing.T) {
	build := func() *Cache {
		c := NewCache(1, 0.8)
		cc := make(model.PhotoList, 2, 8) // spare capacity a careless append would reuse
		cc[0], cc[1] = photoOf(9, 0), photoOf(9, 1)
		c.Put(Entry{Node: model.CommandCenter, Timestamp: 10, Photos: cc})
		c.Put(entryOf(2, 10, photoOf(2, 0), photoOf(2, 1)))
		c.Put(entryOf(3, 20, photoOf(3, 0)))
		c.Put(Entry{Node: 4, Lambda: 1, Timestamp: 5, Photos: model.PhotoList{photoOf(4, 0)}})
		return c
	}
	mutations := []struct {
		name string
		do   func(c *Cache)
	}{
		{"put newer", func(c *Cache) { c.Put(entryOf(2, 30, photoOf(2, 7))) }},
		{"growing CC merge", func(c *Cache) {
			c.Put(Entry{Node: model.CommandCenter, Timestamp: 40, Photos: model.PhotoList{photoOf(9, 2), photoOf(9, 3)}})
		}},
		{"drop invalid", func(c *Cache) { c.DropInvalid(100) }},
		{"remove", func(c *Cache) { c.Remove(3) }},
		{"evict", func(c *Cache) { c.SetLimits(2, 0) }},
	}
	share := map[string]func(c *Cache) *Cache{
		"clone": (*Cache).Clone,
		"merge": func(c *Cache) *Cache {
			out := NewCache(8, 0.8)
			out.MergeFrom(c)
			return out
		},
	}
	for how, derive := range share {
		for _, m := range mutations {
			for _, mutateOriginal := range []bool{true, false} {
				orig := build()
				other := derive(orig)
				target, watched := other, orig
				if mutateOriginal {
					target, watched = orig, other
				}
				want := deepEntries(watched)
				ccBacking := func() model.PhotoList {
					e, _ := watched.Get(model.CommandCenter)
					return e.Photos[:cap(e.Photos)].Clone()
				}
				backing := ccBacking()
				m.do(target)
				if got := deepEntries(watched); !reflect.DeepEqual(got, want) {
					t.Errorf("%s, %s on the %s: the other cache changed\nwant %+v\ngot  %+v",
						how, m.name, map[bool]string{true: "original", false: "copy"}[mutateOriginal], want, got)
				}
				if got := ccBacking(); !reflect.DeepEqual(got, backing) {
					t.Errorf("%s, %s: a shared command-center backing array was written", how, m.name)
				}
			}
		}
	}
}
