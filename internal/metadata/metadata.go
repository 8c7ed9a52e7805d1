// Package metadata implements the metadata management scheme of §III-B.
//
// Nodes exchange photo metadata on every contact and cache what they learn
// about other nodes. Because DTN connectivity is too poor for traditional
// cache validation, an entry for node a is instead considered stale once the
// probability that a has met someone (and thus changed its photos) since the
// snapshot exceeds a threshold:
//
//	P{T_a < t} = 1 − e^(−λ_a·t) > P_thld,
//
// where λ_a is a's aggregate contact rate learned from history and t the
// time since the snapshot was taken (eq. 1 of the paper).
//
// The command center's metadata is special in two ways: it never goes stale
// (the command center never drops photos), and sharing it acts as a delivery
// acknowledgement that lets nodes purge already-delivered photos from
// consideration.
//
// Cached photo lists are immutable: the cache never writes into one, so
// Clone, MergeFrom and the entries a lookup returns share them instead of
// copying. Put takes ownership of the list it is given, and callers must not
// modify a list they have put or read from a cache.
package metadata

import (
	"maps"
	"math"
	"sort"

	"photodtn/internal/model"
)

// DefaultPthld is the validity threshold P_thld from Table I.
const DefaultPthld = 0.8

// Entry is one cached metadata snapshot: what photos a node held, its
// learned contact rate, and when the snapshot was taken at the origin.
type Entry struct {
	// Node is the origin node the snapshot describes.
	Node model.NodeID
	// Photos is the origin's photo collection at snapshot time.
	Photos model.PhotoList
	// Lambda is the origin's aggregate contact rate λ_a in contacts/second,
	// as learned and advertised by the origin itself.
	Lambda float64
	// P is the origin's delivery probability to the command center (its
	// PROPHET p_i), as advertised at snapshot time. Expected coverage uses
	// it to weigh the origin's photos.
	P float64
	// Timestamp is when the snapshot was taken, in seconds of global
	// simulation/wall time.
	Timestamp float64
}

// StaleProb returns P{T_a < t}: the probability the origin node has met
// another node (and may have changed its photos) by time now.
//
// Clock skew (or out-of-order event processing) can put a snapshot's
// Timestamp in the observer's future. Treating that negative elapsed time
// as zero would make the entry permanently fresh — it would never expire
// until local time caught up past the skewed stamp. Staleness is a function
// of how far apart the two clocks' views are, so the magnitude |t| is used:
// an entry stamped far in the future is exactly as untrustworthy as one
// stamped equally far in the past.
func (e Entry) StaleProb(now float64) float64 {
	t := math.Abs(now - e.Timestamp)
	if t == 0 || e.Lambda <= 0 {
		return 0
	}
	return 1 - math.Exp(-e.Lambda*t)
}

// ValidityHorizon returns how long a snapshot from a node with rate lambda
// stays valid under threshold pthld: the t solving 1 − e^(−λt) = P_thld.
// It returns +Inf for a zero rate.
func ValidityHorizon(lambda, pthld float64) float64 {
	if lambda <= 0 {
		return math.Inf(1)
	}
	if pthld >= 1 {
		return math.Inf(1)
	}
	if pthld <= 0 {
		return 0
	}
	return -math.Log(1-pthld) / lambda
}

// Cache is one node's knowledge about every other node's photos. The zero
// value is not usable; call NewCache. Cache is not safe for concurrent use.
type Cache struct {
	owner   model.NodeID
	pthld   float64
	entries map[model.NodeID]Entry

	// Optional caps (0 = unlimited), enforced by eviction at Put time.
	maxEntries int
	maxBytes   int64
	bytes      int64
}

// entryOverhead approximates one entry's fixed cost next to its photo
// list: node + λ + p + timestamp, as encoded on the wire.
const entryOverhead = 4 + 8 + 8 + 8

// entrySize is an entry's accounted cost in bytes.
func entrySize(e Entry) int64 {
	return entryOverhead + int64(len(e.Photos))*model.PhotoWireSize
}

// NewCache returns an empty cache with the given validity threshold; a
// non-positive threshold falls back to DefaultPthld.
func NewCache(owner model.NodeID, pthld float64) *Cache {
	if pthld <= 0 {
		pthld = DefaultPthld
	}
	return &Cache{owner: owner, pthld: pthld, entries: make(map[model.NodeID]Entry)}
}

// Owner returns the node the cache belongs to.
func (c *Cache) Owner() model.NodeID { return c.owner }

// Pthld returns the validity threshold in use.
func (c *Cache) Pthld() float64 { return c.pthld }

// Len returns the number of cached entries.
func (c *Cache) Len() int { return len(c.entries) }

// Bytes returns the accounted size of the cache: a fixed per-entry
// overhead plus the encoded size of every listed photo.
func (c *Cache) Bytes() int64 { return c.bytes }

// SetLimits bounds the cache to at most maxEntries entries and maxBytes of
// accounted entry size (zero or negative disables a bound). When a Put
// pushes past a bound, the entries with the oldest snapshot timestamps are
// evicted first (ties broken toward the higher node ID) — the entries
// closest to going stale anyway. The command-center entry is never
// evicted: it is the delivery-acknowledgement ledger, and losing it would
// resurrect already-delivered photos.
func (c *Cache) SetLimits(maxEntries int, maxBytes int64) {
	c.maxEntries, c.maxBytes = maxEntries, maxBytes
	c.evict()
}

// setEntry stores an entry and keeps the byte account in balance.
func (c *Cache) setEntry(e Entry) {
	if old, ok := c.entries[e.Node]; ok {
		c.bytes -= entrySize(old)
	}
	c.bytes += entrySize(e)
	c.entries[e.Node] = e
}

// delEntry removes an entry and keeps the byte account in balance.
func (c *Cache) delEntry(node model.NodeID) {
	if old, ok := c.entries[node]; ok {
		c.bytes -= entrySize(old)
		delete(c.entries, node)
	}
}

// over reports whether a cache of n entries and the given accounted bytes
// breaks a configured cap.
func (c *Cache) over(n int, bytes int64) bool {
	return (c.maxEntries > 0 && n > c.maxEntries) || (c.maxBytes > 0 && bytes > c.maxBytes)
}

// evictsBefore reports whether an entry of node a stamped ta is evicted
// before one of node b stamped tb: oldest snapshot first, ties toward the
// higher node ID.
func evictsBefore(ta float64, a model.NodeID, tb float64, b model.NodeID) bool {
	return ta < tb || (ta == tb && a > b)
}

// evict enforces the configured caps by dropping oldest-snapshot entries
// (never the command center's).
func (c *Cache) evict() {
	for c.over(len(c.entries), c.bytes) {
		victim := model.NodeID(0)
		found := false
		var oldest float64
		for node, e := range c.entries {
			if node.IsCommandCenter() {
				continue
			}
			if !found || evictsBefore(e.Timestamp, node, oldest, victim) {
				victim, oldest, found = node, e.Timestamp, true
			}
		}
		if !found {
			return // only the command center left; nothing evictable
		}
		c.delEntry(victim)
	}
}

// Changes reports whether Put(e) would change the cache: its entries or its
// byte account. It is false when e is the owner's own entry; when e is not
// newer than the cached entry of its node; when e is a command-center
// snapshot whose merge adds no photo, no newer timestamp, and neither
// reorders nor deduplicates the cached list; and when e is a new entry
// that eviction would drop again at once. Put starts by asking it, so the
// two cannot disagree.
func (c *Cache) Changes(e Entry) bool {
	if e.Node == c.owner {
		return false // a node does not cache itself
	}
	old, ok := c.entries[e.Node]
	switch {
	case !ok:
		return !c.evictsOnArrival(e)
	case e.Node.IsCommandCenter():
		return ccMergeChanges(old, e)
	default:
		return e.Timestamp > old.Timestamp
	}
}

// evictsOnArrival reports whether storing a new entry e would break a cap
// and make e itself the first eviction victim, leaving the cache as it was.
func (c *Cache) evictsOnArrival(e Entry) bool {
	if e.Node.IsCommandCenter() || !c.over(len(c.entries)+1, c.bytes+entrySize(e)) {
		return false
	}
	for node, o := range c.entries {
		if !node.IsCommandCenter() && !evictsBefore(e.Timestamp, e.Node, o.Timestamp, node) {
			return false
		}
	}
	return true
}

// ccMergeChanges reports whether merging command-center snapshot e into
// the cached one changes it. The merge zeroes λ and p, keeps the later
// timestamp, and unions the lists, so it changes nothing only when the
// cached entry already has zero λ and p and the later timestamp, lists
// distinct IDs, and holds every ID of e.
func ccMergeChanges(old, e Entry) bool {
	if old.Lambda != 0 || old.P != 0 ||
		math.Float64bits(math.Max(old.Timestamp, e.Timestamp)) != math.Float64bits(old.Timestamp) {
		return true
	}
	held := make(map[model.PhotoID]bool, len(old.Photos))
	for _, p := range old.Photos {
		if held[p.ID] {
			return true // the merge would deduplicate the cached list
		}
		held[p.ID] = true
	}
	for _, p := range e.Photos {
		if !held[p.ID] {
			return true
		}
	}
	return false
}

// Put stores a snapshot, keeping the newer of the existing and incoming
// entries. Command-center entries are merged by union (the command center
// never drops photos, so any two snapshots of it are consistent). Put
// takes ownership of e.Photos: the cache may keep the list and share it
// with clones, so the caller must not modify it afterwards.
func (c *Cache) Put(e Entry) {
	if !c.Changes(e) {
		return
	}
	if old, ok := c.entries[e.Node]; ok && e.Node.IsCommandCenter() {
		e = Entry{
			Node:      model.CommandCenter,
			Photos:    ccUnion(old.Photos, e.Photos),
			Timestamp: math.Max(old.Timestamp, e.Timestamp),
		}
	}
	c.setEntry(e)
	c.evict()
}

// ccUnion unions two command-center photo lists: a's photos, then b's,
// each ID once. When the union is a itself (a lists distinct IDs and b
// adds none) it returns a, shared; otherwise a fresh list, so a shared
// backing array is never written even when it has spare capacity.
func ccUnion(a, b model.PhotoList) model.PhotoList {
	seen := make(map[model.PhotoID]bool, len(a)+len(b))
	out := make(model.PhotoList, 0, len(a)+len(b))
	add := func(l model.PhotoList) {
		for _, p := range l {
			if !seen[p.ID] {
				seen[p.ID] = true
				out = append(out, p)
			}
		}
	}
	add(a)
	distinct := len(out) == len(a)
	add(b)
	if distinct && len(out) == len(a) {
		return a
	}
	return out
}

// Clone returns a copy of the cache: same owner, threshold, limits, and
// entries. The immutable photo lists are shared, not copied; no mutation
// of either cache is visible in the other.
func (c *Cache) Clone() *Cache {
	out := *c
	out.entries = maps.Clone(c.entries)
	return &out
}

// Get returns the cached entry for a node, valid or not.
func (c *Cache) Get(node model.NodeID) (Entry, bool) {
	e, ok := c.entries[node]
	return e, ok
}

// Remove drops the entry for a node.
func (c *Cache) Remove(node model.NodeID) { c.delEntry(node) }

// IsValid applies eq. (1): an entry is valid while its staleness probability
// is at most P_thld. Command-center entries are always valid.
func (c *Cache) IsValid(e Entry, now float64) bool {
	if e.Node.IsCommandCenter() {
		return true
	}
	return e.StaleProb(now) <= c.pthld
}

// DropInvalid removes every stale entry and returns how many were dropped.
func (c *Cache) DropInvalid(now float64) int {
	dropped := 0
	for node, e := range c.entries {
		if !c.IsValid(e, now) {
			c.delEntry(node)
			dropped++
		}
	}
	return dropped
}

// Entries returns every cached entry — valid or stale — sorted by node ID.
// It is the snapshot surface for durable peers: a restart must restore the
// cache exactly, and what is stale is for IsValid to decide at use time.
func (c *Cache) Entries() []Entry {
	out := make([]Entry, 0, len(c.entries))
	for _, e := range c.entries {
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Node < out[j].Node })
	return out
}

// ValidEntries returns the currently valid entries sorted by node ID
// (deterministic order for the selection algorithm).
func (c *Cache) ValidEntries(now float64) []Entry {
	out := make([]Entry, 0, len(c.entries))
	for _, e := range c.entries {
		if c.IsValid(e, now) {
			out = append(out, e)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Node < out[j].Node })
	return out
}

// MergeFrom gossips another cache into this one: every entry of other is
// Put into c, sharing its photo list. This propagates command-center
// acknowledgements (and third-party snapshots) through the DTN.
func (c *Cache) MergeFrom(other *Cache) {
	if other == nil {
		return
	}
	for _, e := range other.entries {
		c.Put(e)
	}
}

// Delivered returns the set of photo IDs known to have reached the command
// center — the acknowledgement view of §III-B.
func (c *Cache) Delivered() map[model.PhotoID]bool {
	e, ok := c.entries[model.CommandCenter]
	if !ok {
		return nil
	}
	out := make(map[model.PhotoID]bool, len(e.Photos))
	for _, p := range e.Photos {
		out[p.ID] = true
	}
	return out
}
