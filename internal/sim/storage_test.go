package sim

import (
	"errors"
	"math/rand"
	"testing"

	"photodtn/internal/model"
)

func photoN(owner model.NodeID, seq uint32, size int64) model.Photo {
	return model.Photo{
		ID: model.MakePhotoID(owner, seq), Owner: owner,
		Range: 100, FOV: 1, Size: size,
	}
}

func TestStorageAddRemove(t *testing.T) {
	st := NewStorage(10)
	p := photoN(1, 0, 4)
	if err := st.Add(p); err != nil {
		t.Fatal(err)
	}
	if !st.Has(p.ID) || st.Used() != 4 || st.Free() != 6 || st.Len() != 1 {
		t.Fatalf("state after add: used=%d free=%d len=%d", st.Used(), st.Free(), st.Len())
	}
	got, ok := st.Get(p.ID)
	if !ok || got.ID != p.ID {
		t.Fatal("Get failed")
	}
	st.Remove(p.ID)
	if st.Has(p.ID) || st.Used() != 0 {
		t.Fatal("Remove failed")
	}
	st.Remove(p.ID) // no-op
}

func TestStorageNoSpace(t *testing.T) {
	st := NewStorage(10)
	if err := st.Add(photoN(1, 0, 8)); err != nil {
		t.Fatal(err)
	}
	err := st.Add(photoN(1, 1, 4))
	if !errors.Is(err, ErrNoSpace) {
		t.Fatalf("err = %v, want ErrNoSpace", err)
	}
	if st.Len() != 1 {
		t.Fatal("failed add changed state")
	}
}

func TestStorageDuplicate(t *testing.T) {
	st := NewStorage(100)
	p := photoN(1, 0, 4)
	if err := st.Add(p); err != nil {
		t.Fatal(err)
	}
	if err := st.Add(p); !errors.Is(err, ErrDuplicate) {
		t.Fatalf("err = %v, want ErrDuplicate", err)
	}
	if st.Used() != 4 {
		t.Fatal("duplicate add changed used bytes")
	}
}

func TestStorageCopies(t *testing.T) {
	st := NewStorage(100)
	p := photoN(1, 0, 4)
	if st.Copies(p.ID) != 0 {
		t.Fatal("copies of absent photo should be 0")
	}
	st.SetCopies(p.ID, 4) // not stored: ignored
	if st.Copies(p.ID) != 0 {
		t.Fatal("SetCopies on absent photo should be ignored")
	}
	_ = st.Add(p)
	st.SetCopies(p.ID, 4)
	if st.Copies(p.ID) != 4 {
		t.Fatal("SetCopies failed")
	}
	st.Remove(p.ID)
	if st.Copies(p.ID) != 0 {
		t.Fatal("copies not cleared on remove")
	}
}

func TestStorageListFIFO(t *testing.T) {
	st := NewStorage(100)
	for i := uint32(0); i < 5; i++ {
		_ = st.Add(photoN(1, 4-i, 4)) // insert in reverse ID order
	}
	list := st.List()
	if len(list) != 5 {
		t.Fatalf("len = %d", len(list))
	}
	for i := range list {
		if list[i].ID.Seq() != uint32(4-i) {
			t.Fatalf("FIFO order broken: %v", list.IDs())
		}
	}
}

func TestStorageReplaceAll(t *testing.T) {
	st := NewStorage(12)
	_ = st.Add(photoN(1, 0, 4))
	_ = st.Add(photoN(1, 1, 4))
	repl := model.PhotoList{photoN(2, 0, 4), photoN(2, 1, 4), photoN(2, 2, 4)}
	if err := st.ReplaceAll(repl); err != nil {
		t.Fatal(err)
	}
	if st.Len() != 3 || st.Used() != 12 || st.Has(model.MakePhotoID(1, 0)) {
		t.Fatalf("ReplaceAll state wrong: len=%d used=%d", st.Len(), st.Used())
	}
}

func TestStorageReplaceAllTooBig(t *testing.T) {
	st := NewStorage(8)
	_ = st.Add(photoN(1, 0, 4))
	err := st.ReplaceAll(model.PhotoList{photoN(2, 0, 4), photoN(2, 1, 8)})
	if !errors.Is(err, ErrNoSpace) {
		t.Fatalf("err = %v", err)
	}
	if !st.Has(model.MakePhotoID(1, 0)) {
		t.Fatal("failed ReplaceAll mutated storage")
	}
}

func TestStorageReplaceAllDedupes(t *testing.T) {
	st := NewStorage(8)
	p := photoN(1, 0, 4)
	if err := st.ReplaceAll(model.PhotoList{p, p, p}); err != nil {
		t.Fatal(err)
	}
	if st.Len() != 1 || st.Used() != 4 {
		t.Fatalf("dedup failed: len=%d used=%d", st.Len(), st.Used())
	}
}

// Regression: ReplaceAll rebuilt the copies map from scratch, silently
// resetting spray copy counters to zero for every photo the reallocation
// kept. Under a spray-and-wait scheme that made a relay believe it held the
// last copy of a photo it had just split copies for, inflating replication.
func TestStorageReplaceAllPreservesCopies(t *testing.T) {
	st := NewStorage(100)
	a, b, c, d := photoN(1, 0, 4), photoN(1, 1, 4), photoN(1, 2, 4), photoN(2, 0, 4)
	for _, p := range []model.Photo{a, b, c} {
		if err := st.Add(p); err != nil {
			t.Fatal(err)
		}
	}
	st.SetCopies(a.ID, 4)
	st.SetCopies(b.ID, 2)
	st.SetCopies(c.ID, 1)

	// A reallocation keeps b and c, drops a, and brings in d.
	if err := st.ReplaceAll(model.PhotoList{b, c, d}); err != nil {
		t.Fatal(err)
	}
	if got := st.Copies(b.ID); got != 2 {
		t.Fatalf("kept photo b: copies = %d, want 2", got)
	}
	if got := st.Copies(c.ID); got != 1 {
		t.Fatalf("kept photo c: copies = %d, want 1", got)
	}
	if got := st.Copies(d.ID); got != 0 {
		t.Fatalf("new photo d: copies = %d, want 0", got)
	}
	if got := st.Copies(a.ID); got != 0 {
		t.Fatalf("dropped photo a: copies = %d, want 0", got)
	}
}

func TestStorageCloneIndependent(t *testing.T) {
	st := NewStorage(100)
	p := photoN(1, 0, 4)
	for i := uint32(0); i < 4; i++ {
		if err := st.Add(photoN(1, i, 4)); err != nil {
			t.Fatal(err)
		}
	}
	st.SetCopies(p.ID, 3)
	st.Remove(model.MakePhotoID(1, 1)) // leaves a hole

	c := st.Clone()
	if !c.Has(p.ID) || c.Used() != st.Used() || c.Copies(p.ID) != 3 {
		t.Fatalf("clone state differs: used=%d copies=%d", c.Used(), c.Copies(p.ID))
	}
	if len(c.list) != 3 || &c.list[0] == &st.list[0] {
		t.Fatal("clone must hold a fresh, compact slice")
	}
	if err := c.Add(photoN(1, 1, 4)); err != nil {
		t.Fatal(err)
	}
	c.SetCopies(p.ID, 1)
	c.Remove(model.MakePhotoID(1, 2))
	st.Remove(model.MakePhotoID(1, 3))
	if st.Len() != 2 || st.Copies(p.ID) != 3 || st.Has(model.MakePhotoID(1, 1)) || !st.Has(model.MakePhotoID(1, 2)) {
		t.Fatal("mutating the clone leaked into the original")
	}
	if c.Len() != 3 || !c.Has(model.MakePhotoID(1, 3)) {
		t.Fatal("mutating the original leaked into the clone")
	}
}

// fifoModel is the naive storage the property test checks against: a
// plain insertion-ordered list, shifted on every removal.
type fifoModel struct {
	capacity int64
	list     model.PhotoList
	copies   map[model.PhotoID]int
}

func (m *fifoModel) find(id model.PhotoID) int {
	for i, p := range m.list {
		if p.ID == id {
			return i
		}
	}
	return -1
}

func (m *fifoModel) used() (n int64) {
	for _, p := range m.list {
		n += p.Size
	}
	return n
}

func (m *fifoModel) add(p model.Photo) error {
	switch {
	case m.find(p.ID) >= 0:
		return ErrDuplicate
	case p.Size > m.capacity-m.used():
		return ErrNoSpace
	}
	m.list = append(m.list, p)
	return nil
}

func (m *fifoModel) remove(id model.PhotoID) {
	if i := m.find(id); i >= 0 {
		m.list = append(m.list[:i:i], m.list[i+1:]...)
		delete(m.copies, id)
	}
}

func (m *fifoModel) replaceAll(photos model.PhotoList) error {
	var next model.PhotoList
	var total int64
	for _, p := range photos {
		if next.Contains(p.ID) {
			continue
		}
		next = append(next, p)
		total += p.Size
	}
	if total > m.capacity {
		return ErrNoSpace
	}
	copies := make(map[model.PhotoID]int)
	for _, p := range next {
		if n, ok := m.copies[p.ID]; ok {
			copies[p.ID] = n
		}
	}
	m.list, m.copies = next, copies
	return nil
}

func (m *fifoModel) clone() *fifoModel {
	c := &fifoModel{capacity: m.capacity, list: append(model.PhotoList(nil), m.list...),
		copies: make(map[model.PhotoID]int, len(m.copies))}
	for id, n := range m.copies {
		c.copies[id] = n
	}
	return c
}

// checkModel compares a storage with the model without compacting it: the
// live slots, walked in slice order, must be the model's list.
func checkModel(t *testing.T, step int, op string, st *Storage, m *fifoModel, pool model.PhotoList) {
	t.Helper()
	var live model.PhotoList
	for i, p := range st.list {
		if j, ok := st.index[p.ID]; ok && j == i {
			live = append(live, p)
		}
	}
	fail := func(format string, args ...any) {
		t.Helper()
		t.Fatalf("step %d (%s): "+format, append([]any{step, op}, args...)...)
	}
	if len(live) != len(m.list) || len(live) != len(st.index) {
		fail("live slots %v, index %d, model %v", live.IDs(), len(st.index), m.list.IDs())
	}
	for i := range live {
		if live[i] != m.list[i] {
			fail("slot %d holds %v, model %v", i, live[i].ID, m.list[i].ID)
		}
	}
	if len(st.list) > 2*st.Len() {
		fail("%d holes in a list of %d", len(st.list)-st.Len(), len(st.list))
	}
	if st.Len() != len(m.list) || st.Used() != m.used() || st.Free() != m.capacity-m.used() {
		fail("len %d used %d free %d, model len %d used %d", st.Len(), st.Used(), st.Free(), len(m.list), m.used())
	}
	for _, p := range pool {
		i := m.find(p.ID)
		got, ok := st.Get(p.ID)
		if st.Has(p.ID) != (i >= 0) || ok != (i >= 0) || ok && got != m.list[i] {
			fail("photo %v: has %v get %v, model slot %d", p.ID, st.Has(p.ID), ok, i)
		}
		if st.Copies(p.ID) != m.copies[p.ID] {
			fail("photo %v: copies %d, model %d", p.ID, st.Copies(p.ID), m.copies[p.ID])
		}
	}
}

// TestStorageMatchesFIFOModel runs random operation sequences against the
// storage and the naive model and compares them after every step.
func TestStorageMatchesFIFOModel(t *testing.T) {
	var pool model.PhotoList
	for i := uint32(0); i < 12; i++ {
		pool = append(pool, photoN(model.NodeID(1+i%3), i, int64(1+i%5)))
	}
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		st := NewStorage(20)
		m := &fifoModel{capacity: 20, copies: make(map[model.PhotoID]int)}
		pick := func() model.Photo { return pool[rng.Intn(len(pool))] }
		for step := 0; step < 400; step++ {
			var op string
			switch r := rng.Intn(20); {
			case r < 7:
				op = "add"
				p := pick()
				if err, want := st.Add(p), m.add(p); !errors.Is(err, want) || (err == nil) != (want == nil) {
					t.Fatalf("seed %d step %d: Add(%v) = %v, model %v", seed, step, p.ID, err, want)
				}
			case r < 11:
				op = "remove"
				id := pick().ID
				st.Remove(id)
				m.remove(id)
			case r < 13:
				op = "remove tail"
				if len(m.list) > 0 {
					id := m.list[len(m.list)-1].ID
					st.Remove(id)
					m.remove(id)
				}
			case r < 14:
				op = "replace all"
				var photos model.PhotoList
				for n := rng.Intn(6); n > 0; n-- {
					photos = append(photos, pick())
				}
				if err, want := st.ReplaceAll(photos), m.replaceAll(photos); (err == nil) != (want == nil) {
					t.Fatalf("seed %d step %d: ReplaceAll = %v, model %v", seed, step, err, want)
				}
			case r < 15:
				op = "set copies"
				p, n := pick(), rng.Intn(8)
				st.SetCopies(p.ID, n)
				if m.find(p.ID) >= 0 {
					m.copies[p.ID] = n
				}
			case r < 16:
				op = "photos"
				if got := st.Photos(); len(got) != len(m.list) || len(st.list) != st.Len() {
					t.Fatalf("seed %d step %d: Photos kept holes: %d of %d", seed, step, len(st.list), st.Len())
				}
			case r < 17:
				op = "list"
				if got := st.List(); len(got) > 0 {
					got[0].Size = -1 // the copy is the caller's
				}
			default:
				op = "clone"
				c, mc := st.Clone(), m.clone()
				checkModel(t, step, "clone", c, mc, pool)
				for _, p := range pool { // churn the clone; the source must not see it
					c.Remove(p.ID)
					_ = c.Add(p)
					c.SetCopies(p.ID, 99)
				}
				checkModel(t, step, op, st, m, pool)
				if rng.Intn(2) == 0 {
					st = st.Clone() // carry on with a clone
				}
			}
			checkModel(t, step, op, st, m, pool)
		}
	}
}

// TestStorageCompactionThresholds pins when holes are squeezed out: in
// Remove once they outnumber the live slots, and in Add when the slice is
// full, so Add never grows the slice while it has holes. Removing the tail
// slot truncates the slice instead of leaving a hole.
func TestStorageCompactionThresholds(t *testing.T) {
	st := NewStorage(100)
	for i := uint32(0); i < 5; i++ {
		_ = st.Add(photoN(1, i, 1))
	}
	st.Remove(model.MakePhotoID(1, 4))
	if len(st.list) != 4 {
		t.Fatalf("tail removal: list len %d, want 4", len(st.list))
	}
	st.Remove(model.MakePhotoID(1, 0))
	st.Remove(model.MakePhotoID(1, 1))
	if len(st.list) != 4 {
		t.Fatalf("two holes in four slots: list len %d, want 4 (no compaction yet)", len(st.list))
	}
	st.Remove(model.MakePhotoID(1, 2))
	if len(st.list) != 1 || st.list[0].ID != model.MakePhotoID(1, 3) {
		t.Fatalf("three holes in four slots: list %v, want compacted to one", st.list.IDs())
	}

	st = NewStorage(100)
	for i := uint32(0); i < 8; i++ {
		_ = st.Add(photoN(1, i, 1))
	}
	for len(st.list) < cap(st.list) {
		_ = st.Add(photoN(2, uint32(len(st.list)), 1))
	}
	full := cap(st.list)
	st.Remove(model.MakePhotoID(1, 0)) // one hole, under the Remove threshold
	if err := st.Add(photoN(3, 0, 1)); err != nil {
		t.Fatal(err)
	}
	if cap(st.list) != full || len(st.list) != full {
		t.Fatalf("Add at capacity with a hole: len %d cap %d, want both %d", len(st.list), cap(st.list), full)
	}
	if got := st.List(); got[0].ID != model.MakePhotoID(1, 1) || got[len(got)-1].ID != model.MakePhotoID(3, 0) {
		t.Fatalf("compaction broke FIFO order: %v", got.IDs())
	}
}
