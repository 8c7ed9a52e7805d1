package peer

import (
	"encoding/binary"
	"os"
	"path/filepath"
	"testing"

	"photodtn/internal/journal"
	"photodtn/internal/model"
	"photodtn/internal/wire"
)

// repeatContactScenario runs durable peers 1 (journal in dirA) and 2
// (journal in dirB) through a contact pair with nothing changed in
// between. Peer 1 first learns a command-center acknowledgement and a
// third party's snapshot, so the pair's first contact gossips both to
// peer 2. It closes both peers and returns peer 2's state digest.
func repeatContactScenario(t *testing.T, dirA, dirB string) uint64 {
	t.Helper()
	m := poiMap()
	cc := New(model.CommandCenter, m, 0, WithSeed(1), fixedClock(1000))
	c := newTestPeer(t, 3, m, 12*mb)
	a, err := Open(dirA, 1, m, 12*mb, WithSeed(101), fixedClock(1000))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Open(dirB, 2, m, 12*mb, WithSeed(102), fixedClock(1000))
	if err != nil {
		t.Fatal(err)
	}
	add := func(p *Peer, photo model.Photo) {
		t.Helper()
		if err := p.AddPhoto(photo); err != nil {
			t.Fatal(err)
		}
	}
	add(a, viewFrom(1, 0, 0))
	contact(t, a, cc) // uploads photo 0: the ack becomes peer 1's CC entry
	add(a, viewFrom(1, 1, 40))
	add(a, viewFrom(1, 2, 80))
	add(b, viewFrom(2, 0, 120))
	add(b, viewFrom(2, 1, 160))
	add(c, viewFrom(3, 0, 200))
	contact(t, a, c)
	contact(t, a, b)
	contact(t, a, b)
	digest := b.StateDigest()
	for _, p := range []*Peer{a, b} {
		if err := p.Close(); err != nil {
			t.Fatal(err)
		}
	}
	return digest
}

// contactCommits returns the op logs of the contact commits journaled in
// dir, oldest first.
func contactCommits(t *testing.T, dir string) [][]byte {
	t.Helper()
	j, err := journal.Open(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = j.Close() }()
	var out [][]byte
	for _, rec := range j.Records() {
		if rec.Type == recContactCommit {
			out = append(out, rec.Payload)
		}
	}
	return out
}

// metaPuts decodes the subMetaPut entries of one contact op log.
func metaPuts(t *testing.T, ops []byte) []wire.MetaEntry {
	t.Helper()
	var out []wire.MetaEntry
	for len(ops) > 0 {
		kind, n := ops[0], binary.LittleEndian.Uint32(ops[1:])
		payload := ops[5 : 5+n]
		ops = ops[5+n:]
		if kind != subMetaPut {
			continue
		}
		e, _, err := wire.DecodeMetaEntry(payload)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, e)
	}
	return out
}

// TestRepeatContactJournalsNoUnchangedMetadata: a contact journals only
// the metadata that changes the cache. The first contact of the pair
// stores new snapshots on both sides; the second, with nothing changed in
// between, re-sends the same entries and must journal none of them.
func TestRepeatContactJournalsNoUnchangedMetadata(t *testing.T) {
	dirA, dirB := t.TempDir(), t.TempDir()
	repeatContactScenario(t, dirA, dirB)
	for _, side := range []struct {
		name      string
		dir       string
		firstPuts int // snapshots new to the side in the pair's first contact
	}{
		{"initiator", dirA, 1}, // peer 2's own entry
		{"responder", dirB, 3}, // peer 1's own entry, the CC's and peer 3's
	} {
		commits := contactCommits(t, side.dir)
		if len(commits) < 2 {
			t.Fatalf("%s: %d contact commits journaled, want the pair's two", side.name, len(commits))
		}
		first, second := commits[len(commits)-2], commits[len(commits)-1]
		if got := len(metaPuts(t, first)); got != side.firstPuts {
			t.Errorf("%s: first contact journaled %d metadata puts, want %d", side.name, got, side.firstPuts)
		}
		if puts := metaPuts(t, second); len(puts) != 0 {
			nodes := make([]model.NodeID, len(puts))
			for i, e := range puts {
				nodes[i] = e.Node
			}
			t.Errorf("%s: repeat contact journaled metadata puts for nodes %v the cache already held", side.name, nodes)
		}
	}
}

// TestJournalWithNoOpPutsRecovers: journals written before unchanged
// metadata stopped being recorded carry a subMetaPut for every entry of
// every contact. testdata/noop-put-journal is peer 2's journal from
// repeatContactScenario as that version wrote it; replaying it must reach
// the state the current code reaches live.
func TestJournalWithNoOpPutsRecovers(t *testing.T) {
	want := repeatContactScenario(t, t.TempDir(), t.TempDir())

	dir := t.TempDir()
	src := filepath.Join("testdata", "noop-put-journal")
	files, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		buf, err := os.ReadFile(filepath.Join(src, f.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, f.Name()), buf, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	commits := contactCommits(t, dir)
	if len(commits) == 0 || len(metaPuts(t, commits[len(commits)-1])) == 0 {
		t.Fatal("the recorded journal's repeat contact carries no metadata put")
	}

	p, err := Open(dir, 2, poiMap(), 12*mb, WithSeed(102), fixedClock(1000))
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = p.Close() }()
	if got := p.StateDigest(); got != want {
		t.Fatalf("recovered digest %x, live digest %x", got, want)
	}
}
