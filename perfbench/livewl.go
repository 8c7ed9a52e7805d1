package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"syscall"
	"time"

	"photodtn"
)

// tmpfsMagic is the statfs type of a tmpfs mount.
const tmpfsMagic = 0x01021994

// runLive measures the live replay. Each repetition opens fresh durable
// peers in a new state dir, replays the trace through them, checks the
// outcome, reopens every peer from disk, and deletes the dir.
func runLive(o options, in *inputs, ch *checks) (report, error) {
	tmp := filepath.Join(o.work, "tmp")
	if err := os.MkdirAll(tmp, 0o755); err != nil {
		return report{}, fmt.Errorf("make state root: %w", err)
	}
	stateFS := "disk"
	var sfs syscall.Statfs_t
	if err := syscall.Statfs(tmp, &sfs); err == nil && sfs.Type == tmpfsMagic {
		stateFS = "tmpfs"
	}
	var s samples
	var opens []float64
	var wireKB, nContacts, nCaptures float64
	var firstState []uint64
	foreign := 0
	// Two replays at least, so every run compares the peers' states across
	// replays; with --trace 1 the second is the traced one.
	err := measure(o, 2, func(i int) error {
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
		dir, err := os.MkdirTemp(tmp, "live-")
		if err != nil {
			return fmt.Errorf("make state dir: %w", err)
		}
		defer os.RemoveAll(dir)
		t0 := time.Now()
		n, err := openNet(sc, dir, o.seed, tr, ob)
		if err != nil {
			return err
		}
		opens = append(opens, time.Since(t0).Seconds())

		runtime.GC()
		before := memTotals()
		st := n.replay(replayEvents(sc))
		after := memTotals()
		ch.ops(st.ops, st.failed)
		bad := n.contactErrors()
		ch.check(len(bad) == 0, "%s repetition %d: nodes %v recorded contact errors", o.workload, i, bad)

		cc := n.peers[0]
		pt, as := sc.Map.Normalized(cc.Coverage())
		s.agree(o, ch, i, checkDelivered(sc, ch, cc.Photos(), pt, as, o.workload))
		state := n.digests()
		if firstState == nil {
			firstState = state
			if want, ok := references[refKey{o.workload, o.seed, o.spanHours}]; ok {
				ch.check(fnvWords(state) == want.State, "%s seed %d: state digest %016x, recorded %016x",
					o.workload, o.seed, fnvWords(state), want.State)
			}
		}
		for id := range state {
			ch.check(state[id] == firstState[id], "%s repetition %d: node %d state digest %016x, first repetition %016x",
				o.workload, i, id, state[id], firstState[id])
		}
		wireBytes := float64(n.wireBytes.Load())
		foreign += n.foreign
		bad, err = n.reopenCheck(state)
		if err != nil {
			return err
		}
		ch.check(len(bad) == 0, "%s repetition %d: nodes %v recovered another state after reopening", o.workload, i, bad)

		nContacts, nCaptures = float64(len(st.contacts)), float64(len(st.captures))
		if traced {
			s.traced = append(s.traced, tracedRep{liveLayers(st, tr, ob, wireBytes, after, before), tr})
			return nil
		}
		s.add(st.run, after.TotalAlloc-before.TotalAlloc, st.contacts, st.captures)
		wireKB = ratio(wireBytes, nContacts) / 1024
		return nil
	})
	if err != nil {
		return report{}, err
	}
	ch.check(foreign == 0, "%s: %d connections left loopback", o.workload, foreign)
	rep, err := s.report(o, wireKB, map[string]any{
		"contacts_per_run":  nContacts,
		"captures_accepted": nCaptures,
		"state_digest":      fmt.Sprintf("%016x", fnvWords(firstState)),
		"state_dir_fs":      stateFS,
		"traffic":           "loopback",
	})
	if err != nil {
		return report{}, err
	}
	rep.values["setup_s"] = median(opens)
	return rep, nil
}

// liveLayers reads one traced replay's per-layer metrics from its spans
// and the peers' observer.
func liveLayers(st replayStats, tr *tracer, o *photodtn.Observer, wireBytes float64, after, before runtime.MemStats) map[string]float64 {
	type agg struct {
		n     int
		d     time.Duration
		bytes int
	}
	names := map[int]string{}
	for _, s := range tr.spans {
		names[s.ID] = s.Name
	}
	by := map[string]*agg{}
	var commitBytes int
	for _, s := range tr.spans {
		a := by[s.Name]
		if a == nil {
			a = &agg{}
			by[s.Name] = a
		}
		a.n++
		a.d += s.End - s.Start
		a.bytes += s.Bytes
		if s.Name == spanJournalWrite && names[s.Parent] == spanContact {
			commitBytes += s.Bytes
		}
	}
	get := func(name string) agg {
		if a := by[name]; a != nil {
			return *a
		}
		return agg{}
	}
	contacts := float64(len(st.contacts))
	count := func(name string) float64 { return float64(o.Counter(name).Value()) }
	self := tr.selfTimes(st.run)
	v := map[string]float64{
		"peer.add_photo.calls":     float64(get(spanAddPhoto).n),
		"peer.add_photo.rejected":  float64(st.rejected),
		"peer.add_photo.busy_s":    get(spanAddPhoto).d.Seconds(),
		"peer.contact.busy_s":      get(spanDial).d.Seconds(),
		"peer.contact_aborts":      count("peer.contact_aborts"),
		"peer.contact_retries":     count("peer.contact_retries"),
		"peer.commit_conflicts":    count("peer.commit_conflicts"),
		"peer.self_s":              self["peer"],
		"wire.bytes_per_contact":   ratio(wireBytes, contacts),
		"wire.writes_per_contact":  ratio(float64(get(spanWireWrite).n), contacts),
		"wire.read_wait_s":         get(spanWireRead).d.Seconds(),
		"wire.write_s":             get(spanWireWrite).d.Seconds(),
		"wire.self_s":              self["wire"],
		"journal.syncs":            float64(get(spanJournalSync).n),
		"journal.sync_s":           get(spanJournalSync).d.Seconds(),
		"journal.write_s":          get(spanJournalWrite).d.Seconds(),
		"journal.bytes_per_commit": ratio(float64(commitBytes), count("journal.commits")),
		"journal.checkpoints":      count("journal.checkpoints"),
		"journal.self_s":           self["journal"],
		"transfer.chunks_sent":     count("transfer.chunks_sent"),
		"transfer.chunks_received": count("transfer.chunks_received"),
		"transfer.wasted_bytes":    count("transfer.wasted_bytes"),
		"runtime.gc_cycles":        float64(after.NumGC - before.NumGC),
		"runtime.gc_pause_s":       time.Duration(after.PauseTotalNs - before.PauseTotalNs).Seconds(),
		"trace.run_s":              st.run.Seconds(),
		"trace.unattributed_s":     self["unattributed"],
	}
	observerLayers(v, o)
	return v
}
