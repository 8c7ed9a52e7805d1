package peer

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"sort"

	"photodtn/internal/guard"
	"photodtn/internal/metadata"
	"photodtn/internal/model"
	fsm "photodtn/internal/peer/session"
	"photodtn/internal/selection"
	"photodtn/internal/transfer"
	"photodtn/internal/wire"
)

// ErrConflict reports that a session's commit lost a race with a concurrent
// commit it could not be reconciled with (the re-planned collection no
// longer fits). The contact aborts gracefully per §III-D — no partial state
// — and the next contact re-plans against the fresh state.
var ErrConflict = errors.New("peer: concurrent commit conflict")

// session is one contact's private state. It is created under the peer
// lock (beginSession) with a private clone of the protocol state and a few
// scalars, then runs the whole wire exchange without any peer lock: every
// protocol decision — metadata validity, the joint selection, transfer
// want-lists — reads and writes the clone. Mutations are double-entry: each
// one is applied to the clone AND recorded as a framed op (the same framing
// the journal replays), so that commit can re-apply the identical ops to
// the shared state under the lock. Live commit and crash recovery are the
// same code path by construction, which is what keeps StateDigest
// convergent under concurrency.
type session struct {
	p  *Peer
	st peerState // private clones; all protocol reads/writes go here

	now     float64 // peer clock at snapshot time
	nonce   uint64  // hello nonce, drawn under the peer lock
	baseGen uint64  // p.storeGen at snapshot time
	baseIDs map[model.PhotoID]bool

	ops       []byte // framed sub-records, applied locally as recorded
	storeOps  bool   // ops touch the photo store (commit bumps storeGen)
	committed bool   // commit already ran (mid-protocol commit points)

	// Transfer state: the negotiated connection and, when resume is off
	// (or a photo fits one chunk), a contact-local scratch reassembly store
	// whose leftovers are discarded — and counted as wasted — at teardown.
	wc         *wire.Conn
	localFrags *transfer.Store

	// Protocol state machine (always on) and guard bookkeeping. remote is
	// known once the hello exchange names the peer; gc is the byte-metering
	// wrapper installed when the guard is armed.
	fsm         *fsm.Machine
	remote      model.NodeID
	remoteKnown bool
	gc          *guardConn
}

// beginSession snapshots the peer under the lock: state clones, the clock,
// the nonce, and the store generation the conflict check validates against.
func (p *Peer) beginSession() (*session, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.journalErr != nil {
		return nil, p.journalErr
	}
	p.cContacts.Inc()
	s := &session{
		p:       p,
		st:      p.peerState.clone(),
		now:     p.clock(),
		nonce:   p.rng.Uint64(),
		baseGen: p.storeGen,
		baseIDs: make(map[model.PhotoID]bool, p.store.Len()),
		fsm:     fsm.NewMachine(),
	}
	for _, photo := range p.store.Photos() {
		s.baseIDs[photo.ID] = true
	}
	return s, nil
}

// to advances the protocol state machine. Transitions are driven by local
// code in fixed order, so a failure here is a sequencing bug, not remote
// misbehaviour — it aborts with ErrProtocol but reports nothing.
func (s *session) to(next fsm.Phase) error {
	if err := s.fsm.To(next); err != nil {
		return fmt.Errorf("%w: %w", ErrProtocol, err)
	}
	return nil
}

// enterTransfer advances to the contact's next transfer leg.
func (s *session) enterTransfer() error {
	ph, err := s.fsm.TransferPhase()
	if err != nil {
		return fmt.Errorf("%w: %w", ErrProtocol, err)
	}
	return s.to(ph)
}

// readMsg reads one frame and admits its type against the current protocol
// phase: an out-of-order, duplicate, or phase-invalid message is a typed
// violation the guard scores, and the contact aborts cleanly.
func (s *session) readMsg() (wire.Message, error) {
	msg, err := s.wc.Read()
	if err != nil {
		return nil, err
	}
	if err := s.fsm.Admit(msg.Type()); err != nil {
		return nil, s.violationf(guard.ReasonPhase, "%v", err)
	}
	return msg, nil
}

// readIn reads one phase-admitted message and asserts its concrete type; a
// mismatch within the phase's allowed set is still a violation (the remote
// broke the round's turn order).
func readIn[M wire.Message](s *session) (M, error) {
	var zero M
	msg, err := s.readMsg()
	if err != nil {
		return zero, err
	}
	m, ok := msg.(M)
	if !ok {
		return zero, s.violationf(guard.ReasonPhase, "got %v, want %v", msg.Type(), zero.Type())
	}
	return m, nil
}

// record applies one op to the session's private state and appends it to
// the op log the commit will replay against the shared state. The apply
// happens now — later protocol steps must see earlier mutations exactly as
// the serialised protocol did.
func (s *session) record(kind byte, payload []byte) error {
	if err := s.st.apply(kind, payload); err != nil {
		return err
	}
	s.ops = append(s.ops, kind)
	s.ops = binary.LittleEndian.AppendUint32(s.ops, uint32(len(payload)))
	s.ops = append(s.ops, payload...)
	if kind == subStoreReplace || kind == subStoreAdd {
		s.storeOps = true
	}
	return nil
}

// commit validates the session against the live state and applies its op
// log in one short critical section: conflict reconciliation, the single
// journal append (the WAL stays single-writer — every Append happens here,
// under the peer lock), then the in-memory apply of the exact bytes that
// were journaled. Memory never leads disk.
func (s *session) commit() error {
	p := s.p
	p.mu.Lock()
	defer p.mu.Unlock()
	if s.committed {
		return nil
	}
	if p.journalErr != nil {
		return p.journalErr
	}
	ops, err := s.reconcileLocked()
	if err != nil {
		return err
	}
	if p.jnl != nil {
		if err := p.jnl.Append(recContactCommit, ops); err != nil {
			p.journalErr = fmt.Errorf("%w: commit contact: %w", ErrJournal, err)
			return p.journalErr
		}
	}
	if err := p.peerState.applyOps(ops); err != nil {
		// Reconciliation validated every op against the live state, so this
		// is unreachable short of a bug. For a durable peer the record is
		// already on disk — poison so memory never silently lags it.
		err = fmt.Errorf("apply commit: %w", err)
		if p.jnl != nil {
			p.journalErr = fmt.Errorf("%w: %w", ErrJournal, err)
			err = p.journalErr
		}
		return err
	}
	if s.storeOps {
		p.storeGen++
	}
	s.committed = true
	// Settle the reassembly store before any checkpoint: partials whose
	// photo this commit admitted or learned was delivered are dropped (and
	// the drops journaled) so neither the log nor a snapshot carries them.
	if err := p.reconcileFragsLocked(); err != nil {
		return err
	}
	return p.noteCommitLocked()
}

// reconcileLocked returns the op batch to commit. The fast path — no
// concurrent commit touched the store since the snapshot — passes the log
// through untouched. Otherwise each store op is validated against the live
// state: duplicate adds are dropped (a racing relay delivered the photo
// first), adds that no longer fit abort, and a reallocation's ReplaceAll is
// re-planned (see replanReplace) or aborted.
func (s *session) reconcileLocked() ([]byte, error) {
	p := s.p
	if !s.storeOps || p.storeGen == s.baseGen {
		return s.ops, nil
	}
	p.cConflicts.Inc()
	out := make([]byte, 0, len(s.ops))
	addFree := p.store.Free()
	buf := s.ops
	for len(buf) > 0 {
		if len(buf) < 5 {
			return nil, fmt.Errorf("malformed session op log: %d trailing bytes", len(buf))
		}
		n := binary.LittleEndian.Uint32(buf[1:])
		if uint64(len(buf)) < 5+uint64(n) {
			return nil, fmt.Errorf("malformed session op %d: claims %d bytes, has %d", buf[0], n, len(buf)-5)
		}
		frame := buf[:5+n]
		kind, payload := frame[0], frame[5:]
		buf = buf[5+n:]
		switch kind {
		case subStoreAdd:
			photo, _, err := model.DecodePhoto(payload)
			if err != nil {
				return nil, err
			}
			if p.store.Has(photo.ID) {
				continue // already here via a concurrent commit: drop the duplicate
			}
			if photo.Size > addFree {
				return nil, fmt.Errorf("%w: concurrent commits left no room for photo %v", ErrConflict, photo.ID)
			}
			addFree -= photo.Size
			out = append(out, frame...)
		case subStoreReplace:
			final, _, err := model.DecodePhotoList(payload)
			if err != nil {
				return nil, err
			}
			merged, err := s.replanReplace(final)
			if err != nil {
				return nil, err
			}
			pl := merged.AppendBinary(nil)
			out = append(out, subStoreReplace)
			out = binary.LittleEndian.AppendUint32(out, uint32(len(pl)))
			out = append(out, pl...)
		default:
			out = append(out, frame...)
		}
	}
	return out, nil
}

// replanReplace merges a §III-D reallocation computed against a stale
// snapshot with what concurrent commits did meanwhile: photos that arrived
// since the snapshot are kept (the plan never judged them), photos the plan
// kept but a concurrent commit removed stay gone (they were delivered or
// moved), and the merge aborts with ErrConflict when it no longer fits the
// capacity.
func (s *session) replanReplace(final model.PhotoList) (model.PhotoList, error) {
	p := s.p
	merged := make(model.PhotoList, 0, len(final))
	var total int64
	inFinal := make(map[model.PhotoID]bool, len(final))
	for _, photo := range final {
		inFinal[photo.ID] = true
		if s.baseIDs[photo.ID] && !p.store.Has(photo.ID) {
			continue // concurrently removed: it was delivered or moved on
		}
		merged = append(merged, photo)
		total += photo.Size
	}
	for _, photo := range p.store.Photos() {
		if s.baseIDs[photo.ID] || inFinal[photo.ID] {
			continue
		}
		merged = append(merged, photo) // arrived mid-session: keep it
		total += photo.Size
	}
	if total > p.store.Capacity() {
		return nil, fmt.Errorf("%w: re-planned collection needs %d bytes, capacity %d",
			ErrConflict, total, p.store.Capacity())
	}
	return merged, nil
}

// run executes the wire protocol of one contact against the session's
// snapshot. It is the serialised contactSession of earlier revisions with
// every peer-state access redirected to the clone.
func (s *session) run(conn io.ReadWriter, initiator bool) error {
	p := s.p
	now := s.now

	mine := wire.Hello{
		Node:         p.id,
		Lambda:       s.st.rate.Rate(now),
		DeliveryProb: s.deliveryProb(now),
		Time:         now,
		Nonce:        s.nonce,
		Capacity:     s.st.store.Capacity(),
	}
	wc, theirs, err := wire.Negotiate(conn, mine, p.transfer.wireParams(), initiator)
	if err != nil {
		if errors.Is(err, wire.ErrHandshake) {
			return fmt.Errorf("%w: %w", ErrProtocol, err)
		}
		return err
	}
	s.wc = wc
	s.remote, s.remoteKnown = theirs.Node, true
	if s.gc != nil {
		s.gc.bind(theirs.Node)
	}
	// Guard admission and hello validation happen before the encounter is
	// recorded: a shed or lying peer must not influence the PROPHET table
	// or the learned contact rate, even on the session's private clone.
	if p.guard != nil {
		if err := p.guard.AdmitContact(theirs.Node, p.clock()); err != nil {
			return wrapAdmitErr(err)
		}
		if v := p.guardCfg.CheckHello(theirs, now); v != nil {
			return s.violation(v)
		}
	}
	// Use a shared session clock so both sides make identical validity and
	// selection decisions.
	session := math.Max(mine.Time, theirs.Time)

	// Rate observation + PROPHET encounter + transitivity toward the
	// command center with the advertised predictability.
	if err := s.record(subEncounter, encodeEncounter(theirs.Node, now, theirs.DeliveryProb)); err != nil {
		return err
	}

	// Metadata exchange: own collection first, then gossiped cache entries.
	// Strict turn-taking (initiator writes first) keeps the protocol
	// deadlock-free even over unbuffered transports.
	if err := s.to(fsm.PhaseMetadata); err != nil {
		return err
	}
	var md wire.Metadata
	if initiator {
		if err := s.wc.Write(s.metadataMsg(session)); err != nil {
			return err
		}
		m, err := readIn[wire.Metadata](s)
		if err != nil {
			return err
		}
		if err := s.checkMetadata(m, session); err != nil {
			return err
		}
		md = m
	} else {
		m, err := readIn[wire.Metadata](s)
		if err != nil {
			return err
		}
		// Validate before answering: a poisoned snapshot is not worth the
		// bandwidth of this node's own metadata.
		if err := s.checkMetadata(m, session); err != nil {
			return err
		}
		if err := s.wc.Write(s.metadataMsg(session)); err != nil {
			return err
		}
		md = m
	}
	peerPhotos, err := s.absorbMetadata(theirs, md, session)
	if err != nil {
		return err
	}

	switch {
	case theirs.Node.IsCommandCenter():
		return s.upload(session)
	case p.id.IsCommandCenter():
		return s.receiveUpload()
	default:
		return s.reallocate(initiator, mine, theirs, peerPhotos, session)
	}
}

func (s *session) deliveryProb(now float64) float64 {
	if s.p.id.IsCommandCenter() {
		return 1
	}
	return s.st.table.DeliveryProb(now)
}

// metadataMsg builds the metadata message: self entry first, then the
// valid cache entries.
func (s *session) metadataMsg(session float64) wire.Metadata {
	md := wire.Metadata{Entries: []wire.MetaEntry{{
		Node:      s.p.id,
		Lambda:    s.st.rate.Rate(session),
		P:         s.deliveryProb(session),
		Timestamp: session,
		Photos:    s.st.store.List(),
	}}}
	for _, e := range s.st.cache.ValidEntries(session) {
		md.Entries = append(md.Entries, wire.MetaEntry{
			Node: e.Node, Lambda: e.Lambda, P: e.P, Timestamp: e.Timestamp, Photos: e.Photos,
		})
	}
	return md
}

// checkMetadata validates an inbound metadata message (guard only). It runs
// before this node answers with its own metadata and before any entry
// touches even the session clone: poisoned metadata aborts the contact with
// nothing applied and nothing spent.
func (s *session) checkMetadata(md wire.Metadata, session float64) error {
	if s.p.guard == nil {
		return nil
	}
	if v := s.p.guardCfg.CheckMetadata(md, session); v != nil {
		return s.violation(v)
	}
	return nil
}

// absorbMetadata stores the peer's snapshot and gossip, returning the
// peer's own collection. An entry that would leave the session's cache
// unchanged is not recorded: it costs the commit and the journal nothing.
func (s *session) absorbMetadata(h wire.Hello, md wire.Metadata, session float64) (model.PhotoList, error) {
	var peerPhotos model.PhotoList
	var buf []byte // record copies its payload, so one encoding buffer serves every entry
	for i, e := range md.Entries {
		if i == 0 && e.Node == h.Node {
			peerPhotos = e.Photos
			e.Timestamp = session
		}
		if !s.st.cache.Changes(metadata.Entry{
			Node: e.Node, Lambda: e.Lambda, P: e.P, Timestamp: e.Timestamp, Photos: e.Photos,
		}) {
			continue
		}
		buf = wire.AppendMetaEntry(buf[:0], e)
		if err := s.record(subMetaPut, buf); err != nil {
			return nil, err
		}
	}
	if err := s.record(subMetaDrop, encodeMetaDrop(session)); err != nil {
		return nil, err
	}
	return peerPhotos, nil
}

// reallocate runs the §III-D exchange with a fellow participant.
func (s *session) reallocate(initiator bool, mine, theirs wire.Hello, peerPhotos model.PhotoList, session float64) error {
	p := s.p
	selCfg := p.selCfg
	selCfg.Seed = int64(mine.Nonce ^ theirs.Nonce)

	var ccPhotos model.PhotoList
	var background []selection.Participant
	for _, e := range s.st.cache.ValidEntries(session) {
		switch {
		case e.Node.IsCommandCenter():
			ccPhotos = e.Photos
		case e.Node == p.id || e.Node == theirs.Node:
			// The live collections are already in the allocs.
		default:
			background = append(background, selection.Participant{Node: e.Node, Photos: e.Photos, P: e.P})
		}
	}

	// Both sides order the allocs identically (initiator first) so the
	// jointly-seeded greedy is bit-for-bit reproducible.
	myAlloc := selection.Alloc{Node: p.id, P: mine.DeliveryProb, Capacity: s.st.store.Capacity(), Photos: s.st.store.List()}
	peerAlloc := selection.Alloc{Node: theirs.Node, P: theirs.DeliveryProb, Capacity: theirs.Capacity, Photos: peerPhotos}
	var res selection.Result
	var mySel model.PhotoList
	if initiator {
		res = selection.Reallocate(p.fpc, selCfg, ccPhotos, background, myAlloc, peerAlloc)
		mySel = res.ASel
	} else {
		res = selection.Reallocate(p.fpc, selCfg, ccPhotos, background, peerAlloc, myAlloc)
		mySel = res.BSel
	}

	// Request the selected photos this node lacks. The request is followed
	// by a resume offer: the partial progress this node already holds for
	// the photos it wants, so the sender skips chunks that landed in an
	// earlier contact.
	var want []model.PhotoID
	for _, photo := range mySel {
		if !s.st.store.Has(photo.ID) {
			want = append(want, photo.ID)
		}
	}
	if err := s.to(fsm.PhasePlan); err != nil {
		return err
	}
	if initiator {
		if err := s.wc.Write(wire.PhotoRequest{IDs: want}); err != nil {
			return err
		}
		if err := s.sendOffer(want); err != nil {
			return err
		}
		theirReq, err := readIn[wire.PhotoRequest](s)
		if err != nil {
			return err
		}
		theirOffer, err := s.readOffer(theirReq.IDs)
		if err != nil {
			return err
		}
		if err := s.sendChunks(theirReq.IDs, theirOffer); err != nil {
			return err
		}
		received, err := s.receiveChunks(want)
		if err != nil {
			return err
		}
		return s.applyPlan(mySel, received, true)
	}
	theirReq, err := readIn[wire.PhotoRequest](s)
	if err != nil {
		return err
	}
	theirOffer, err := s.readOffer(theirReq.IDs)
	if err != nil {
		return err
	}
	if err := s.wc.Write(wire.PhotoRequest{IDs: want}); err != nil {
		return err
	}
	if err := s.sendOffer(want); err != nil {
		return err
	}
	received, err := s.receiveChunks(want)
	if err != nil {
		return err
	}
	if err := s.sendChunks(theirReq.IDs, theirOffer); err != nil {
		return err
	}
	return s.applyPlan(mySel, received, false)
}

// applyPlan replaces the collection with the selection (kept ∪ received)
// and closes the contact. The responder commits before sending its final
// Bye: the initiator then only commits after seeing proof the responder's
// half of the reallocation is durable, which keeps a commit conflict on
// either side from splitting the exchange (the side that aborts does so
// before the other applies anything).
func (s *session) applyPlan(sel model.PhotoList, received map[model.PhotoID]model.Photo, initiator bool) error {
	final := make(model.PhotoList, 0, len(sel))
	for _, photo := range sel {
		if s.st.store.Has(photo.ID) {
			final = append(final, photo)
		} else if got, ok := received[photo.ID]; ok {
			final = append(final, got)
		}
	}
	if err := s.record(subStoreReplace, final.AppendBinary(nil)); err != nil {
		return fmt.Errorf("peer %v: apply plan: %w", s.p.id, err)
	}
	if err := s.to(fsm.PhaseClose); err != nil {
		return err
	}
	if initiator {
		if err := s.wc.Write(wire.Bye{}); err != nil {
			return err
		}
		_, err := readIn[wire.Bye](s)
		return err
	}
	if _, err := readIn[wire.Bye](s); err != nil {
		return err
	}
	if err := s.commit(); err != nil {
		return err
	}
	return s.wc.Write(wire.Bye{})
}

// upload sends the command center the photos that improve its coverage, in
// marginal-gain order, then frees the delivered copies. The send is
// preceded by an announce/offer exchange: the uploader lists what it will
// send and the command center answers with the chunk progress it already
// holds from earlier contacts.
func (s *session) upload(session float64) error {
	ccEntry, _ := s.st.cache.Get(model.CommandCenter)
	// The command center's own snapshot (just absorbed, authoritative) is a
	// delivery acknowledgement (§III-B): any held photo it lists already
	// arrived — through another relay, or in a contact whose ack this node
	// lost to a crash — so purge it instead of re-reporting it.
	if purged := s.deliveredHeld(ccEntry.Photos); len(purged) > 0 {
		if err := s.record(subAckDelivered, encodeAckDelivered(session, purged)); err != nil {
			return err
		}
		s.storeOps = true
	}
	plan := selection.SelectForUpload(s.p.fpc, s.p.selCfg, ccEntry.Photos, s.st.store.List())
	var ids []model.PhotoID
	for _, photo := range plan {
		ids = append(ids, photo.ID)
	}
	if err := s.to(fsm.PhasePlan); err != nil {
		return err
	}
	if err := s.wc.Write(wire.PhotoRequest{IDs: ids}); err != nil {
		return err
	}
	offers, err := s.readOffer(ids)
	if err != nil {
		return err
	}
	if err := s.sendChunks(ids, offers); err != nil {
		return err
	}
	ack, err := readIn[wire.Ack](s)
	if err != nil {
		return err
	}
	// Fold the acknowledgement in: acked photos leave the store and join
	// the command-center cache entry.
	acked := model.PhotoList{}
	for _, id := range ack.IDs {
		if photo, ok := s.st.store.Get(id); ok {
			acked = append(acked, photo)
		}
	}
	if err := s.record(subAckDelivered, encodeAckDelivered(session, acked)); err != nil {
		return err
	}
	s.storeOps = s.storeOps || len(acked) > 0
	if err := s.to(fsm.PhaseClose); err != nil {
		return err
	}
	if _, err := readIn[wire.Bye](s); err != nil {
		return err
	}
	return s.wc.Write(wire.Bye{})
}

// deliveredHeld returns the held photos that appear in the delivered list.
func (s *session) deliveredHeld(delivered model.PhotoList) model.PhotoList {
	var purged model.PhotoList
	for _, photo := range s.st.store.Photos() {
		if delivered.Contains(photo.ID) {
			purged = append(purged, photo)
		}
	}
	return purged
}

// receiveUpload is the command-center side of an upload. The commit happens
// before the Ack goes out: an acknowledgement the uploader will act on
// (freeing its copies) must refer to photos this node can no longer forget.
func (s *session) receiveUpload() error {
	if err := s.to(fsm.PhasePlan); err != nil {
		return err
	}
	ann, err := readIn[wire.PhotoRequest](s)
	if err != nil {
		return err
	}
	if err := s.sendOffer(ann.IDs); err != nil {
		return err
	}
	received, err := s.receiveChunks(ann.IDs)
	if err != nil {
		return err
	}
	ids := make([]model.PhotoID, 0, len(received))
	for id := range received {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		if !s.st.store.Has(id) {
			if err := s.record(subStoreAdd, received[id].AppendBinary(nil)); err != nil {
				return fmt.Errorf("peer %v: store upload: %w", s.p.id, err)
			}
		}
	}
	if err := s.commit(); err != nil {
		return err
	}
	if err := s.to(fsm.PhaseClose); err != nil {
		return err
	}
	if err := s.wc.Write(wire.Ack{IDs: ids}); err != nil {
		return err
	}
	if err := s.wc.Write(wire.Bye{}); err != nil {
		return err
	}
	_, err = readIn[wire.Bye](s)
	return err
}
