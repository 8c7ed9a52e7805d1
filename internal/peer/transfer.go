// Chunked, resumable photo transfer — the peer side of the wire protocol.
//
// The sender plans its whole chunk list up front (resume offers and the
// per-contact byte budget are folded in at plan time), then streams it
// behind the negotiated window: up to Window chunks ride unacknowledged
// while a reader goroutine drains the per-chunk acks. Because the plan is
// fixed before the first write, both sides know exactly how many acks the
// stream carries — no speculative reads, no deadlock on synchronous
// transports.
//
// The receiver routes each chunk to a reassembly store: the peer's shared
// cross-contact store when resume is negotiated (fresh chunks hit the
// write-ahead journal first — memory never leads disk), or a contact-local
// scratch store otherwise, whose leftovers are discarded at teardown and
// counted as wasted bytes. A photo is admitted to storage only when its
// final chunk lands and the whole-photo checksum verifies, preserving the
// paper's §III-D photo-level atomicity.
package peer

import (
	"encoding/binary"
	"errors"
	"fmt"

	"photodtn/internal/guard"
	"photodtn/internal/model"
	"photodtn/internal/transfer"
	"photodtn/internal/wire"
)

// fillPayload writes the deterministic synthetic payload of a photo into
// buf: an xorshift keystream keyed by the photo ID, so every holder
// produces bit-identical bytes — the cross-holder consistency that lets a
// transfer started from one relay resume from another with matching
// checksums.
func fillPayload(buf []byte, id model.PhotoID) {
	state := uint64(id)*0x9E3779B97F4A7C15 + 0xD1B54A32D192ED03
	for i := 0; i < len(buf); i += 8 {
		state ^= state << 13
		state ^= state >> 7
		state ^= state << 17
		if len(buf)-i >= 8 {
			binary.LittleEndian.PutUint64(buf[i:], state)
			continue
		}
		for j := i; j < len(buf); j++ {
			buf[j] = byte(state >> (8 * (j - i)))
		}
	}
}

// sendOffer writes this node's resume offer for the photos it is about to
// receive. Sent on every session to keep the exchange in lockstep; the
// offer is empty when resume is off or nothing is partially held.
func (s *session) sendOffer(want []model.PhotoID) error {
	var offer wire.ResumeOffer
	if s.wc.Resume() {
		for _, id := range want {
			if e, ok := s.p.frags.Offer(id); ok {
				offer.Entries = append(offer.Entries, e)
			}
		}
	}
	return s.wc.Write(offer)
}

// readOffer reads the peer's resume offer into a lookup map, pinning it —
// when the guard is armed — to the request that preceded it: an offer may
// only name photos this side just asked the remote to send.
func (s *session) readOffer(requested []model.PhotoID) (map[model.PhotoID]wire.ResumeEntry, error) {
	offer, err := readIn[wire.ResumeOffer](s)
	if err != nil {
		return nil, err
	}
	if s.p.guard != nil {
		asked := make(map[model.PhotoID]bool, len(requested))
		for _, id := range requested {
			asked[id] = true
		}
		if v := s.p.guardCfg.CheckResumeOffer(offer, asked); v != nil {
			return nil, s.violation(v)
		}
	}
	out := make(map[model.PhotoID]wire.ResumeEntry, len(offer.Entries))
	for _, e := range offer.Entries {
		out[e.ID] = e
	}
	return out, nil
}

// sendChunks streams the requested photos as chunks and terminates the
// stream with an Ack naming the photos the receiver can now assemble. A
// resume offer whose geometry matches lets the sender skip the chunks the
// receiver already holds; the per-contact byte budget truncates the plan —
// a photo cut mid-stream is not acked, but with resume on its prefix
// survives at the receiver for the next contact. Every photo shares one
// geometry, so the plan holds no payload: each photo's bytes are
// synthesised into one reused buffer just before its chunks go out.
func (s *session) sendChunks(ids []model.PhotoID, offers map[model.PhotoID]wire.ResumeEntry) error {
	if err := s.enterTransfer(); err != nil {
		return err
	}
	p := s.p
	budget := p.transfer.BudgetBytes
	size, total := s.wc.ChunkSize(), max(p.payload, 0)
	geom := wire.Chunk{Count: uint32(wire.ChunkCount(int64(total), size)), ChunkSize: uint32(size), Total: uint64(total)}
	chunkLen := func(i uint32) int64 { return int64(min(total-int(i)*size, size)) }
	all := make([]uint32, geom.Count)
	for i := range all {
		all[i] = uint32(i)
	}
	var buf []byte
	fill := func(id model.PhotoID) (crc uint32) {
		if buf == nil {
			buf = make([]byte, total)
		}
		fillPayload(buf, id)
		return wire.PayloadCRC(buf)
	}
	var plan []wire.Chunk // Data and PayloadCRC are filled at send time
	var sent []model.PhotoID
	var spent int64
photos:
	for _, id := range ids {
		photo, ok := s.st.store.Get(id)
		if !ok {
			continue
		}
		missing := all
		if e, ok := offers[id]; ok && e.ChunkSize == geom.ChunkSize && e.Count == geom.Count && e.Total == geom.Total {
			if e.PayloadCRC == fill(id) {
				missing = transfer.MissingChunks(e)
				saved := int64(total)
				for _, i := range missing {
					saved -= chunkLen(i)
				}
				if skipped := len(all) - len(missing); skipped > 0 {
					p.tChunksResumed.Add(int64(skipped))
					p.cChunksResumed.Add(int64(skipped))
					p.tResumedBytes.Add(saved)
				}
			}
		}
		c := geom
		c.Photo = photo
		for _, i := range missing {
			if budget > 0 && spent+chunkLen(i) > budget {
				break photos // cut mid-photo: not acked
			}
			c.Index = i
			plan = append(plan, c)
			spent += chunkLen(i)
		}
		sent = append(sent, id)
	}

	// Pipelined send: the plan's length fixes the ack count, so the reader
	// goroutine knows exactly when the stream is drained. The fixed plan
	// also pins the legal ack set: the map is fully built before the
	// goroutine starts (happens-before) and only the goroutine touches it
	// after, so no lock is needed.
	n := len(plan)
	var outstanding map[guard.ChunkKey]int
	if p.guard != nil {
		outstanding = make(map[guard.ChunkKey]int, n)
		for _, c := range plan {
			outstanding[guard.ChunkKey{ID: c.Photo.ID, Index: c.Index}]++
		}
	}
	acks := make(chan wire.ChunkAck, n)
	errc := make(chan error, 1)
	go func() {
		defer close(acks)
		for i := 0; i < n; i++ {
			a, err := readIn[wire.ChunkAck](s)
			if err != nil {
				errc <- err
				return
			}
			if outstanding != nil {
				if v := p.guardCfg.CheckChunkAck(a, outstanding); v != nil {
					errc <- s.violation(v)
					return
				}
				outstanding[guard.ChunkKey{ID: a.ID, Index: a.Index}]--
			}
			acks <- a
		}
		errc <- nil
	}()
	window := s.wc.Window()
	inflight := 0
	var crc uint32
	for k, c := range plan {
		if k == 0 || plan[k-1].Photo.ID != c.Photo.ID {
			crc = fill(c.Photo.ID)
		}
		lo := int(c.Index) * size
		c.Data, c.PayloadCRC = buf[lo:lo+int(chunkLen(c.Index))], crc
		for inflight >= window {
			if _, ok := <-acks; !ok {
				if err := <-errc; err != nil {
					return fmt.Errorf("chunk ack stream: %w", err)
				}
				return fmt.Errorf("%w: chunk acks ended before the stream", ErrProtocol)
			}
			inflight--
		}
		if err := s.wc.Write(c); err != nil {
			return err
		}
		inflight++
		p.tChunksSent.Add(1)
		p.cChunksSent.Inc()
	}
	for range acks {
	}
	if err := <-errc; err != nil {
		return fmt.Errorf("chunk ack stream: %w", err)
	}
	return s.wc.Write(wire.Ack{IDs: sent})
}

// receiveChunks reads the peer's chunk stream until the terminating Ack,
// acking each chunk and returning the photos that assembled and verified.
// Photos whose resume offer already covered every chunk complete with zero
// traffic. want lists the photos this node asked for (or, as the command
// center, was announced); with the guard armed nothing else is admitted.
func (s *session) receiveChunks(want []model.PhotoID) (map[model.PhotoID]model.Photo, error) {
	if err := s.enterTransfer(); err != nil {
		return nil, err
	}
	p := s.p
	out := make(map[model.PhotoID]model.Photo)
	// Pre-contact progress classifies completions as resumed and feeds the
	// resume-rate histogram.
	prior := make(map[model.PhotoID]uint32)
	if s.wc.Resume() {
		for _, id := range want {
			have, count := p.frags.Chunks(id)
			if have == 0 {
				continue
			}
			prior[id] = have
			if have == count {
				// Full partial from an earlier contact: assemble without a
				// single byte on the wire.
				if res, ok := p.frags.Assemble(id); ok {
					out[id] = res.Photo
					s.noteResumed(have, count)
				}
			}
		}
	}
	// With the guard armed, pin the stream to the request: chunks must name
	// wanted photos, match the negotiated chunk size, and never repeat a
	// (photo, index) pair within the contact.
	var wantSet map[model.PhotoID]bool
	var seen map[guard.ChunkKey]bool
	if p.guard != nil {
		wantSet = make(map[model.PhotoID]bool, len(want))
		for _, id := range want {
			wantSet[id] = true
		}
		seen = make(map[guard.ChunkKey]bool)
	}
	for {
		msg, err := s.readMsg()
		if err != nil {
			return nil, err
		}
		switch m := msg.(type) {
		case wire.Chunk:
			if p.guard != nil {
				if v := p.guardCfg.CheckChunk(m, wantSet, s.wc.ChunkSize()); v != nil {
					return nil, s.violation(v)
				}
				key := guard.ChunkKey{ID: m.Photo.ID, Index: m.Index}
				if seen[key] {
					return nil, s.violationf(guard.ReasonReplay, "duplicate chunk %v[%d]", m.Photo.ID, m.Index)
				}
				seen[key] = true
			}
			p.tChunksRecv.Add(1)
			p.cChunksRecv.Inc()
			res, err := s.addChunk(m)
			switch {
			case errors.Is(err, transfer.ErrChecksum):
				// Poisoned partial, already dropped (and counted wasted):
				// the photo simply does not complete this contact.
			case err != nil:
				return nil, err
			case res.Complete:
				out[m.Photo.ID] = res.Photo
				if n := prior[m.Photo.ID]; n > 0 {
					s.noteResumed(n, m.Count)
				}
			}
			if err := s.wc.Write(wire.ChunkAck{ID: m.Photo.ID, Index: m.Index}); err != nil {
				return nil, err
			}
		case wire.Ack:
			return out, nil
		default:
			if p.guard != nil {
				return nil, s.violationf(guard.ReasonPhase, "%v during chunk transfer", msg.Type())
			}
			return nil, fmt.Errorf("%w: %v during chunk transfer", ErrProtocol, msg.Type())
		}
	}
}

// noteResumed records one photo completed across contacts: prior of its
// count chunks predated this contact.
func (s *session) noteResumed(prior, count uint32) {
	p := s.p
	p.tPhotosRes.Add(1)
	if count > 0 {
		p.hResumeRate.Observe(float64(prior) / float64(count))
	}
}

// addChunk routes one received chunk to its reassembly store. Multi-chunk
// photos on a resume session go to the peer's shared cross-contact store —
// fresh chunks are journaled before the in-memory union, so a crash never
// loses progress the store claims to have. Everything else lands in the
// contact-local scratch store and dies with the session.
func (s *session) addChunk(c wire.Chunk) (transfer.AddResult, error) {
	p := s.p
	if s.wc.Resume() && c.Count > 1 {
		if p.jnl == nil {
			return p.frags.Add(c)
		}
		p.mu.Lock()
		defer p.mu.Unlock()
		if p.journalErr != nil {
			return transfer.AddResult{}, p.journalErr
		}
		if !p.frags.Has(c.Photo.ID, c.Index) {
			if err := p.jnl.Append(recFragment, encodeFragPut(c)); err != nil {
				p.journalErr = fmt.Errorf("%w: journal fragment: %w", ErrJournal, err)
				return transfer.AddResult{}, p.journalErr
			}
		}
		return p.frags.Add(c)
	}
	if s.localFrags == nil {
		s.localFrags = transfer.NewStore(0)
	}
	res, err := s.localFrags.Add(c)
	if res.Complete {
		// The payload served its verification purpose; without resume the
		// scratch copy has no future.
		s.localFrags.Drop(c.Photo.ID, false)
	}
	return res, err
}

// finishTransfer settles the session's scratch reassembly state at contact
// teardown: whatever the local store still tracks — incomplete photos from
// an aborted or budget-cut transfer — is wasted.
func (s *session) finishTransfer() {
	if s.localFrags == nil {
		return
	}
	st := s.localFrags.Stats()
	if wasted := st.FragmentBytes + st.WastedBytes; wasted > 0 {
		s.p.tWastedLocal.Add(wasted)
		s.p.cWastedBytes.Add(wasted)
	}
	s.localFrags = nil
}
