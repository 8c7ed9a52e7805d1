package peer

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"io"
	"net"
	"sync"
	"testing"
	"time"

	"photodtn/internal/faults"
	"photodtn/internal/model"
	"photodtn/internal/wire"
)

const kib = int64(1) << 10

// chunked returns a transfer config small enough that one synthetic photo
// payload spans many chunks.
func chunked(resume bool) TransferConfig {
	return TransferConfig{ChunkSize: 32 << 10, Resume: resume}
}

// faultContact runs one contact with the initiator's side of the pipe routed
// through rw (a fault-injecting wrapper over ca). Each side closes its own
// pipe end so the survivor of a mid-contact death unblocks promptly.
func faultContact(a, b *Peer, rw io.ReadWriter, ca, cb net.Conn) (errA, errB error) {
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		errA = a.ContactConn(rw, true)
		_ = ca.Close()
	}()
	go func() {
		defer wg.Done()
		errB = b.ContactConn(cb, false)
		_ = cb.Close()
	}()
	wg.Wait()
	return errA, errB
}

// killContact runs a contact whose initiator link dies after cut bytes —
// mid-frame, so the receiver sees a torn chunk, not a clean close between
// frames.
func killContact(a, b *Peer, cut int64) (errA, errB error) {
	ca, cb := net.Pipe()
	kt := faults.NewByteKillTransport(ca, cut)
	return faultContact(a, b, &faultConn{rw: kt, conn: ca}, ca, cb)
}

// TestContactRejectsBaseHello: a remote opening with a hello that lacks
// the transfer extension — the 44-byte body of the retired whole-photo
// protocol — is refused during the handshake. Nothing is admitted, and the
// failure is not one a retry could fix.
func TestContactRejectsBaseHello(t *testing.T) {
	b := newTestPeer(t, 2, poiMap(), 8*mb)
	if err := b.AddPhoto(viewFrom(2, 0, 0)); err != nil {
		t.Fatal(err)
	}
	before := b.StateDigest()
	var full bytes.Buffer
	if err := wire.Write(&full, wire.Hello{Node: 1, Lambda: 0.01, DeliveryProb: 0.5, Time: 1000, Version: wire.ProtocolVersion}); err != nil {
		t.Fatal(err)
	}
	// Reframe the first 44 body bytes: fresh length, same type, and the
	// frame checksum (CRC-32C over type and body) recomputed.
	frame := binary.LittleEndian.AppendUint32(nil, 44)
	frame = append(frame, full.Bytes()[4:5+44]...)
	frame = binary.LittleEndian.AppendUint32(frame, wire.PayloadCRC(frame[4:]))

	ca, cb := net.Pipe()
	go func() {
		_, _ = ca.Write(frame)
		_, _ = io.Copy(io.Discard, ca) // drain anything written back
	}()
	err := b.ContactConn(cb, false)
	_ = cb.Close()
	_ = ca.Close()
	if !errors.Is(err, wire.ErrBadMessage) {
		t.Fatalf("err = %v, want ErrBadMessage", err)
	}
	if transient(err) {
		t.Fatalf("base-hello rejection classified transient: %v", err)
	}
	if got := b.StateDigest(); got != before {
		t.Fatal("refused contact changed the peer's state")
	}
	if got := len(b.Photos()); got != 1 {
		t.Fatalf("peer holds %d photos after a refused contact, want 1", got)
	}
}

// TestChunkedExchange: two v2 peers with multi-chunk payloads complete a
// reallocation over the chunk path and account the frames.
func TestChunkedExchange(t *testing.T) {
	m := poiMap()
	a := newTestPeer(t, 1, m, 8*mb, WithPayloadBytes(int(96*kib)), WithTransfer(chunked(true)))
	b := newTestPeer(t, 2, m, 8*mb, WithPayloadBytes(int(96*kib)), WithTransfer(chunked(true)))
	if err := a.AddPhoto(viewFrom(1, 0, 0)); err != nil {
		t.Fatal(err)
	}
	if err := b.AddPhoto(viewFrom(2, 1, 90)); err != nil {
		t.Fatal(err)
	}
	contact(t, a, b)
	for _, p := range []*Peer{a, b} {
		if got := len(p.Photos()); got != 2 {
			t.Fatalf("peer %v holds %d photos, want 2", p.ID(), got)
		}
		st := p.TransferStats()
		// 96 KiB across 32 KiB chunks = 3 chunks each way.
		if st.ChunksSent != 3 || st.ChunksReceived != 3 {
			t.Fatalf("peer %v chunk counts = %+v, want 3 sent / 3 received", p.ID(), st)
		}
		if st.WastedBytes != 0 || st.Partials != 0 {
			t.Fatalf("clean exchange left waste: %+v", st)
		}
	}
}

// TestBudgetTruncationResumesAcrossContacts: a per-contact byte budget cuts
// the upload mid-photo without any fault; the surviving prefix is offered
// back next contact, and the photo completes after three budget slices
// having crossed the wire exactly once.
func TestBudgetTruncationResumesAcrossContacts(t *testing.T) {
	m := poiMap()
	cfg := chunked(true)
	cfg.BudgetBytes = 100 * kib // 3 of the 8 chunks per contact
	cc := newTestPeer(t, model.CommandCenter, m, 0, WithTransfer(chunked(true)))
	h := newTestPeer(t, 3, m, 64*mb, WithPayloadBytes(int(256*kib)), WithTransfer(cfg))
	ph := viewFrom(3, 0, 0)
	if err := h.AddPhoto(ph); err != nil {
		t.Fatal(err)
	}
	for round := 1; ; round++ {
		if round > 3 {
			t.Fatalf("photo not delivered after 3 budgeted contacts: cc stats %+v", cc.TransferStats())
		}
		contact(t, h, cc)
		if cc.Photos().Contains(ph.ID) {
			if round != 3 {
				t.Fatalf("delivered after %d contacts, want 3 (budget miscounted)", round)
			}
			break
		}
	}
	hst := h.TransferStats()
	if hst.ChunksSent != 8 {
		t.Fatalf("holder sent %d chunks, want 8 (each chunk exactly once)", hst.ChunksSent)
	}
	// Rounds two and three skipped the 3+3 chunks already held remotely.
	if hst.ChunksResumed != 9 || hst.ResumedBytes != 9*32*kib {
		t.Fatalf("resume accounting = %+v, want 9 chunks / %d bytes skipped", hst, 9*32*kib)
	}
	cst := cc.TransferStats()
	if cst.PhotosResumed != 1 {
		t.Fatalf("command center resumed %d photos, want 1", cst.PhotosResumed)
	}
	if cst.Partials != 0 || cst.FragmentBytes != 0 {
		t.Fatalf("completed photo still tracked as partial: %+v", cst)
	}
}

// TestMidChunkKillResumesNextContact is the fault-sweep proof for the live
// path: the uploader's link dies mid-chunk at a sweep of byte offsets, and
// every run must converge — the interrupted photo completes via resume in
// the next contact with a verified checksum and is delivered exactly once.
func TestMidChunkKillResumesNextContact(t *testing.T) {
	m := poiMap()
	sawResume := false
	// The chunk stream is ~263 KiB behind a short handshake; the sweep cuts
	// before the first chunk, inside early/middle/late chunks, and inside
	// the final one.
	for _, cut := range []int64{600, 40 * kib, 100 * kib, 180 * kib, 250 * kib} {
		cc := newTestPeer(t, model.CommandCenter, m, 0, WithTransfer(chunked(true)))
		h := newTestPeer(t, 3, m, 64*mb, WithPayloadBytes(int(256*kib)), WithTransfer(chunked(true)))
		ph := viewFrom(3, 0, 0)
		if err := h.AddPhoto(ph); err != nil {
			t.Fatal(err)
		}
		if errH, errCC := killContact(h, cc, cut); errH == nil && errCC == nil {
			t.Fatalf("cut %d: contact survived a killed link", cut)
		}
		if cc.Photos().Contains(ph.ID) {
			t.Fatalf("cut %d: photo delivered on the killed contact", cut)
		}
		prior := cc.TransferStats().Partials
		contact(t, h, cc)
		if !cc.Photos().Contains(ph.ID) {
			t.Fatalf("cut %d: photo not delivered by the recovery contact", cut)
		}
		if n := len(cc.Photos()); n != 1 {
			t.Fatalf("cut %d: command center holds %d photos, want exactly 1", cut, n)
		}
		cst := cc.TransferStats()
		if prior > 0 {
			sawResume = true
			if cst.PhotosResumed != 1 {
				t.Fatalf("cut %d: partial held but PhotosResumed = %d", cut, cst.PhotosResumed)
			}
		}
		if cst.Partials != 0 || cst.FragmentBytes != 0 {
			t.Fatalf("cut %d: delivered photo left partial state: %+v", cut, cst)
		}
		// A checksum mismatch would have dropped the partial and counted its
		// bytes wasted, so zero waste certifies the resumed payload verified.
		if cst.WastedBytes != 0 {
			t.Fatalf("cut %d: resumed delivery wasted %d bytes", cut, cst.WastedBytes)
		}
	}
	if !sawResume {
		t.Fatal("no cut in the sweep left a resumable partial — offsets miss the chunk stream")
	}
}

// TestCrossHolderResume: a transfer interrupted from one holder completes
// from a different holder of the same photo — the deterministic per-photo
// payload makes the fragments interchangeable.
func TestCrossHolderResume(t *testing.T) {
	m := poiMap()
	cc := newTestPeer(t, model.CommandCenter, m, 0, WithTransfer(chunked(true)))
	h1 := newTestPeer(t, 3, m, 64*mb, WithPayloadBytes(int(256*kib)), WithTransfer(chunked(true)))
	h2 := newTestPeer(t, 4, m, 64*mb, WithPayloadBytes(int(256*kib)), WithTransfer(chunked(true)))
	ph := viewFrom(3, 0, 0)
	if err := h1.AddPhoto(ph); err != nil {
		t.Fatal(err)
	}
	if err := h2.AddPhoto(ph); err != nil {
		t.Fatal(err)
	}
	if errH, errCC := killContact(h1, cc, 120*kib); errH == nil && errCC == nil {
		t.Fatal("contact survived a killed link")
	}
	if cc.TransferStats().Partials == 0 {
		t.Fatal("killed contact left no partial to resume")
	}
	contact(t, h2, cc)
	if !cc.Photos().Contains(ph.ID) {
		t.Fatal("photo not delivered by the second holder")
	}
	cst := cc.TransferStats()
	if cst.PhotosResumed != 1 {
		t.Fatalf("PhotosResumed = %d, want 1 (cross-holder resume)", cst.PhotosResumed)
	}
	if cst.WastedBytes != 0 {
		t.Fatalf("cross-holder resume wasted %d bytes — payloads not bit-identical", cst.WastedBytes)
	}
	if h2.TransferStats().ChunksResumed == 0 {
		t.Fatal("second holder re-sent every chunk — offer ignored")
	}
}

// TestResumeBeatsDiscardBaseline: after an identical mid-chunk death,
// resume-on must strictly beat the v1-style discard-everything baseline on
// both wasted bytes and chunks re-sent.
func TestResumeBeatsDiscardBaseline(t *testing.T) {
	m := poiMap()
	run := func(resume bool) (wasted, sent int64) {
		cc := newTestPeer(t, model.CommandCenter, m, 0, WithTransfer(chunked(resume)))
		h := newTestPeer(t, 3, m, 64*mb, WithPayloadBytes(int(256*kib)), WithTransfer(chunked(resume)))
		ph := viewFrom(3, 0, 0)
		if err := h.AddPhoto(ph); err != nil {
			t.Fatal(err)
		}
		if errH, errCC := killContact(h, cc, 150*kib); errH == nil && errCC == nil {
			t.Fatalf("resume=%v: contact survived a killed link", resume)
		}
		contact(t, h, cc)
		if !cc.Photos().Contains(ph.ID) || len(cc.Photos()) != 1 {
			t.Fatalf("resume=%v: photo not delivered exactly once", resume)
		}
		return cc.TransferStats().WastedBytes, h.TransferStats().ChunksSent
	}
	resumeWaste, resumeSent := run(true)
	discardWaste, discardSent := run(false)
	if resumeWaste >= discardWaste {
		t.Fatalf("resume wasted %d bytes, discard baseline %d — resume must waste strictly less",
			resumeWaste, discardWaste)
	}
	if resumeSent >= discardSent {
		t.Fatalf("resume sent %d chunks, discard baseline %d — resume must re-send strictly fewer",
			resumeSent, discardSent)
	}
}

// TestResumeUnderFrameLoss: a link losing ≥30% of the uploader's frames
// kills the contact mid-stream; the chunks that landed resume the photo on
// a later clean contact. The loss schedule is seed-driven — the sweep stops
// at the first seed whose run makes partial progress before dying.
func TestResumeUnderFrameLoss(t *testing.T) {
	m := poiMap()
	for seed := int64(1); seed <= 25; seed++ {
		cc := newTestPeer(t, model.CommandCenter, m, 0,
			WithTransfer(TransferConfig{ChunkSize: 16 << 10, Resume: true}),
			WithFrameTimeout(250*time.Millisecond))
		h := newTestPeer(t, 3, m, 64*mb, WithPayloadBytes(int(256*kib)),
			WithTransfer(TransferConfig{ChunkSize: 16 << 10, Resume: true}),
			WithFrameTimeout(250*time.Millisecond))
		ph := viewFrom(3, 0, 0)
		if err := h.AddPhoto(ph); err != nil {
			t.Fatal(err)
		}
		ca, cb := net.Pipe()
		lossy := faults.NewTransport(ca, 0.35, 0, seed)
		errH, errCC := faultContact(h, cc, &faultConn{rw: lossy, conn: ca}, ca, cb)
		if errH == nil && errCC == nil {
			continue // this seed dropped nothing that mattered
		}
		if cc.TransferStats().Partials == 0 {
			continue // died before any chunk landed
		}
		contact(t, h, cc)
		if !cc.Photos().Contains(ph.ID) || len(cc.Photos()) != 1 {
			t.Fatalf("seed %d: photo not delivered exactly once after lossy contact", seed)
		}
		cst := cc.TransferStats()
		if cst.PhotosResumed != 1 {
			t.Fatalf("seed %d: PhotosResumed = %d, want 1", seed, cst.PhotosResumed)
		}
		if cst.WastedBytes != 0 {
			t.Fatalf("seed %d: resumed delivery wasted %d bytes", seed, cst.WastedBytes)
		}
		return
	}
	t.Fatal("no seed produced a partially-progressed lossy contact")
}

// TestChaosMidChunkKillSweep extends the crash-recovery chaos harness to
// the chunk stream: a durable command center's link dies mid-chunk, the
// process restarts (fragments recovered from the journal — or from a v2
// snapshot when the run checkpoints first), and the recovery contact must
// deliver the photo exactly once, bit-verified, converging to the fault-free
// reference state.
func TestChaosMidChunkKillSweep(t *testing.T) {
	m := poiMap()
	ccOpts := func() []Option {
		return []Option{WithSeed(1), fixedClock(1000), WithTransfer(chunked(true))}
	}
	newHolder := func() *Peer {
		h := New(3, m, 64*mb, WithSeed(2), fixedClock(1000),
			WithPayloadBytes(int(256*kib)), WithTransfer(chunked(true)))
		if err := h.AddPhoto(viewFrom(3, 0, 0)); err != nil {
			t.Fatal(err)
		}
		return h
	}
	// Fault-free reference: the digest every chaos run must converge to.
	ref := New(model.CommandCenter, m, 0, ccOpts()...)
	contact(t, newHolder(), ref)
	wantDigest := ref.StateDigest()
	phID := ref.Photos()[0].ID

	sawReplay := false
	for _, checkpoint := range []bool{false, true} {
		for _, cut := range []int64{600, 60 * kib, 150 * kib, 240 * kib} {
			dir := t.TempDir()
			h := newHolder()
			cc, err := Open(dir, model.CommandCenter, m, 0, ccOpts()...)
			if err != nil {
				t.Fatal(err)
			}
			if errH, errCC := killContact(h, cc, cut); errH == nil && errCC == nil {
				t.Fatalf("cut %d: contact survived a killed link", cut)
			}
			partials := cc.TransferStats().Partials
			if checkpoint {
				// Fold the fragment journal into a v2 snapshot before dying.
				if err := cc.Checkpoint(); err != nil {
					t.Fatalf("cut %d: checkpoint: %v", cut, err)
				}
			}
			if err := cc.Close(); err != nil {
				t.Fatalf("cut %d: close: %v", cut, err)
			}

			cc2, err := Open(dir, model.CommandCenter, m, 0, ccOpts()...)
			if err != nil {
				t.Fatalf("cut %d: recovery: %v", cut, err)
			}
			st2 := cc2.TransferStats()
			if st2.Partials != partials {
				t.Fatalf("cut %d (checkpoint=%v): recovered %d partials, lost from %d",
					cut, checkpoint, st2.Partials, partials)
			}
			if partials > 0 {
				sawReplay = true
			}
			contact(t, h, cc2)
			if !cc2.Photos().Contains(phID) || len(cc2.Photos()) != 1 {
				t.Fatalf("cut %d: recovered command center did not deliver exactly once", cut)
			}
			if partials > 0 && cc2.TransferStats().PhotosResumed != 1 {
				t.Fatalf("cut %d: recovered partial not counted as a resume", cut)
			}
			if cc2.TransferStats().WastedBytes != 0 {
				t.Fatalf("cut %d: recovered fragments failed verification: %+v", cut, cc2.TransferStats())
			}
			if got := cc2.StateDigest(); got != wantDigest {
				t.Fatalf("cut %d (checkpoint=%v): digest %x, want reference %x", cut, checkpoint, got, wantDigest)
			}
			if err := cc2.Close(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if !sawReplay {
		t.Fatal("no cut left durable fragments to recover — sweep misses the chunk stream")
	}
}

// TestPayloadGolden pins the synthetic payload keystream to digests
// recorded before the send path synthesised payloads in place: transfers
// resume across holders only if every build produces bit-identical bytes.
// fillPayload must match even when writing into a dirty, reused buffer.
func TestPayloadGolden(t *testing.T) {
	golden := []struct {
		id     model.PhotoID
		n      int
		sha256 string
	}{
		{0x0, 1, "68aa2e2ee5dff96e3355e6c7ee373e3d6a4e17f75f9518d843709c0c9bc3e3d4"},
		{0x0, 7, "4732b7c1cfead07db525190ce10269f41c103f24d062784fcd51f2722fea896e"},
		{0x0, 8, "eecbed5563202c4e12ede0a85b4ab343c6be637c80e7c74c21a3710d093fed84"},
		{0x0, 13, "6568c8aee61ea439d3e9548c565e42d303bb681ca8c09fff7047396cb0b05cbb"},
		{0x0, 256 << 10, "250a5332a9caae697cdb22fa16a80ca307897933f260b82a303bbff2f6bad601"},
		{0x1, 1, "13598656f10fa962b75f6c4587a61a067c14c1ef7dc9ca3703da76bae4c1beb1"},
		{0x1, 7, "2dc73789f7235bdbe055670f1b5e621333b9b866e37d6321367c3b654cb9c969"},
		{0x1, 8, "7d2da9f7a40df22a4a6b8f5e78fc4752ba4a70112147fe7cc51c2f6efe2c4a7e"},
		{0x1, 13, "2f233b1d89b16e79e42424687283e2a64843b087a9b48c993d701a5d91ff53a3"},
		{0x1, 256 << 10, "2413fba23cefae53b44df8a54d5a2fe87c0e3654076569391944c67c1e8d35ef"},
		{0x2a, 1, "6922e93e3827642ce4b883c756b31abf80036649d3614bf5fcb3adda43b8ea32"},
		{0x2a, 7, "b8c2359b52963d193a4a52eee5c9f8d8868eb9bbdb97ff44987174541d0a13a3"},
		{0x2a, 8, "f279ebe29dc1dadf8a50376be750c2de25b90bc68e30e21b28e9e3a3f21705d9"},
		{0x2a, 13, "ea2b6e4a4c9d1bc5489a1247d79b66fd9a92574a05d794eb6b36222ed2036dc5"},
		{0x2a, 256 << 10, "dfe362698540e96c0ccd90577537e90e0b5f05036dd456706b036c33e6750304"},
		{0xdeadbeefcafe, 1, "19753a9b7681b36104c1f79dfc8a6a1eccc088b8c7d2903a446d81694d2fb3a9"},
		{0xdeadbeefcafe, 7, "442f944e74a95e83327031e074165c299b9e0a54cc9a669f915efb948c346124"},
		{0xdeadbeefcafe, 8, "fb6d1f2fe360fa5ef954c0de802916fd52774a9f1b3659fe299dc1d3fdbdac06"},
		{0xdeadbeefcafe, 13, "0193e08397abffa91617672e7a7a9adefb0f6564d4ae6d282dbd725be595af58"},
		{0xdeadbeefcafe, 256 << 10, "c2fe84047529a1a80492236970096e2cfe0ba6ba9f19385ab7f1ff44c6a0f168"},
	}
	buf := make([]byte, 256<<10)
	for _, g := range golden {
		dirty := buf[:g.n]
		for i := range dirty {
			dirty[i] = 0xFF
		}
		fillPayload(dirty, g.id)
		sum := sha256.Sum256(dirty)
		if got := hex.EncodeToString(sum[:]); got != g.sha256 {
			t.Errorf("fillPayload(%#x, %d) = %s, want %s", uint64(g.id), g.n, got, g.sha256)
		}
	}
}
