package wire

import (
	"bytes"
	"sync"
	"testing"

	"photodtn/internal/model"
)

// aliasCases holds one message of every type, each with every variable-
// length field populated, so a decoder that kept a slice of its input
// would show it.
func aliasCases() []Message {
	return []Message{
		Hello{Node: 1, Lambda: 0.1, DeliveryProb: 0.5, Time: 10, Nonce: 7, Capacity: 1 << 20, Version: ProtocolVersion},
		Hello{Node: 3, Nonce: 8, Version: ProtocolVersion, ChunkSize: 64 << 10, Window: 8, Flags: FlagResume},
		HelloAck{Hello: Hello{Node: 4, Version: ProtocolVersion, ChunkSize: 32 << 10, Window: 2}},
		Metadata{Entries: []MetaEntry{
			{Node: 2, Lambda: 0.5, P: 0.25, Timestamp: 3, Photos: model.PhotoList{samplePhoto(2, 0), samplePhoto(2, 1)}},
			{Node: 5, Lambda: 0.1, P: 0.75, Timestamp: 4},
		}},
		PhotoRequest{IDs: []model.PhotoID{1, 2, model.MakePhotoID(5, 7)}},
		singleChunk(samplePhoto(1, 1), []byte{9, 8, 7, 6, 5}),
		Ack{IDs: []model.PhotoID{4, 5}},
		Bye{},
		Chunk{Photo: samplePhoto(5, 0), Index: 1, Count: 3, ChunkSize: 4, Total: 11, PayloadCRC: 3, Data: []byte{1, 2, 3, 4}},
		ChunkAck{ID: model.MakePhotoID(5, 0), Index: 1},
		ResumeOffer{Entries: []ResumeEntry{
			{ID: 9, ChunkSize: 4, Count: 3, Total: 11, PayloadCRC: 1, Bitmap: []byte{0b101}},
			{ID: 10, ChunkSize: 8, Count: 9, Total: 65, PayloadCRC: 2, Bitmap: []byte{0xFF, 0b1}},
		}},
	}
}

// TestDecodeDoesNotAlias pins the rule the frame pool relies on: no decoded
// message shares memory with the body it was decoded from. Each body is
// overwritten after decoding; the message must still re-encode to the
// original bytes.
func TestDecodeDoesNotAlias(t *testing.T) {
	for _, msg := range aliasCases() {
		body := msg.appendBody(nil)
		want := append([]byte(nil), body...)
		got, err := DecodeBody(msg.Type(), body)
		if err != nil {
			t.Fatalf("%v: %v", msg.Type(), err)
		}
		for i := range body {
			body[i] = 0xA5
		}
		if again := got.appendBody(nil); !bytes.Equal(again, want) {
			t.Fatalf("%v: decoded message changed when its input was overwritten", msg.Type())
		}
	}
}

// TestReadResultsSurviveLaterReads reads a stream of same-sized frames —
// the shape that reuses a pooled buffer — and checks every message read
// earlier still holds its own bytes.
func TestReadResultsSurviveLaterReads(t *testing.T) {
	var buf bytes.Buffer
	var sent []Chunk
	for i := uint32(0); i < 4; i++ {
		c := Chunk{
			Photo: samplePhoto(6, i), Index: 0, Count: 1, ChunkSize: 1 << 10,
			Total: 1 << 10, Data: bytes.Repeat([]byte{byte(i + 1)}, 1<<10),
		}
		sent = append(sent, c)
		if err := Write(&buf, c); err != nil {
			t.Fatal(err)
		}
	}
	var got []Chunk
	for range sent {
		m, err := Read(&buf)
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, m.(Chunk))
	}
	for i := range sent {
		if !bytes.Equal(got[i].Data, sent[i].Data) {
			t.Fatalf("chunk %d data clobbered by a later read", i)
		}
	}
}

// TestFramePoolConcurrent runs Write and Read from several goroutines at
// once — as a sender and its ack reader share the pool — and checks no
// goroutine ever sees another's bytes. Run under -race.
func TestFramePoolConcurrent(t *testing.T) {
	const workers, rounds = 4, 50
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var buf bytes.Buffer
			for i := 0; i < rounds; i++ {
				n := 1 + (w*rounds+i)%3000
				want := Chunk{
					Photo: samplePhoto(model.NodeID(w), uint32(i)), Count: 1, ChunkSize: 4096,
					Total: uint64(n), Data: bytes.Repeat([]byte{byte(w)}, n),
				}
				if err := Write(&buf, want); err != nil {
					t.Error(err)
					return
				}
				m, err := Read(&buf)
				if err != nil {
					t.Error(err)
					return
				}
				if got := m.(Chunk); got.Photo != want.Photo || !bytes.Equal(got.Data, want.Data) {
					t.Errorf("worker %d round %d: frame mixed with another goroutine's", w, i)
					return
				}
			}
		}(w)
	}
	wg.Wait()
}

// TestFrameAbovePoolCapRoundTrips sends a frame larger than the pool keeps:
// it must still encode and decode intact.
func TestFrameAbovePoolCapRoundTrips(t *testing.T) {
	msg := singleChunk(samplePhoto(2, 3), bytes.Repeat([]byte{0x5A}, maxPooledFrame+1))
	got := roundTrip(t, msg).(Chunk)
	if got.Photo != msg.Photo || !bytes.Equal(got.Data, msg.Data) {
		t.Fatal("oversized frame corrupted in round trip")
	}
}

// BenchmarkChunkRoundTrip writes and reads one default-size chunk through
// Write and Read, so -benchmem reports the wire layer's own allocations
// per chunk.
func BenchmarkChunkRoundTrip(b *testing.B) {
	c := Chunk{
		Photo: samplePhoto(1, 0), Index: 0, Count: 1, ChunkSize: DefaultChunkSize,
		Total: DefaultChunkSize, Data: bytes.Repeat([]byte{0x3C}, DefaultChunkSize),
	}
	var buf bytes.Buffer
	b.ReportAllocs()
	b.SetBytes(DefaultChunkSize)
	for i := 0; i < b.N; i++ {
		buf.Reset()
		if err := Write(&buf, c); err != nil {
			b.Fatal(err)
		}
		if _, err := Read(&buf); err != nil {
			b.Fatal(err)
		}
	}
}
