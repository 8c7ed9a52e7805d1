package wire

import (
	"bytes"
	"errors"
	"io"
	"net"
	"testing"
)

// handshake runs Negotiate on both ends of a pipe and returns both conns.
func handshake(t *testing.T, pi, pr Params) (*Conn, *Conn) {
	t.Helper()
	ca, cb := net.Pipe()
	t.Cleanup(func() { _ = ca.Close(); _ = cb.Close() })
	type res struct {
		c   *Conn
		h   Hello
		err error
	}
	ch := make(chan res, 1)
	go func() {
		c, h, err := Negotiate(cb, Hello{Node: 2, Nonce: 22}, pr, false)
		ch <- res{c, h, err}
	}()
	ci, hr, err := Negotiate(ca, Hello{Node: 1, Nonce: 11}, pi, true)
	if err != nil {
		t.Fatalf("initiator: %v", err)
	}
	r := <-ch
	if r.err != nil {
		t.Fatalf("responder: %v", r.err)
	}
	if hr.Node != 2 || r.h.Node != 1 {
		t.Fatalf("identities: initiator saw %v, responder saw %v", hr.Node, r.h.Node)
	}
	return ci, r.c
}

func TestNegotiateBothV2(t *testing.T) {
	ci, cr := handshake(t,
		Params{ChunkSize: 128 << 10, Window: 16, Resume: true},
		Params{ChunkSize: 64 << 10, Window: 4, Resume: true})
	for _, c := range []*Conn{ci, cr} {
		if c.ChunkSize() != 64<<10 {
			t.Fatalf("chunk size = %d, want min", c.ChunkSize())
		}
		if c.Window() != 4 {
			t.Fatalf("window = %d, want min", c.Window())
		}
		if !c.Resume() {
			t.Fatal("resume lost")
		}
	}
}

func TestNegotiateResumeRequiresBoth(t *testing.T) {
	ci, cr := handshake(t, Params{Resume: true}, Params{})
	if ci.Resume() || cr.Resume() {
		t.Fatal("resume needs both sides")
	}
}

func TestNegotiateRejectsNonHello(t *testing.T) {
	ca, cb := net.Pipe()
	defer func() { _ = ca.Close(); _ = cb.Close() }()
	done := make(chan error, 1)
	go func() {
		_, _, err := Negotiate(ca, Hello{Node: 1}, Params{}, true)
		done <- err
	}()
	if _, err := Read(cb); err != nil {
		t.Fatal(err)
	}
	if err := Write(cb, Bye{}); err != nil {
		t.Fatal(err)
	}
	if err := <-done; !errors.Is(err, ErrHandshake) {
		t.Fatalf("err = %v, want ErrHandshake", err)
	}
}

// TestNegotiateRejectsBaseHello: a hello without its transfer extension —
// the 44-byte body of the retired whole-photo protocol — fails the
// responder's handshake before anything is written back.
func TestNegotiateRejectsBaseHello(t *testing.T) {
	var full bytes.Buffer
	if err := Write(&full, Hello{Node: 1, Nonce: 11, Version: ProtocolVersion}); err != nil {
		t.Fatal(err)
	}
	base := reframe(MsgHello, full.Bytes()[5:5+44])
	var replies bytes.Buffer
	rw := struct {
		io.Reader
		io.Writer
	}{bytes.NewReader(base), &replies}
	if _, _, err := Negotiate(rw, Hello{Node: 2}, Params{}, false); !errors.Is(err, ErrBadMessage) {
		t.Fatalf("err = %v, want ErrBadMessage", err)
	}
	if replies.Len() != 0 {
		t.Fatalf("responder wrote %d bytes in reply to a base hello", replies.Len())
	}
}
