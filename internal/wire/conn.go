// Conn and Negotiate: the handshake half of the wire package.
//
// Photos move as CRC-framed chunks behind a windowed sender, and a partial
// transfer can resume in a later contact. The handshake that fixes the
// transfer parameters costs no extra round trip:
//
//	initiator                         responder
//	---------                         ---------
//	Hello (with extension) -------->
//	                       <--------- HelloAck (negotiated)
//
// A hello without its transfer extension (the 44-byte body of the retired
// whole-photo protocol) does not decode, so such a peer fails the handshake
// instead of being served a downgraded session.
package wire

import (
	"errors"
	"fmt"
	"io"
)

// ProtocolVersion is the protocol version this build speaks; every hello
// carries it.
const ProtocolVersion uint16 = 2

// Default transfer parameters.
const (
	// DefaultChunkSize is the default transfer chunk size: 256 KiB.
	DefaultChunkSize = 256 << 10
	// DefaultWindow is the default number of unacknowledged chunks in
	// flight.
	DefaultWindow = 8
)

// FlagResume in Hello.Flags advertises that the sender persists partial
// transfers and wants resume offers.
const FlagResume uint8 = 0x01

// ErrHandshake reports an unexpected message during the handshake.
var ErrHandshake = errors.New("wire: handshake violation")

// Params are one side's transfer preferences going into a handshake. The
// zero value asks for the current defaults with resume disabled.
type Params struct {
	// ChunkSize is the preferred chunk size in bytes (0 = default).
	ChunkSize uint32
	// Window is the preferred in-flight chunk window (0 = default).
	Window uint16
	// Resume advertises fragment persistence.
	Resume bool
}

func (p Params) withDefaults() Params {
	if p.ChunkSize == 0 {
		p.ChunkSize = DefaultChunkSize
	}
	if p.Window == 0 {
		p.Window = DefaultWindow
	}
	return p
}

// Conn is a contact connection after the handshake: a frame codec plus the
// agreed transfer parameters.
type Conn struct {
	rw        io.ReadWriter
	chunkSize uint32
	window    int
	resume    bool
}

// ChunkSize returns the negotiated chunk size in bytes.
func (c *Conn) ChunkSize() int { return int(c.chunkSize) }

// Window returns the negotiated in-flight chunk window (≥ 1).
func (c *Conn) Window() int { return c.window }

// Resume reports whether both sides persist partial transfers.
func (c *Conn) Resume() bool { return c.resume }

// Write encodes one message as a frame.
func (c *Conn) Write(msg Message) error { return Write(c.rw, msg) }

// Read decodes the next frame.
func (c *Conn) Read() (Message, error) { return Read(c.rw) }

// negotiate folds the remote hello into local params: element-wise minimum
// for chunk size and window; logical AND for resume.
func negotiate(p Params, h Hello) Params {
	out := p
	if h.ChunkSize != 0 && h.ChunkSize < out.ChunkSize {
		out.ChunkSize = h.ChunkSize
	}
	if h.Window != 0 && h.Window < out.Window {
		out.Window = h.Window
	}
	out.Resume = p.Resume && h.Flags&FlagResume != 0
	return out
}

func newConn(rw io.ReadWriter, p Params) *Conn {
	return &Conn{
		rw:        rw,
		chunkSize: p.ChunkSize,
		window:    max(1, int(p.Window)),
		resume:    p.Resume,
	}
}

// extend stamps the transfer extension onto a hello.
func extend(own Hello, p Params) Hello {
	own.Version = ProtocolVersion
	own.ChunkSize = p.ChunkSize
	own.Window = p.Window
	own.Flags = 0
	if p.Resume {
		own.Flags = FlagResume
	}
	return own
}

// Negotiate performs the handshake over rw and returns the negotiated
// connection plus the remote's hello. own carries the caller's identity
// fields; its transfer extension is overwritten from p. The initiator
// writes first (the peer layer's turn-taking convention).
func Negotiate(rw io.ReadWriter, own Hello, p Params, initiator bool) (*Conn, Hello, error) {
	p = p.withDefaults()
	if initiator {
		if err := Write(rw, extend(own, p)); err != nil {
			return nil, Hello{}, err
		}
		msg, err := Read(rw)
		if err != nil {
			return nil, Hello{}, err
		}
		ack, ok := msg.(HelloAck)
		if !ok {
			return nil, Hello{}, fmt.Errorf("%w: %v in reply to hello", ErrHandshake, msg.Type())
		}
		// The ack already carries the responder's minimum; folding it into
		// our params again clamps a misbehaving responder that tried to
		// negotiate *up*.
		return newConn(rw, negotiate(p, ack.Hello)), ack.Hello, nil
	}
	msg, err := Read(rw)
	if err != nil {
		return nil, Hello{}, err
	}
	h, ok := msg.(Hello)
	if !ok {
		return nil, Hello{}, fmt.Errorf("%w: %v before hello", ErrHandshake, msg.Type())
	}
	neg := negotiate(p, h)
	if err := Write(rw, HelloAck{Hello: extend(own, neg)}); err != nil {
		return nil, Hello{}, err
	}
	return newConn(rw, neg), h, nil
}
