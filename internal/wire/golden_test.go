package wire

import (
	"bytes"
	"encoding/hex"
	"net"
	"testing"
)

// recorder tees everything written through a connection.
type recorder struct {
	net.Conn
	out bytes.Buffer
}

func (r *recorder) Write(p []byte) (int, error) {
	r.out.Write(p)
	return r.Conn.Write(p)
}

// TestHandshakeGolden pins the exact Hello and HelloAck frames for fixed
// identities and params. The expected bytes were recorded from the build
// that still carried the v1 fallback, so they prove its removal left every
// handshake byte unchanged.
func TestHandshakeGolden(t *testing.T) {
	initiator := Hello{Node: 1, Lambda: 0.25, DeliveryProb: 0.5, Time: 3600, Nonce: 0x1122334455667788, Capacity: 1 << 30}
	responder := Hello{Node: 2, Lambda: 0.125, DeliveryProb: 0.75, Time: 7200, Nonce: 0x0102030405060708, Capacity: 2 << 30}
	cases := []struct {
		name       string
		pi, pr     Params
		hello, ack string
	}{
		{
			name:  "tuned",
			pi:    Params{ChunkSize: 128 << 10, Window: 16, Resume: true},
			pr:    Params{ChunkSize: 64 << 10, Window: 4, Resume: true},
			hello: "350000000101000000000000000000d03f000000000000e03f000000000020ac40887766554433221100000040000000000200000002001000017f0fcd1c",
			ack:   "350000000702000000000000000000c03f000000000000e83f000000000020bc4008070605040302010000008000000000020000000100040001fd309168",
		},
		{
			name:  "defaults",
			pi:    Params{Resume: true},
			pr:    Params{},
			hello: "350000000101000000000000000000d03f000000000000e03f000000000020ac4088776655443322110000004000000000020000000400080001d82d59c4",
			ack:   "350000000702000000000000000000c03f000000000000e83f000000000020bc40080706050403020100000080000000000200000004000800003df821e4",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ca, cb := net.Pipe()
			defer func() { _ = ca.Close(); _ = cb.Close() }()
			ri, rr := &recorder{Conn: ca}, &recorder{Conn: cb}
			done := make(chan error, 1)
			go func() {
				_, _, err := Negotiate(rr, responder, tc.pr, false)
				done <- err
			}()
			if _, _, err := Negotiate(ri, initiator, tc.pi, true); err != nil {
				t.Fatal(err)
			}
			if err := <-done; err != nil {
				t.Fatal(err)
			}
			if got := hex.EncodeToString(ri.out.Bytes()); got != tc.hello {
				t.Errorf("hello frame\n got %s\nwant %s", got, tc.hello)
			}
			if got := hex.EncodeToString(rr.out.Bytes()); got != tc.ack {
				t.Errorf("hello ack frame\n got %s\nwant %s", got, tc.ack)
			}
		})
	}
}
