package main

import (
	"context"
	"errors"
	"fmt"
	"io/fs"
	"math"
	"net"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"photodtn"
	"photodtn/internal/journal"
	"photodtn/internal/model"
	"photodtn/internal/peer"
	"photodtn/internal/sim"
	"photodtn/internal/wire"
)

// liveNet is one replay's network: a durable peer per node plus the
// command center, each serving on its own loopback listener, all on the
// trace's clock.
type liveNet struct {
	sc    *sim.Config
	dir   string
	tr    *tracer
	clock atomic.Uint64 // float64 bits of the trace time

	peers   []*peer.Peer // indexed by node id; 0 is the command center
	addrs   []string
	cancel  context.CancelFunc
	serving sync.WaitGroup

	// open counts serving-side connections not yet closed; the replay
	// waits for it to reach zero so one contact ends before the next.
	mu      sync.Mutex
	idle    *sync.Cond
	open    int
	foreign int // connections whose remote end was not loopback

	wireBytes atomic.Int64 // both directions, counted at the dialing end
	// dials counts dial attempts: DialContext retries a failed contact
	// silently, so a contact that dialed more than once failed once.
	dials atomic.Int64
}

// peerSeed gives each node its own reproducible nonce stream.
func peerSeed(seed int64, node int) int64 { return seed*1_000_003 + int64(node) }

// openNet opens one durable peer per node under dir and starts serving.
// A non-nil tracer times wire and journal calls; a non-nil observer
// collects the peers' own counters.
func openNet(sc *sim.Config, dir string, seed int64, tr *tracer, o *photodtn.Observer) (*liveNet, error) {
	n := &liveNet{sc: sc, dir: dir, tr: tr}
	n.idle = sync.NewCond(&n.mu)
	ctx, cancel := context.WithCancel(context.Background())
	n.cancel = cancel
	nodes := sc.Trace.Nodes + 1
	for id := 0; id < nodes; id++ {
		p, err := peer.Open(n.peerDir(id), model.NodeID(id), sc.Map, sc.StorageBytes, n.options(id, seed, o)...)
		if err != nil {
			n.close()
			return nil, fmt.Errorf("open peer %d: %w", id, err)
		}
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			_ = p.Close()
			n.close()
			return nil, fmt.Errorf("listen for peer %d: %w", id, err)
		}
		n.peers = append(n.peers, p)
		n.addrs = append(n.addrs, l.Addr().String())
		n.serving.Add(1)
		go func(p *peer.Peer, l net.Listener) {
			defer n.serving.Done()
			// ServeContext returns ctx's error once close cancels it;
			// any contact failure is counted by the dialing side.
			_ = p.ServeContext(ctx, &countedListener{Listener: l, n: n, node: int(p.ID())})
		}(p, l)
	}
	return n, nil
}

func (n *liveNet) peerDir(id int) string { return filepath.Join(n.dir, fmt.Sprintf("n%03d", id)) }

func (n *liveNet) options(id int, seed int64, o *photodtn.Observer) []peer.Option {
	opts := []peer.Option{
		peer.WithClock(n.now),
		peer.WithSeed(peerSeed(seed, id)),
		peer.WithPayloadBytes(wire.DefaultChunkSize),
		peer.WithContextDialer(n.dialer(id)),
	}
	if n.tr != nil {
		opts = append(opts, peer.WithJournalFS(timedFS{n: n, node: id}))
	}
	if o != nil {
		opts = append(opts, photodtn.WithObserver(o))
	}
	return opts
}

func (n *liveNet) now() float64       { return math.Float64frombits(n.clock.Load()) }
func (n *liveNet) setClock(t float64) { n.clock.Store(math.Float64bits(t)) }

// noteRemote checks that a connection stayed on loopback and, for the
// serving side, counts it open.
func (n *liveNet) noteRemote(remote net.Addr, serving bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if a, ok := remote.(*net.TCPAddr); !ok || !a.IP.IsLoopback() {
		n.foreign++
	}
	if serving {
		n.open++
	}
}

// closed marks a serving-side connection closed.
func (n *liveNet) closed() {
	n.mu.Lock()
	n.open--
	n.idle.Broadcast()
	n.mu.Unlock()
}

// waitIdle blocks until every serving-side connection has closed, so the
// server's half of a contact has ended before the next operation starts.
func (n *liveNet) waitIdle() {
	n.mu.Lock()
	for n.open > 0 {
		n.idle.Wait()
	}
	n.mu.Unlock()
}

func (n *liveNet) dialer(node int) func(ctx context.Context, addr string) (net.Conn, error) {
	return func(ctx context.Context, addr string) (net.Conn, error) {
		n.dials.Add(1)
		var start time.Duration
		if n.tr != nil {
			start = n.tr.now()
		}
		d := net.Dialer{Timeout: peer.DefaultFrameTimeout}
		c, err := d.DialContext(ctx, "tcp", addr)
		if n.tr != nil {
			n.tr.leaf(spanWireDial, start, node, 0)
		}
		if err != nil {
			return nil, err
		}
		n.noteRemote(c.RemoteAddr(), false)
		return &countedConn{Conn: c, n: n, node: node, dialing: true}, nil
	}
}

// stopServing cancels every serve loop and waits for them to return.
func (n *liveNet) stopServing() {
	n.cancel()
	n.serving.Wait()
}

// close stops serving and closes every peer's journal.
func (n *liveNet) close() error {
	n.stopServing()
	var errs []error
	for _, p := range n.peers {
		errs = append(errs, p.Close())
	}
	return errors.Join(errs...)
}

// digests returns every peer's StateDigest, indexed by node id.
func (n *liveNet) digests() []uint64 {
	out := make([]uint64, len(n.peers))
	for i, p := range n.peers {
		out[i] = p.StateDigest()
	}
	return out
}

// contactErrors returns the nodes that recorded a failed contact, on
// either side of it.
func (n *liveNet) contactErrors() []int {
	var bad []int
	for id, p := range n.peers {
		if p.ContactErrors() != 0 {
			bad = append(bad, id)
		}
	}
	return bad
}

// reopenCheck closes every peer, opens it again from its state dir, and
// returns the nodes whose recovered StateDigest differs from before.
func (n *liveNet) reopenCheck(before []uint64) ([]int, error) {
	if err := n.close(); err != nil {
		return nil, fmt.Errorf("close peers: %w", err)
	}
	var bad []int
	for id := range n.peers {
		p, err := peer.Open(n.peerDir(id), model.NodeID(id), n.sc.Map, n.sc.StorageBytes)
		if err != nil {
			return nil, fmt.Errorf("reopen peer %d: %w", id, err)
		}
		if p.StateDigest() != before[id] {
			bad = append(bad, id)
		}
		if err := p.Close(); err != nil {
			return nil, fmt.Errorf("close reopened peer %d: %w", id, err)
		}
	}
	return bad, nil
}

// replayStats is what one replay measured.
type replayStats struct {
	run      time.Duration
	captures []time.Duration // accepted AddPhoto calls
	contacts []time.Duration // DialContext calls
	rejected int             // captures refused for lack of space
	failed   int             // captures that returned another error, contacts that failed or were retried
	ops      int
}

// replay drives every capture and contact in time order, one at a time.
func (n *liveNet) replay(evs []event) replayStats {
	var st replayStats
	st.captures = make([]time.Duration, 0, len(evs))
	st.contacts = make([]time.Duration, 0, len(evs)/16)
	var root int
	var rootStart time.Duration
	if n.tr != nil {
		root = n.tr.reserve()
		rootStart = n.tr.now()
	}
	ctx := context.Background()
	begin := time.Now()
	for _, ev := range evs {
		n.setClock(ev.time)
		var op int
		var opStart time.Duration
		if n.tr != nil {
			op = n.tr.reserve()
			n.tr.setOp(op)
			opStart = n.tr.now()
		}
		st.ops++
		if pe := ev.photo; pe != nil {
			t0 := time.Now()
			err := n.peers[pe.Node].AddPhoto(pe.Photo)
			d := time.Since(t0)
			switch {
			case err == nil:
				st.captures = append(st.captures, d)
			case errors.Is(err, sim.ErrNoSpace):
				st.rejected++
			default:
				st.failed++
				fmt.Fprintf(os.Stderr, "perfbench: capture at t=%.0f: %v\n", ev.time, err)
			}
			if n.tr != nil {
				n.tr.finish(op, spanAddPhoto, root, opStart, n.tr.now(), int(pe.Node), 0)
			}
			continue
		}
		c := ev.contact
		dials := n.dials.Load()
		t0 := time.Now()
		err := n.peers[c.A].DialContext(ctx, n.addrs[c.B])
		d := time.Since(t0)
		if tries := n.dials.Load() - dials; err == nil && tries != 1 {
			err = fmt.Errorf("succeeded after %d dial attempts", tries)
		}
		if err != nil {
			st.failed++
			fmt.Fprintf(os.Stderr, "perfbench: contact %v-%v at t=%.0f: %v\n", c.A, c.B, ev.time, err)
		}
		st.contacts = append(st.contacts, d)
		if n.tr != nil {
			n.tr.add(spanDial, op, opStart, opStart+d, int(c.A), 0)
		}
		n.waitIdle()
		if n.tr != nil {
			n.tr.finish(op, spanContact, root, opStart, n.tr.now(), int(c.A), int(c.B))
		}
	}
	st.run = time.Since(begin)
	if n.tr != nil {
		n.tr.setOp(0)
		n.tr.finish(root, spanLiveRun, 0, rootStart, rootStart+st.run, -1, 0)
	}
	return st
}

// countedListener hands out counted connections for the serving side.
type countedListener struct {
	net.Listener
	n    *liveNet
	node int
}

// Accept implements net.Listener.
func (l *countedListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	l.n.noteRemote(c.RemoteAddr(), true)
	cc := &countedConn{Conn: c, n: l.n, node: l.node}
	if l.n.tr != nil {
		cc.accepted = l.n.tr.now()
	}
	return cc, nil
}

// countedConn counts the bytes a contact moves and, when traced, times
// every read and write.
type countedConn struct {
	net.Conn
	n        *liveNet
	node     int
	dialing  bool
	accepted time.Duration
	once     sync.Once
}

// Read implements net.Conn.
func (c *countedConn) Read(b []byte) (int, error) {
	var start time.Duration
	if c.n.tr != nil {
		start = c.n.tr.now()
	}
	k, err := c.Conn.Read(b)
	if c.dialing {
		c.n.wireBytes.Add(int64(k))
	}
	if c.n.tr != nil {
		c.n.tr.leaf(spanWireRead, start, c.node, k)
	}
	return k, err
}

// Write implements net.Conn.
func (c *countedConn) Write(b []byte) (int, error) {
	var start time.Duration
	if c.n.tr != nil {
		start = c.n.tr.now()
	}
	k, err := c.Conn.Write(b)
	if c.dialing {
		c.n.wireBytes.Add(int64(k))
	}
	if c.n.tr != nil {
		c.n.tr.leaf(spanWireWrite, start, c.node, k)
	}
	return k, err
}

// Close implements net.Conn; the serving side's first close ends its half
// of the contact.
func (c *countedConn) Close() error {
	err := c.Conn.Close()
	if !c.dialing {
		c.once.Do(func() {
			if c.n.tr != nil {
				c.n.tr.leaf(spanServe, c.accepted, c.node, 0)
			}
			c.n.closed()
		})
	}
	return err
}

// timedFS times the journal calls a capture or a contact makes: opening,
// writing and syncing files, and the rename that commits a snapshot. The
// rest only run while a peer opens, outside any operation.
type timedFS struct {
	journal.OSFS
	n    *liveNet
	node int
}

// OpenFile implements journal.FS.
func (f timedFS) OpenFile(name string, flag int, perm fs.FileMode) (journal.File, error) {
	start := f.n.tr.now()
	file, err := f.OSFS.OpenFile(name, flag, perm)
	f.n.tr.leaf(spanJournalOther, start, f.node, 0)
	if err != nil {
		return nil, err
	}
	return timedFile{File: file, fs: f}, nil
}

// Rename implements journal.FS.
func (f timedFS) Rename(oldpath, newpath string) error {
	start := f.n.tr.now()
	err := f.OSFS.Rename(oldpath, newpath)
	f.n.tr.leaf(spanJournalOther, start, f.node, 0)
	return err
}

// timedFile times a journal file's writes and syncs.
type timedFile struct {
	journal.File
	fs timedFS
}

// Write implements journal.File.
func (f timedFile) Write(b []byte) (int, error) {
	start := f.fs.n.tr.now()
	k, err := f.File.Write(b)
	f.fs.n.tr.leaf(spanJournalWrite, start, f.fs.node, k)
	return k, err
}

// Sync implements journal.File.
func (f timedFile) Sync() error {
	start := f.fs.n.tr.now()
	err := f.File.Sync()
	f.fs.n.tr.leaf(spanJournalSync, start, f.fs.node, 0)
	return err
}
