// Package peer implements a live DTN node: the framework of package core
// speaking the wire protocol over real connections (TCP in the examples;
// anything io.ReadWriter-shaped works). It is the repository's counterpart
// of the paper's Android prototype — two peers that meet exchange hellos,
// PROPHET state, and photo metadata, jointly compute the §III-D
// reallocation, and transfer exactly the photos the plan needs.
//
// The joint computation is deterministic: both sides feed identical inputs
// (exchanged over the wire) and a shared seed (XOR of the hello nonces)
// into the same greedy, so they arrive at the same plan without a
// leader-election round.
//
// A peer serves contacts concurrently: each accepted connection runs as an
// independent session against a snapshot of the peer's state and commits
// its effects in one short critical section with conflict validation (see
// session.go and DESIGN.md). WithMaxContacts bounds the concurrency.
package peer

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"photodtn/internal/coverage"
	"photodtn/internal/guard"
	"photodtn/internal/journal"
	"photodtn/internal/metadata"
	"photodtn/internal/model"
	"photodtn/internal/obs"
	"photodtn/internal/prophet"
	"photodtn/internal/selection"
	"photodtn/internal/sim"
	"photodtn/internal/transfer"
	"photodtn/internal/wire"
)

// Errors.
var (
	// ErrProtocol reports an unexpected message during a contact.
	ErrProtocol = errors.New("peer: protocol violation")
	// ErrServing reports a second concurrent Serve on a peer — a node has
	// one radio, and two accept loops would race for it.
	ErrServing = errors.New("peer: already serving")
)

// Option customises a Peer during New. Options are an interface (not a
// function type) so other packages can implement them — the photodtn facade's
// unified options (photodtn.WithObserver) satisfy this interface alongside
// the constructors below.
type Option interface {
	// Apply applies the option to the peer. New calls it before finalising
	// defaults, so options may leave fields unset.
	Apply(*Peer)
}

// optionFunc adapts a plain function to Option.
type optionFunc func(*Peer)

// Apply implements Option.
func (f optionFunc) Apply(p *Peer) { f(p) }

// WithClock injects a logical clock (seconds); the default is wall time
// since peer creation.
func WithClock(clock func() float64) Option {
	return optionFunc(func(p *Peer) { p.clock = clock })
}

// WithSelectionConfig overrides the expected-coverage evaluation settings.
func WithSelectionConfig(cfg selection.Config) Option {
	return optionFunc(func(p *Peer) { p.selCfg = cfg })
}

// WithPthld overrides the metadata validity threshold.
func WithPthld(v float64) Option {
	return optionFunc(func(p *Peer) { p.pthld = v })
}

// WithPayloadBytes makes every transferred photo carry n synthetic payload
// bytes (stand-ins for image files); 0 sends metadata only.
func WithPayloadBytes(n int) Option {
	return optionFunc(func(p *Peer) { p.payload = n })
}

// WithSeed fixes the nonce stream for reproducible contacts.
func WithSeed(seed int64) Option {
	return optionFunc(func(p *Peer) { p.rng = rand.New(rand.NewSource(seed)) })
}

// WithMaxContacts bounds how many accepted contacts the peer serves
// concurrently (default 4×GOMAXPROCS). An accept over the limit is rejected
// with a clean abort — the connection is closed before any protocol byte,
// so the remote fails its hello and retries later — never queued behind
// running sessions. n < 1 restores the default.
func WithMaxContacts(n int) Option {
	return optionFunc(func(p *Peer) { p.maxContacts = n })
}

// WithObserver instruments the peer: contact/retry/abort counters, the
// selection subsystem's metrics, and session-abort trace events. A nil
// observer (the default) keeps every instrumentation site a no-op.
//
// Deprecated: prefer the unified photodtn.WithObserver option, which
// additionally covers the simulator and the selection layer with the same
// observer. This constructor keeps working.
func WithObserver(o *obs.Observer) Option {
	return optionFunc(func(p *Peer) { p.obsv = o })
}

// DefaultMaxFragmentBytes caps the cross-contact reassembly store: 256 MiB
// of tracked partial payloads, after which the least-recently-touched
// partial is evicted.
const DefaultMaxFragmentBytes = 256 << 20

// TransferConfig tunes chunked transfer. The zero value of any
// field means its default; construct via struct literal and set only what
// matters.
type TransferConfig struct {
	// ChunkSize is the preferred transfer chunk size in bytes (default
	// wire.DefaultChunkSize, 256 KiB). The contact uses the smaller of the
	// two peers' preferences.
	ChunkSize int
	// Window is the preferred number of unacknowledged chunks in flight
	// (default wire.DefaultWindow). Negotiated to the pairwise minimum.
	Window int
	// Resume persists partial transfers across contacts and offers them
	// back to senders. Effective only when both peers enable it.
	Resume bool
	// BudgetBytes caps the payload bytes sent per contact (the live
	// counterpart of the simulator's bandwidth×duration budget); 0 is
	// unlimited. A send list truncated by the budget simply stops — with
	// resume on, the receiver keeps the prefix and a later contact sends
	// the rest.
	BudgetBytes int64
	// MaxFragmentBytes caps the reassembly store's tracked payload bytes
	// (default DefaultMaxFragmentBytes; negative = unlimited).
	MaxFragmentBytes int64
}

// DefaultTransferConfig is the configuration a peer gets without
// WithTransfer: chunked transfer with resume enabled.
func DefaultTransferConfig() TransferConfig {
	return TransferConfig{
		ChunkSize:        wire.DefaultChunkSize,
		Window:           wire.DefaultWindow,
		Resume:           true,
		MaxFragmentBytes: DefaultMaxFragmentBytes,
	}
}

// normalize resolves zero fields to their defaults and clamps the rest.
func (tc TransferConfig) normalize() TransferConfig {
	def := DefaultTransferConfig()
	if tc.ChunkSize <= 0 {
		tc.ChunkSize = def.ChunkSize
	}
	if tc.ChunkSize > wire.MaxFrame/2 {
		tc.ChunkSize = wire.MaxFrame / 2 // headroom for metadata in the frame
	}
	if tc.Window <= 0 {
		tc.Window = def.Window
	}
	if tc.BudgetBytes < 0 {
		tc.BudgetBytes = 0
	}
	switch {
	case tc.MaxFragmentBytes == 0:
		tc.MaxFragmentBytes = def.MaxFragmentBytes
	case tc.MaxFragmentBytes < 0:
		tc.MaxFragmentBytes = 0 // store treats 0 as unlimited
	}
	return tc
}

// wireParams translates the config into handshake parameters.
func (tc TransferConfig) wireParams() wire.Params {
	return wire.Params{
		ChunkSize: uint32(tc.ChunkSize),
		Window:    uint16(tc.Window),
		Resume:    tc.Resume,
	}
}

// WithTransfer configures chunked, resumable photo transfer. Without it the peer uses DefaultTransferConfig. Zero-valued fields
// keep their defaults — except Resume, which the config states explicitly.
func WithTransfer(cfg TransferConfig) Option {
	return optionFunc(func(p *Peer) { p.transfer = cfg.normalize() })
}

// peerState bundles the mutable protocol state a contact reads and writes:
// the photo store, the metadata cache, the learned contact rate, and the
// PROPHET table. Sessions clone it at snapshot time and the commit path
// applies their op logs back to the shared copy (session.go); recovery
// replays journal records through the same apply code (durable.go).
type peerState struct {
	store *sim.Storage
	cache *metadata.Cache
	rate  *metadata.RateEstimator
	table *prophet.Table
}

// clone copies the protocol state for a session snapshot. The copies share
// nothing mutable; the metadata cache's immutable photo lists are shared.
func (st peerState) clone() peerState {
	return peerState{
		store: st.store.Clone(),
		cache: st.cache.Clone(),
		rate:  st.rate.Clone(),
		table: st.table.Clone(),
	}
}

// Peer is a live framework node. All exported methods are safe for
// concurrent use. Contacts run as concurrent sessions: each plans against a
// snapshot of the peer's state and commits under the peer lock in one short
// critical section, so a stalled remote never head-of-line-blocks the node.
type Peer struct {
	id  model.NodeID
	fpc *coverage.FootprintCache

	// mu guards the shared protocol state below. It is held only for short
	// snapshot/commit critical sections, never across contact IO.
	mu sync.Mutex
	peerState
	selCfg  selection.Config
	pthld   float64
	clock   func() float64
	payload int
	rng     *rand.Rand
	start   time.Time
	// storeGen counts committed mutations of the photo store (guarded by
	// mu). Sessions remember the generation they snapshotted; a commit that
	// would replace the collection re-plans or aborts when the generation
	// moved (see session.commit).
	storeGen uint64

	// Hardening knobs (see harden.go).
	frameTimeout   time.Duration
	contactTimeout time.Duration
	retryAttempts  int
	retryBase      time.Duration
	retryMax       time.Duration
	dial           func(ctx context.Context, addr string) (net.Conn, error)
	sleep          func(time.Duration)

	errMu          sync.Mutex
	contactErrs    int64
	lastContactErr error
	serving        atomic.Bool

	// Concurrency accounting: maxContacts bounds serve-side admissions
	// (active), inflight counts every live session (served + dialled).
	maxContacts int
	active      atomic.Int64
	inflight    atomic.Int64

	// Transfer: configuration, the cross-contact reassembly
	// store, and node-local stat counters that work without an observer.
	transfer       TransferConfig
	frags          *transfer.Store
	tChunksSent    atomic.Int64
	tChunksRecv    atomic.Int64
	tChunksResumed atomic.Int64
	tPhotosRes     atomic.Int64
	tResumedBytes  atomic.Int64
	tWastedLocal   atomic.Int64 // wasted bytes outside the shared store

	// Observability (nil — no-op — unless WithObserver is given).
	obsv           *obs.Observer
	cContacts      *obs.Counter
	cRetries       *obs.Counter
	cAborts        *obs.Counter
	cConflicts     *obs.Counter
	cRejects       *obs.Counter
	cAcceptRetries *obs.Counter
	cChunksSent    *obs.Counter
	cChunksRecv    *obs.Counter
	cChunksResumed *obs.Counter
	cWastedBytes   *obs.Counter
	hResumeRate    *obs.Histogram
	gInflight      *obs.Gauge

	// Adversarial hardening (nil — no-op — unless WithGuard is given; see
	// guard.go).
	guardOn  bool
	guardCfg guard.Config
	guard    *guard.Guard

	// Durability (zero — memory-only — unless WithJournal is given; see
	// durable.go).
	stateDir   string
	jfs        journal.FS
	jnl        *journal.Journal
	journalErr error
	commits    uint64 // durably committed contacts, recovered + live
	snapEvery  int
	sinceSnap  int
}

// New creates a peer. The command center (id 0) gets unbounded storage and
// always reports delivery probability 1.
func New(id model.NodeID, m *coverage.Map, capacity int64, opts ...Option) *Peer {
	p := &Peer{
		id:     id,
		fpc:    coverage.NewFootprintCache(m),
		selCfg: selection.DefaultConfig(),
		pthld:  metadata.DefaultPthld,
		rng:    rand.New(rand.NewSource(time.Now().UnixNano())),
		start:  time.Now(),

		frameTimeout:  DefaultFrameTimeout,
		retryAttempts: DefaultRetryAttempts,
		retryBase:     DefaultRetryBase,
		retryMax:      DefaultRetryMax,
		sleep:         time.Sleep,

		snapEvery: DefaultSnapshotEvery,
		transfer:  DefaultTransferConfig(),
	}
	p.rate = metadata.NewRateEstimator()
	p.table = prophet.NewTable(id, prophet.DefaultConfig())
	if id.IsCommandCenter() {
		capacity = math.MaxInt64 / 4
	}
	p.store = sim.NewStorage(capacity)
	for _, o := range opts {
		o.Apply(p)
	}
	if p.clock == nil {
		p.clock = func() float64 { return time.Since(p.start).Seconds() }
	}
	if p.dial == nil {
		p.dial = func(ctx context.Context, addr string) (net.Conn, error) {
			d := net.Dialer{Timeout: p.frameTimeout}
			return d.DialContext(ctx, "tcp", addr)
		}
	}
	if p.maxContacts < 1 {
		p.maxContacts = 4 * runtime.GOMAXPROCS(0)
	}
	p.cache = metadata.NewCache(id, p.pthld)
	p.cContacts = p.obsv.Counter("peer.contacts")
	p.cRetries = p.obsv.Counter("peer.contact_retries")
	p.cAborts = p.obsv.Counter("peer.contact_aborts")
	p.cConflicts = p.obsv.Counter("peer.commit_conflicts")
	p.cRejects = p.obsv.Counter("peer.admission_rejected")
	p.cAcceptRetries = p.obsv.Counter("peer.accept_retries")
	p.cChunksSent = p.obsv.Counter("transfer.chunks_sent")
	p.cChunksRecv = p.obsv.Counter("transfer.chunks_received")
	p.cChunksResumed = p.obsv.Counter("transfer.chunks_resumed")
	p.cWastedBytes = p.obsv.Counter("transfer.wasted_bytes")
	p.hResumeRate = p.obsv.Histogram("transfer.resume_rate")
	p.gInflight = p.obsv.Gauge("peer.contacts_inflight")
	p.frags = transfer.NewStore(p.transfer.MaxFragmentBytes)
	if p.obsv != nil {
		p.selCfg.Metrics = selection.ObserverMetrics(p.obsv)
	}
	p.fpc.SetMetrics(p.obsv.Counter("coverage.fp_cache_hits"), p.obsv.Counter("coverage.fp_cache_misses"))
	p.initGuard()
	if p.stateDir != "" {
		// Recovery failures are sticky rather than fatal here (New cannot
		// return an error): the peer exists but refuses to mutate state it
		// cannot make durable. Open surfaces the error directly.
		p.journalErr = p.openJournal()
	}
	return p
}

// ID returns the peer's node ID.
func (p *Peer) ID() model.NodeID { return p.id }

// MaxContacts returns the serve-side admission limit (see WithMaxContacts).
func (p *Peer) MaxContacts() int { return p.maxContacts }

// AddPhoto stores a locally taken photo (rejecting it if it cannot fit).
// Durable peers journal the admission before reporting success.
func (p *Peer) AddPhoto(photo model.Photo) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.journalErr != nil {
		return fmt.Errorf("peer %v: %w", p.id, p.journalErr)
	}
	if err := p.store.Add(photo); err != nil {
		return fmt.Errorf("peer %v: %w", p.id, err)
	}
	if p.jnl != nil {
		if err := p.jnl.Append(recPhotoAdd, photo.AppendBinary(nil)); err != nil {
			p.store.Remove(photo.ID) // keep memory behind, not ahead of, disk
			p.journalErr = fmt.Errorf("%w: journal photo: %w", ErrJournal, err)
			return fmt.Errorf("peer %v: %w", p.id, p.journalErr)
		}
	}
	p.storeGen++
	return nil
}

// Photos returns the current collection.
func (p *Peer) Photos() model.PhotoList {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.store.List()
}

// Coverage returns the photo coverage of the current collection — for the
// command center, the objective C_ph(F_0).
func (p *Peer) Coverage() coverage.Coverage {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.fpc.Map().Of(p.store.List())
}

// DeliveryProb returns the peer's current PROPHET probability of reaching
// the command center.
func (p *Peer) DeliveryProb() float64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.table.DeliveryProb(p.clock())
}

// InflightContacts returns how many contact sessions (served + dialled) are
// currently running.
func (p *Peer) InflightContacts() int { return int(p.inflight.Load()) }

// Serve accepts contacts on the listener until it is closed, handling up to
// MaxContacts connections concurrently (admission beyond that is rejected
// by closing the connection — see WithMaxContacts). A contact that fails —
// timeout, corruption, protocol violation — is recorded (ContactErrors,
// LastContactError) and the peer keeps serving: one misbehaving or stalled
// remote must not take the node offline. Transient accept failures (EMFILE,
// ECONNABORTED, ...) are retried with capped backoff; only net.ErrClosed,
// context cancellation, or a permanent error end the loop. It is a
// ServeContext with the background context: it runs until the caller closes
// the listener.
func (p *Peer) Serve(l net.Listener) error {
	return p.ServeContext(context.Background(), l)
}

// ServeContext is Serve under a context: cancelling ctx closes the listener,
// interrupts the contacts in progress (their connections are
// deadline-poisoned), and returns ctx's error after the in-flight sessions
// drain. Closing the listener directly still stops the loop with a nil
// error, exactly like Serve.
func (p *Peer) ServeContext(ctx context.Context, l net.Listener) error {
	if ctx == nil {
		ctx = context.Background()
	}
	if !p.serving.CompareAndSwap(false, true) {
		return fmt.Errorf("peer %v: %w", p.id, ErrServing)
	}
	defer p.serving.Store(false)
	stop := context.AfterFunc(ctx, func() { _ = l.Close() })
	defer stop()
	var wg sync.WaitGroup
	defer wg.Wait()
	backoff := p.retryBase
	for {
		conn, err := l.Accept()
		if err != nil {
			if cerr := ctx.Err(); cerr != nil {
				return fmt.Errorf("peer %v: serve interrupted: %w", p.id, cerr)
			}
			if errors.Is(err, net.ErrClosed) {
				return nil
			}
			if transientAccept(err) {
				// EMFILE, ECONNABORTED and friends starve themselves out;
				// returning here would take the whole node offline over a
				// burst of them.
				p.cAcceptRetries.Inc()
				if werr := p.wait(ctx, backoff); werr != nil {
					return fmt.Errorf("peer %v: serve interrupted: %w", p.id, werr)
				}
				backoff *= 2
				if backoff > p.retryMax {
					backoff = p.retryMax
				}
				continue
			}
			return fmt.Errorf("peer %v: accept: %w", p.id, err)
		}
		backoff = p.retryBase
		if !p.admitContact() {
			// Over the limit: reject cleanly rather than queue. The remote
			// sees its hello fail and treats it like any aborted contact.
			p.cRejects.Inc()
			_ = conn.Close()
			continue
		}
		wg.Add(1)
		go func(conn net.Conn) {
			defer wg.Done()
			defer p.active.Add(-1)
			err := p.contactCancellable(ctx, conn, false)
			_ = conn.Close()
			if err != nil && !errors.Is(err, io.EOF) {
				p.noteContactError(err)
			}
		}(conn)
	}
}

// admitContact claims a serve-side concurrency slot (released by the
// session goroutine).
func (p *Peer) admitContact() bool {
	for {
		n := p.active.Load()
		if n >= int64(p.maxContacts) {
			return false
		}
		if p.active.CompareAndSwap(n, n+1) {
			return true
		}
	}
}

// Contact dials the address and initiates a contact, retrying transient
// dial/IO failures with capped exponential backoff (see WithRetry). A
// contact abort is safe to retry from scratch: storage mutations are
// atomic at contact commit, so a failed attempt leaves no partial state. It
// is a DialContext with the background context.
func (p *Peer) Contact(addr string) error {
	return p.DialContext(context.Background(), addr)
}

// DialContext is Contact under a context: the dial honours ctx, a
// cancellation mid-contact poisons the connection's deadline so the contact
// aborts at its next frame, and backoff sleeps between retries end early.
// On cancellation the returned error wraps ctx's error alongside the
// underlying failure, so errors.Is matches both.
func (p *Peer) DialContext(ctx context.Context, addr string) error {
	if ctx == nil {
		ctx = context.Background()
	}
	backoff := p.retryBase
	attempts := p.retryAttempts
	if attempts < 1 {
		attempts = 1
	}
	var err error
	for attempt := 1; ; attempt++ {
		err = p.contactOnce(ctx, addr)
		if cerr := ctx.Err(); cerr != nil && err != nil {
			// The failure happened under a cancelled context — report the
			// cancellation joined with the IO error it surfaced as, so
			// callers can match either cause.
			err = fmt.Errorf("peer %v: contact interrupted: %w", p.id, errors.Join(cerr, err))
			p.noteContactError(err)
			return err
		}
		if err == nil || attempt >= attempts || !transient(err) {
			if err != nil {
				err = classifyContactErr(err)
				p.noteContactError(err)
			}
			return err
		}
		p.cRetries.Inc()
		if werr := p.wait(ctx, backoff); werr != nil {
			err = fmt.Errorf("peer %v: contact interrupted: %w", p.id, errors.Join(werr, err))
			p.noteContactError(err)
			return err
		}
		backoff *= 2
		if backoff > p.retryMax {
			backoff = p.retryMax
		}
	}
}

func (p *Peer) contactOnce(ctx context.Context, addr string) error {
	conn, err := p.dial(ctx, addr)
	if err != nil {
		return fmt.Errorf("peer %v: dial %s: %w", p.id, addr, err)
	}
	defer func() { _ = conn.Close() }()
	return p.contactCancellable(ctx, conn, true)
}

// contactCancellable runs one contact, poisoning the connection's deadline
// the moment ctx is cancelled so a blocked frame read/write fails promptly
// instead of waiting out its frame timeout. A failure under a cancelled
// context reports both causes — the cancellation and the IO/protocol error
// it surfaced as — joined, so errors.Is matches either.
func (p *Peer) contactCancellable(ctx context.Context, conn net.Conn, initiator bool) error {
	if ctx.Done() != nil {
		stop := context.AfterFunc(ctx, func() { _ = conn.SetDeadline(time.Now()) })
		defer stop()
	}
	err := p.ContactConn(conn, initiator)
	if cerr := ctx.Err(); cerr != nil && err != nil {
		return fmt.Errorf("peer %v: contact interrupted: %w", p.id, errors.Join(cerr, err))
	}
	return err
}

// wait sleeps for d or until ctx is cancelled. Without a cancellable
// context it defers to the injected sleep (tests replace it to skip
// backoff).
func (p *Peer) wait(ctx context.Context, d time.Duration) error {
	if ctx.Done() == nil {
		p.sleep(d)
		return nil
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

// ContactConn runs one contact over an established connection. When the
// transport supports deadlines (net.Conn does), every frame read/write is
// bounded by the frame timeout and the whole contact by the contact
// timeout, so a stalled remote ends the contact with ErrTimeout instead of
// hanging. Any mid-contact failure aborts gracefully: unfinished transfers
// are discarded and the peer's storage and metadata caches stay exactly as
// the last committed session left them — an aborted session leaves no
// partial state, in memory or on disk.
func (p *Peer) ContactConn(conn io.ReadWriter, initiator bool) error {
	conn = newTimedConn(conn, p.frameTimeout, p.contactTimeout)
	if err := p.runContact(conn, initiator); err != nil {
		return fmt.Errorf("peer %v: contact aborted: %w", p.id, err)
	}
	return nil
}

// runContact brackets one contact with the session protocol: snapshot the
// peer state, run the wire exchange against the snapshot, and commit the
// session's op log in one short critical section (session.go). The journal
// sees exactly one record per committed contact, appended under the peer
// lock — the single-writer WAL discipline of durable.go is unchanged.
func (p *Peer) runContact(conn io.ReadWriter, initiator bool) error {
	s, err := p.beginSession()
	if err != nil {
		return err
	}
	if p.guard != nil {
		gc := &guardConn{rw: conn, p: p}
		s.gc = gc
		conn = gc
	}
	p.inflight.Add(1)
	p.gInflight.Add(1)
	defer func() {
		p.inflight.Add(-1)
		p.gInflight.Add(-1)
	}()
	defer s.finishTransfer()
	if err := s.run(conn, initiator); err != nil {
		return err
	}
	if s.committed {
		return nil
	}
	return s.commit()
}

// TransferStats aggregates the peer's chunked-transfer activity: the wire
// counters (maintained whether or not an observer is attached) merged with
// the reassembly store's footprint.
type TransferStats struct {
	// ChunksSent and ChunksReceived count chunk frames on the wire.
	ChunksSent     int64
	ChunksReceived int64
	// ChunksResumed counts chunks a resume offer let the sender skip;
	// ResumedBytes are their payload bytes — traffic saved by persistence.
	ChunksResumed int64
	ResumedBytes  int64
	// PhotosResumed counts photos completed across more than one contact.
	PhotosResumed int64
	// Partials and FragmentBytes are the reassembly store's current
	// footprint; WastedBytes counts received bytes that never contributed
	// to an admitted photo (discards, mismatches, evictions), across both
	// the shared store and contact-local scratch stores.
	Partials      int
	FragmentBytes int64
	WastedBytes   int64
}

// TransferStats returns a snapshot of the peer's transfer counters.
func (p *Peer) TransferStats() TransferStats {
	st := p.frags.Stats()
	return TransferStats{
		ChunksSent:     p.tChunksSent.Load(),
		ChunksReceived: p.tChunksRecv.Load(),
		ChunksResumed:  p.tChunksResumed.Load(),
		ResumedBytes:   p.tResumedBytes.Load(),
		PhotosResumed:  p.tPhotosRes.Load(),
		Partials:       st.Partials,
		FragmentBytes:  st.FragmentBytes,
		WastedBytes:    st.WastedBytes + p.tWastedLocal.Load(),
	}
}
