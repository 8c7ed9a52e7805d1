// Package photodtn is a Go implementation of "Resource-Aware Photo
// Crowdsourcing Through Disruption Tolerant Networks" (Wu, Wang, Hu, Zhang,
// Cao — ICDCS 2016): a framework that crowdsources photos over DTNs and
// spends the scarce storage and bandwidth only on the photos that maximise
// the command center's photo coverage.
//
// The package is a facade over the implementation packages:
//
//   - The photo coverage model (§II): Photo metadata, PoIs, point/aspect
//     coverage and the lexicographic Coverage value (NewMap, Map.Of).
//   - Expected coverage and the greedy photo selection algorithm (§III):
//     Reallocate, SelectForUpload, ExpectedCoverage.
//   - Metadata management (§III-B): MetadataCache, RateEstimator.
//   - PROPHET delivery predictability: ProphetTable.
//   - Contact traces: synthetic MIT-Reality-like and Cambridge06-like
//     generators, codec, statistics (GenerateTrace, ReadTrace, ...).
//   - The discrete-event simulator and the paper's baselines
//     (RunSimulation, NewSprayAndWait, NewPhotoNet, ...).
//   - Live TCP peers speaking the contact protocol (NewPeer).
//   - Experiment harnesses regenerating every figure and table of the
//     paper's evaluation (the experiments aliases and cmd/photodtn-experiments).
//
// # Observability and cancellation
//
// Every layer accepts the same observer through one option: pass
// WithObserver to RunSimulation, DefaultSelectionConfig, or NewPeer and the
// simulator, the selection machinery, and the live peer all report into the
// same registry. The per-layer hooks (sim.Config.Obs, selection
// Config.Metrics, the peer WithObserver option) still work but are
// deprecated in favour of this single entry point.
//
// Long-running entry points have context-aware forms — RunSimulationContext,
// Peer.DialContext, Peer.ServeContext — and experiment harnesses run on a
// parallel orchestrator (ExperimentOptions.Workers) with durable
// checkpoint/resume (OpenRunCheckpoint). The context-free names remain as
// thin context.Background wrappers.
//
// See README.md for a tour and DESIGN.md for the system inventory.
package photodtn

import (
	"context"
	"io"

	"photodtn/internal/camera"
	"photodtn/internal/core"
	"photodtn/internal/coverage"
	"photodtn/internal/experiments"
	"photodtn/internal/geo"
	"photodtn/internal/guard"
	"photodtn/internal/metadata"
	"photodtn/internal/mobility"
	"photodtn/internal/model"
	"photodtn/internal/obs"
	"photodtn/internal/peer"
	"photodtn/internal/prophet"
	"photodtn/internal/routing"
	"photodtn/internal/runner"
	"photodtn/internal/selection"
	"photodtn/internal/sensor"
	"photodtn/internal/sim"
	"photodtn/internal/trace"
	"photodtn/internal/wire"
	"photodtn/internal/workload"
)

// Domain model (§II-A).
type (
	// Photo is the metadata tuple (l, r, φ, d) plus bookkeeping.
	Photo = model.Photo
	// PhotoID identifies a photo (owner node + sequence).
	PhotoID = model.PhotoID
	// PhotoList is a photo collection.
	PhotoList = model.PhotoList
	// NodeID identifies a participant; 0 is the command center.
	NodeID = model.NodeID
	// PoI is a point of interest.
	PoI = model.PoI
	// Vec is a 2-D point or direction in metres.
	Vec = geo.Vec
	// Rect is an axis-aligned region.
	Rect = geo.Rect
)

// Square returns a side×side region anchored at the origin.
func Square(side float64) Rect { return geo.Square(side) }

// CommandCenter is the command center's node ID (n0).
const CommandCenter = model.CommandCenter

// Coverage model (§II).
type (
	// Coverage is the lexicographic (point, aspect) photo coverage value.
	Coverage = coverage.Coverage
	// Map fixes a PoI list and effective angle and answers coverage
	// queries.
	Map = coverage.Map
	// CoverageState tracks the coverage of a growing photo collection.
	CoverageState = coverage.State
	// Footprint is a photo's compiled coverage contribution.
	Footprint = coverage.Footprint
	// FootprintCache memoizes footprints per photo.
	FootprintCache = coverage.FootprintCache
)

// MapOption customises map construction (cell size, aspect profiles).
type MapOption = coverage.MapOption

// AspectProfile weights a PoI's aspects (§II-C extension).
type AspectProfile = coverage.AspectProfile

// WithAspectProfile installs a weighted-aspect profile for a PoI.
var WithAspectProfile = coverage.WithAspectProfile

// NewMap builds a coverage map over the PoIs with effective angle theta
// (radians).
func NewMap(pois []PoI, theta float64, opts ...MapOption) *Map {
	return coverage.NewMap(pois, theta, opts...)
}

// NewFootprintCache builds a footprint memoizer over a map.
func NewFootprintCache(m *Map) *FootprintCache { return coverage.NewFootprintCache(m) }

// NewPoI returns a unit-weight PoI.
func NewPoI(id int, loc Vec) PoI { return model.NewPoI(id, loc) }

// Selection algorithm (§III).
type (
	// SelectionConfig tunes expected-coverage evaluation.
	SelectionConfig = selection.Config
	// Participant is one node of the expected-coverage node set M.
	Participant = selection.Participant
	// Alloc describes one side of a contact for reallocation.
	Alloc = selection.Alloc
	// ReallocationResult is the outcome of the two-node greedy.
	ReallocationResult = selection.Result
	// SelectionSession owns the reusable buffers of the selection phase —
	// evaluator, scenario overlays, compiled residuals, candidate arena,
	// CELF heap, dedup maps — and recycles them across contacts. One session
	// serves one goroutine at a time; selected photo lists it returns are
	// freshly allocated and safe to keep.
	SelectionSession = selection.Session
)

// NewSelectionSession returns an empty session. Long-lived callers that run
// a selection per contact (as core.Scheme does) should hold one session and
// call its Reallocate/SelectForUpload methods; the steady state then
// allocates only the returned selections.
func NewSelectionSession() *SelectionSession { return selection.NewSession() }

// DefaultSelectionConfig returns the evaluation defaults, customised by any
// unified options (e.g. WithObserver) that apply to the selection layer.
func DefaultSelectionConfig(opts ...Option) SelectionConfig {
	cfg := selection.DefaultConfig()
	for _, o := range opts {
		o.applySelection(&cfg)
	}
	return cfg
}

// ExpectedCoverage evaluates Definition 2 for the node set.
func ExpectedCoverage(m *Map, cfg SelectionConfig, ccPhotos PhotoList, parts []Participant) Coverage {
	return selection.ExpectedCoverage(m, cfg, ccPhotos, parts)
}

// Reallocate runs the §III-D two-node greedy reallocation. It borrows a
// pooled SelectionSession for the call; hold your own session when running
// one selection per contact.
func Reallocate(fpc *FootprintCache, cfg SelectionConfig, ccPhotos PhotoList, background []Participant, a, b Alloc) ReallocationResult {
	return selection.Reallocate(fpc, cfg, ccPhotos, background, a, b)
}

// SelectForUpload orders a node's photos by marginal gain over the command
// center's collection. It borrows a pooled SelectionSession for the call.
func SelectForUpload(fpc *FootprintCache, cfg SelectionConfig, ccPhotos, nodePhotos PhotoList) PhotoList {
	return selection.SelectForUpload(fpc, cfg, ccPhotos, nodePhotos)
}

// Metadata management (§III-B) and PROPHET.
type (
	// MetadataCache is a node's knowledge about other nodes' photos. Its
	// photo lists are immutable and shared: Put takes ownership of the
	// list it is given.
	MetadataCache = metadata.Cache
	// MetadataEntry is one cached snapshot.
	MetadataEntry = metadata.Entry
	// RateEstimator learns a node's aggregate contact rate λ.
	RateEstimator = metadata.RateEstimator
	// ProphetConfig holds the PROPHET constants.
	ProphetConfig = prophet.Config
	// ProphetTable is a node's delivery-predictability table.
	ProphetTable = prophet.Table
)

// NewMetadataCache returns an empty cache with validity threshold pthld.
func NewMetadataCache(owner NodeID, pthld float64) *MetadataCache {
	return metadata.NewCache(owner, pthld)
}

// NewRateEstimator returns an estimator with no history.
func NewRateEstimator() *RateEstimator { return metadata.NewRateEstimator() }

// NewProphetTable returns an empty table for the owner.
func NewProphetTable(owner NodeID, cfg ProphetConfig) *ProphetTable {
	return prophet.NewTable(owner, cfg)
}

// DefaultProphetConfig returns the Table I PROPHET constants.
func DefaultProphetConfig() ProphetConfig { return prophet.DefaultConfig() }

// Contact traces.
type (
	// Trace is a contact trace.
	Trace = trace.Trace
	// Contact is one recorded contact.
	Contact = trace.Contact
	// TraceSynthConfig parameterises the synthetic generator.
	TraceSynthConfig = trace.SynthConfig
)

// Geometric mobility (extension; see DESIGN.md).
type (
	// MobilityConfig parameterises the random-waypoint world.
	MobilityConfig = mobility.Config
	// Track is one node's trajectory.
	Track = mobility.Track
)

// Mobility entry points.
var (
	// GenerateTracks draws random-waypoint trajectories.
	GenerateTracks = mobility.GenerateTracks
	// ExtractContacts turns trajectories into a contact trace.
	ExtractContacts = mobility.ExtractContacts
	// AimedPhotoWorkload places photos on trajectories, aimed at nearby
	// PoIs.
	AimedPhotoWorkload = mobility.AimedPhotoWorkload
	// DefaultMobilityConfig returns a pedestrian scenario.
	DefaultMobilityConfig = mobility.DefaultConfig
)

// GenerateTrace produces a synthetic community-structured trace.
func GenerateTrace(cfg TraceSynthConfig) (*Trace, error) { return trace.Generate(cfg) }

// MITLikeTrace returns the MIT-Reality-like generator configuration.
func MITLikeTrace(seed int64) TraceSynthConfig { return trace.MITLike(seed) }

// CambridgeLikeTrace returns the Cambridge06-like generator configuration.
func CambridgeLikeTrace(seed int64) TraceSynthConfig { return trace.CambridgeLike(seed) }

// Simulation.
type (
	// SimConfig describes one simulation run.
	SimConfig = sim.Config
	// SimResult summarises one run.
	SimResult = sim.Result
	// SimAverage aggregates repeated runs.
	SimAverage = sim.Average
	// Scheme is a routing/selection policy under evaluation.
	Scheme = sim.Scheme
	// PhotoEvent is one workload item.
	PhotoEvent = sim.PhotoEvent
	// FrameworkConfig tunes the paper's framework scheme.
	FrameworkConfig = core.Config
	// WorkloadConfig parameterises photo generation.
	WorkloadConfig = workload.Config
)

// RunSimulation executes one run of a scheme. Unified options (e.g.
// WithObserver) apply on top of the config.
func RunSimulation(cfg SimConfig, s Scheme, opts ...Option) (*SimResult, error) {
	return RunSimulationContext(context.Background(), cfg, s, opts...)
}

// RunSimulationContext is RunSimulation under a context: cancelling ctx
// aborts the event loop promptly and returns the context's error.
func RunSimulationContext(ctx context.Context, cfg SimConfig, s Scheme, opts ...Option) (*SimResult, error) {
	for _, o := range opts {
		o.applySim(&cfg)
	}
	return sim.RunContext(ctx, cfg, s)
}

// NewFramework returns the paper's scheme ("OurScheme"; set DisableMetadata
// for the NoMetadata baseline).
func NewFramework(cfg FrameworkConfig) Scheme { return core.New(cfg) }

// DefaultFrameworkConfig returns the Table I framework configuration.
func DefaultFrameworkConfig() FrameworkConfig { return core.DefaultConfig() }

// NewSprayAndWait returns binary Spray&Wait with the paper's 4 copies.
func NewSprayAndWait() Scheme { return routing.NewSprayAndWait() }

// NewModifiedSpray returns the coverage-aware spray baseline.
func NewModifiedSpray() Scheme { return routing.NewModifiedSpray() }

// NewPhotoNet returns the diversity-driven baseline.
func NewPhotoNet() Scheme { return routing.NewPhotoNet() }

// NewBestPossible returns the unconstrained epidemic upper bound.
func NewBestPossible() Scheme { return routing.NewBestPossible() }

// NewEpidemic returns constrained epidemic flooding.
func NewEpidemic() Scheme { return routing.NewEpidemic() }

// NewProphetRouting returns the PROPHET-forwarding baseline.
func NewProphetRouting() Scheme { return routing.NewProphetRouting() }

// Live peers and the prototype pipeline.
type (
	// Peer is a live framework node speaking the wire protocol.
	Peer = peer.Peer
	// PeerOption customises a Peer.
	PeerOption = peer.Option
	// PhoneConfig describes a simulated camera phone.
	PhoneConfig = camera.Config
	// Phone simulates a handset with sensors and the metadata pipeline.
	Phone = camera.Phone
	// SensorNoise configures the simulated IMU.
	SensorNoise = sensor.Noise
)

// NewPeer creates a live node (see peer.New).
func NewPeer(id NodeID, m *Map, capacity int64, opts ...PeerOption) *Peer {
	return peer.New(id, m, capacity, opts...)
}

// OpenPeer creates a durable live node rooted at dir, recovering any state a
// previous incarnation journaled there (see peer.Open and DESIGN.md §7).
func OpenPeer(dir string, id NodeID, m *Map, capacity int64, opts ...PeerOption) (*Peer, error) {
	return peer.Open(dir, id, m, capacity, opts...)
}

// PeerJournalStats describes a durable peer's recovery and commit history.
type PeerJournalStats = peer.JournalStats

// TransferConfig tunes chunked, resumable photo transfer: chunk size,
// pipeline window, per-contact byte budget, and whether partial transfers
// persist across contacts. Pass it through WithTransfer.
type TransferConfig = peer.TransferConfig

// PeerTransferStats aggregates a live peer's chunked-transfer activity
// (see Peer.TransferStats).
type PeerTransferStats = peer.TransferStats

// GuardConfig tunes a peer's adversarial hardening: per-peer rate limits,
// the misbehavior score and quarantine TTL, clock-skew and size bounds for
// semantic validation, and the metadata cache caps. Zero fields take the
// documented defaults; pass it through WithGuard.
type GuardConfig = guard.Config

// GuardStats is a guarded peer's activity snapshot: violations by reason,
// shed contacts, and active quarantines (see Peer.GuardStats).
type GuardStats = guard.Stats

// Guard sentinels, re-exported for errors.Is against Contact/DialContext
// failures. All three also classify as contact rejections (never retried).
var (
	// ErrProtocolViolation reports an inbound message the protocol state
	// machine or a semantic validator rejected.
	ErrProtocolViolation = peer.ErrProtocolViolation
	// ErrPeerQuarantined reports a contact with a remote inside its
	// quarantine TTL.
	ErrPeerQuarantined = peer.ErrPeerQuarantined
	// ErrRateLimited reports a contact shed by the per-peer rate budget.
	ErrRateLimited = peer.ErrRateLimited
)

// ProtocolVersion is the wire protocol version this build speaks: chunked,
// resumable transfer behind a Hello/HelloAck handshake. Every hello
// carries it; a peer that speaks only the retired whole-photo version 1
// fails the handshake.
const ProtocolVersion = wire.ProtocolVersion

// Peer options re-exported for facade users.
var (
	// WithClock injects a logical clock into a peer.
	WithClock = peer.WithClock
	// WithSeed fixes a peer's nonce stream.
	WithSeed = peer.WithSeed
	// WithPthld overrides a peer's metadata validity threshold.
	WithPthld = peer.WithPthld
	// WithPayloadBytes sizes the synthetic image payloads on the wire.
	WithPayloadBytes = peer.WithPayloadBytes
	// WithSelectionConfig overrides a peer's evaluation settings.
	WithSelectionConfig = peer.WithSelectionConfig
	// WithJournal makes a peer durable: its state journals to the directory
	// and survives restarts (OpenPeer is the error-reporting form).
	WithJournal = peer.WithJournal
	// WithSnapshotEvery sets how many committed contacts trigger a
	// snapshot + journal compaction.
	WithSnapshotEvery = peer.WithSnapshotEvery
	// WithMaxContacts bounds how many contacts a serving peer handles
	// concurrently (excess accepts are rejected with a clean abort).
	WithMaxContacts = peer.WithMaxContacts
	// WithGuard arms a peer's adversarial hardening: protocol state
	// machine violation scoring, semantic validation of inbound messages,
	// per-peer rate limiting, and a journaled TTL quarantine. Without it
	// the contact path is bit-identical to an unguarded peer.
	WithGuard = peer.WithGuard
)

// Unified observability (see DESIGN.md).
type (
	// Observer collects metrics and an event trace across every layer.
	Observer = obs.Observer
	// ObsEvent is one trace event.
	ObsEvent = obs.Event
)

// NewObserver builds an observer keeping at most traceCap trace events in
// memory; a non-nil sink receives every event as JSON lines. traceCap 0
// disables the in-memory trace.
func NewObserver(traceCap int, sink io.Writer) *Observer { return obs.New(traceCap, sink) }

// Option configures any layer of the framework from one value: it is a
// PeerOption (pass it to NewPeer), a simulation option (pass it to
// RunSimulation), and a selection option (pass it to
// DefaultSelectionConfig). Implementations live in this package —
// WithObserver is the canonical one.
type Option interface {
	PeerOption
	applySim(cfg *sim.Config)
	applySelection(cfg *selection.Config)
}

// WithObserver wires one observer into whichever layer the option is given
// to: the simulator (RunSimulation), the selection machinery
// (DefaultSelectionConfig), or a live peer (NewPeer). It replaces the three
// per-layer hooks sim.Config.Obs, selection Config.Metrics, and the peer
// WithObserver option, which remain for compatibility but are deprecated.
func WithObserver(o *Observer) Option { return observerOption{o: o} }

type observerOption struct{ o *Observer }

// Apply implements PeerOption.
func (w observerOption) Apply(p *Peer) { peer.WithObserver(w.o).Apply(p) }

func (w observerOption) applySim(cfg *sim.Config) { cfg.Obs = w.o }

func (w observerOption) applySelection(cfg *selection.Config) {
	cfg.Metrics = selection.ObserverMetrics(w.o)
}

// WithTransfer configures resumable chunked transfer in whichever layer the
// option is given to: a live peer (NewPeer) negotiates the chunk size,
// window, and resume flag into its contacts, and a simulation
// (RunSimulation) maps Resume onto the engine's fragment-carryover
// accounting (SimConfig.FragmentCarryover). The default — no option — keeps
// resume on for peers and carryover off for simulations, so published
// figures stay byte-identical.
func WithTransfer(cfg TransferConfig) Option { return transferOption{cfg: cfg} }

type transferOption struct{ cfg TransferConfig }

// Apply implements PeerOption.
func (t transferOption) Apply(p *Peer) { peer.WithTransfer(t.cfg).Apply(p) }

func (t transferOption) applySim(cfg *sim.Config) { cfg.FragmentCarryover = t.cfg.Resume }

func (t transferOption) applySelection(*selection.Config) {}

// RunCheckpoint is a durable record of completed experiment cells; pass one
// through ExperimentOptions.Checkpoint to make interrupted sweeps resumable.
type RunCheckpoint = runner.Checkpoint

// OpenRunCheckpoint opens (creating if needed) a checkpoint file and loads
// every completed cell recorded in it. Close it when the experiment is done.
func OpenRunCheckpoint(path string) (*RunCheckpoint, error) { return runner.OpenCheckpoint(path) }

// NewPhone creates a simulated camera phone (see camera.NewPhone).
func NewPhone(owner NodeID, cfg PhoneConfig, seed int64) (*Phone, error) {
	return camera.NewPhone(owner, cfg, seed)
}

// DefaultPhoneConfig returns a Nexus-4-like camera configuration.
func DefaultPhoneConfig() PhoneConfig { return camera.DefaultConfig() }

// Experiments: the paper's evaluation, regenerable programmatically.
type (
	// ExperimentOptions controls experiment scale.
	ExperimentOptions = experiments.Options
	// ExperimentFigure is a reproduced figure.
	ExperimentFigure = experiments.Figure
	// ExperimentParams is a simulation scenario in the paper's units.
	ExperimentParams = experiments.Params
	// DemoResult is the reproduced §IV prototype demonstration.
	DemoResult = experiments.DemoResult
	// DemoConfig parameterises the prototype demonstration.
	DemoConfig = experiments.DemoConfig
)

// Experiment entry points; see the experiments package for details.
var (
	// Fig5 regenerates coverage-vs-time (Fig. 5).
	Fig5 = experiments.Fig5
	// Fig6 regenerates the contact-duration study (Fig. 6).
	Fig6 = experiments.Fig6
	// Fig7 regenerates the storage sweep (Fig. 7).
	Fig7 = experiments.Fig7
	// Fig8 regenerates the generation-rate sweep (Fig. 8).
	Fig8 = experiments.Fig8
	// RunDemo regenerates the §IV prototype demo (Fig. 3/4).
	RunDemo = experiments.RunDemo
	// DefaultDemoConfig returns the paper's demo setup.
	DefaultDemoConfig = experiments.DefaultDemoConfig
	// FormatTable1 renders Table I from the code's defaults.
	FormatTable1 = experiments.FormatTable1
)

// Degrees and Radians convert angles.
func Degrees(rad float64) float64 { return geo.Degrees(rad) }

// Radians converts degrees to radians.
func Radians(deg float64) float64 { return geo.Radians(deg) }
