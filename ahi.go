// Package ahi is the public API of the Adaptive Hybrid Indexes library, a
// from-scratch Go reproduction of Anneser et al., "Adaptive Hybrid
// Indexes" (SIGMOD 2022).
//
// The library has three layers:
//
//   - The adaptation framework (Manager): sampling-based hot/cold
//     classification with adaptive skip lengths and error-bounded top-k
//     sample sizes, driving encoding migrations through index-supplied
//     callbacks. Embed it to make any index workload-adaptive.
//
//   - The Hybrid B+-tree (BTree): three leaf encodings — Gapped, Packed
//     and Succinct (frame-of-reference + bit packing) — migrated per leaf
//     at run-time. Reads take no locks (B-link with copy-on-write nodes).
//
//   - The Hybrid Trie (Trie): an Adaptive Radix Tree over the hot upper
//     levels and a Fast Succinct Trie (LOUDS-dense/sparse) below, with
//     branch-wise expansion and compaction of subtrees at run-time.
//
// Quick start:
//
//	tree := ahi.BulkLoadBTree(ahi.BTreeOptions{MemoryBudget: 64 << 20}, keys, vals)
//	s := tree.NewSession() // one session per goroutine, any number at once
//	v, ok := s.Lookup(42)
//	s.Flush() // a retiring session hands its leftover samples over
//
//	// Serving at scale: shard the key space and look up in batches.
//	srv := ahi.BulkLoadShardedBTree(ahi.BTreeOptions{Shards: 4}, keys, vals)
//	srv.LookupBatch(queryKeys, resultVals, resultFound) // positional results
//
// See examples/ for runnable programs and DESIGN.md for the system map.
package ahi

import (
	"io"
	"time"

	"ahi/internal/btree"
	"ahi/internal/core"
	"ahi/internal/fst"
	"ahi/internal/hybridtrie"
	"ahi/internal/obs"
	"ahi/internal/shard"
	"ahi/internal/wal"
)

// Observability bundles the library's instrumentation sinks: a metrics
// registry (Prometheus text + JSON over the bundle's HTTP handler), a
// migration trace ring, per-epoch encoding-distribution snapshots, and —
// once EnableTracing is called — a per-operation flight recorder with SLO
// burn-rate tracking. Attach one bundle via BTreeOptions.Obs; disabled
// (nil) observability costs nothing on the access path.
type Observability = obs.Observability

// TracingConfig configures the per-operation flight recorder (see
// BTreeOptions.Tracing): sampling rate, slow-op threshold, ring size,
// and latency SLOs.
type TracingConfig = obs.FlightConfig

// SLOConfig declares latency objectives and burn-rate windows.
type SLOConfig = obs.SLOConfig

// SLOObjective is one latency objective (quantile + target).
type SLOObjective = obs.Objective

// NewObservability creates an Observability bundle with default ring
// capacities.
func NewObservability() *Observability { return obs.New(0, 0) }

// Re-exported framework types: use these to integrate the adaptation
// manager into a custom index (paper §3.1).
type (
	// Manager is the adaptation manager, generic over the tracked unit's
	// identifier and context types.
	Manager[ID comparable, Ctx any] = core.Manager[ID, Ctx]
	// ManagerConfig wires an index's callbacks into a Manager.
	ManagerConfig[ID comparable, Ctx any] = core.Config[ID, Ctx]
	// Sampler is the per-goroutine sampling handle (IsSample/Track).
	Sampler[ID comparable, Ctx any] = core.Sampler[ID, Ctx]
	// Stats are the per-unit access statistics the CSHF sees.
	Stats = core.Stats
	// Action is a CSHF verdict (migrate to Target / evict).
	Action = core.Action
	// Env is the CSHF evaluation environment (budget, epoch, hotness).
	Env = core.Env
	// AccessType labels tracked accesses.
	AccessType = core.AccessType
	// Encoding identifies a node encoding (index-defined).
	Encoding = core.Encoding
	// UnitCounts feeds Equation (1) and the budget-derived k.
	UnitCounts = core.UnitCounts
	// AdaptInfo summarizes one adaptation phase for observers.
	AdaptInfo = core.AdaptInfo
)

// NewManager creates an adaptation manager for a custom index.
func NewManager[ID comparable, Ctx any](cfg ManagerConfig[ID, Ctx]) *Manager[ID, Ctx] {
	return core.New(cfg)
}

// Access types (reads and scans count as reads; inserts, updates and
// deletes as writes).
const (
	Read   = core.Read
	Scan   = core.Scan
	Insert = core.Insert
	Update = core.Update
	Delete = core.Delete
)

// B+-tree leaf encodings, most to least compact.
const (
	EncSuccinct = btree.EncSuccinct
	EncPacked   = btree.EncPacked
	EncGapped   = btree.EncGapped
)

// BTree is the workload-adaptive Hybrid B+-tree (AHI-BTree). Tracked
// operations go through a Session; the embedded Tree field offers
// untracked access and size introspection. Each goroutine uses its own
// session, and any number of sessions may run at once: every session
// samples into a thread-local map (§3.1.5's TLS) that it merges into the
// adaptation manager once it holds its share of the sample. Call
// Session.Flush when a session retires to hand its leftover samples over.
type BTree = btree.Adaptive

// BTreeSession performs tracked B+-tree operations; one goroutine at a
// time may use it.
type BTreeSession = btree.Session

// PlainBTree is the non-adaptive B+-tree with a single, fixed leaf
// encoding — the Gapped/Packed/Succinct baselines of the paper.
type PlainBTree = btree.Tree

// ScanReq is one range request of a ScanBatch: up to N pairs with
// key >= From, ascending.
type ScanReq = btree.ScanReq

// ScanSink receives decoded result segments from ScanBatch; segments
// alias reusable scratch and must be consumed before Emit returns.
type ScanSink = btree.ScanSink

// ScanBuffer is the reusable ScanSink: per-request result buffers that
// persist across Reset, so a steady-state ScanBatch loop allocates
// nothing.
type ScanBuffer = btree.ScanBuffer

// BTreeOptions configures an adaptive B+-tree.
type BTreeOptions struct {
	// MemoryBudget bounds the index size in bytes (0 = unbounded);
	// RelativeBudget instead bounds it to a fraction of the all-expanded
	// size.
	MemoryBudget   int64
	RelativeBudget float64
	// ColdEncoding is the bulk-load/default encoding (EncSuccinct when
	// unset is recommended: everything cold until proven hot).
	ColdEncoding Encoding
	// Sampling knobs (zero values take the paper's defaults: adaptive
	// skip in [50, 500], sample size from Equation (1) with ε = δ = 5%).
	// Long-running services keep the defaults; short-lived or small
	// deployments adapt faster with a tighter skip range and sample cap.
	InitialSkip      int
	MinSkip, MaxSkip int
	MaxSampleSize    int
	// OnAdapt observes adaptation phases.
	OnAdapt func(AdaptInfo)
	// Shards, when > 1, key-range-partitions the index across that many
	// trees behind one front-end (use NewShardedBTree /
	// BulkLoadShardedBTree). The shards share one adaptation manager and
	// one result cache; MemoryBudget and CacheFraction cover them all.
	Shards int
	// Workers bounds the goroutines batch segments are handed to
	// (default GOMAXPROCS, capped at Shards; 1 keeps every batch on its
	// caller). It does not bound callers: any number run concurrently.
	Workers int
	// AsyncMigrations moves leaf re-encodings off the critical path: each
	// adaptation phase records a target encoding per leaf, and the
	// manager's two worker goroutines apply them (call Close on the tree
	// when retiring it).
	AsyncMigrations bool
	// CacheFraction, in (0, 1), dedicates that slice of MemoryBudget to a
	// hot-key result cache probed before the tree walk — one cache for the
	// index, shared by all shards of a sharded one. The cache bytes are
	// charged against the budget (encodings + cache never exceed it) and
	// admission follows the adaptation sampler's hotness signal.
	// Requires an absolute MemoryBudget; 0 disables the cache. 0.05–0.10
	// is a good starting range for skewed read-heavy workloads.
	CacheFraction float64
	// Obs attaches an observability bundle: metrics, migration traces and
	// encoding snapshots flow into it, labelled ObsSource (a sharded tree
	// labels its manager and cache "front" and each shard's flight recorder
	// "shard<i>"). Nil disables all instrumentation.
	Obs       *Observability
	ObsSource string
	// Tracing, with Obs set, enables the per-operation flight recorder and
	// SLO tracker before the index is wired (see TracingConfig; the zero
	// value takes the defaults: sample 1/64, slow-op threshold 100µs,
	// lookup p99/p999 objectives). Sessions created from this index then
	// record sampled wide events; ahimon explain-tail consumes them.
	Tracing *TracingConfig
	// Durability, when non-nil, makes writes crash-safe: every
	// insert/delete/batch is logged to a write-ahead log before it is
	// acknowledged, and OpenBTree / OpenShardedBTree recover the index
	// (checkpointed leaf encodings plus log-tail replay) from the same
	// directory. Nil keeps the index purely in-memory; the lookup path is
	// identical either way. Only honored by the Open constructors.
	Durability *DurabilityOptions
}

// DurabilityOptions configures the write-ahead log and checkpoints of a
// durable index (BTreeOptions.Durability).
type DurabilityOptions struct {
	// Dir is the log/checkpoint directory (required; created if missing).
	// Sharded trees place per-shard logs in Dir/shard<i>.
	Dir string
	// SyncPolicy selects when the log reaches stable storage relative to
	// the acknowledgment: SyncAlways (group-committed fsync before every
	// ack — full durability), SyncInterval (background fsync every
	// SyncInterval — bounded ack loss on power failure), or SyncOS
	// (fsync only on segment rotation and Close — survives process
	// crashes, not power loss). Default SyncInterval.
	SyncPolicy SyncPolicy
	// SyncInterval is the background fsync period under SyncInterval
	// (default 5ms).
	SyncInterval time.Duration
	// SegmentBytes caps each log segment (default 16 MiB). On Linux the
	// active segment's file is preallocated to this size and cut back to
	// its records when the segment is sealed.
	SegmentBytes int64
	// CheckpointEvery, when > 0, snapshots the index (leaf encodings and
	// adaptation state) after that many logged records, bounding replay
	// time; Checkpoint() forces one on demand. 0 disables automatic
	// checkpoints.
	CheckpointEvery int64
}

// SyncPolicy selects when the write-ahead log is fsynced (see
// DurabilityOptions.SyncPolicy).
type SyncPolicy = wal.SyncPolicy

// Log fsync policies, strongest to weakest.
const (
	SyncAlways   = wal.SyncAlways
	SyncInterval = wal.SyncInterval
	SyncOS       = wal.SyncOS
)

// SyncPolicyByName maps "always", "interval" and "os" to the policy
// constants (for flag parsing).
func SyncPolicyByName(name string) (SyncPolicy, error) { return wal.PolicyByName(name) }

// RecoveryStats reports what OpenBTree reconstructed: whether a
// checkpoint restored the encodings warm, and how much log tail was
// replayed.
type RecoveryStats = btree.RecoveryStats

// ShardedRecoveryStats aggregates per-shard recovery results from
// OpenShardedBTree.
type ShardedRecoveryStats = shard.RecoveryStats

func (o *DurabilityOptions) config() *btree.DurabilityConfig {
	if o == nil {
		return nil
	}
	return &btree.DurabilityConfig{
		Dir:             o.Dir,
		Policy:          o.SyncPolicy,
		Interval:        o.SyncInterval,
		SegmentBytes:    o.SegmentBytes,
		CheckpointEvery: o.CheckpointEvery,
	}
}

func (o BTreeOptions) config() btree.AdaptiveConfig {
	if o.Obs != nil && o.Tracing != nil {
		// Enable before wiring: scopes derive from the recorder at wiring
		// time. Idempotent, so calling config more than once enables once.
		o.Obs.EnableTracing(*o.Tracing)
	}
	return btree.AdaptiveConfig{
		Tree:            btree.Config{DefaultEncoding: o.ColdEncoding},
		MemoryBudget:    o.MemoryBudget,
		RelativeBudget:  o.RelativeBudget,
		InitialSkip:     o.InitialSkip,
		MinSkip:         o.MinSkip,
		MaxSkip:         o.MaxSkip,
		MaxSampleSize:   o.MaxSampleSize,
		OnAdapt:         o.OnAdapt,
		AsyncMigrations: o.AsyncMigrations,
		CacheFraction:   o.CacheFraction,
		Obs:             o.Obs,
		ObsSource:       o.ObsSource,
	}
}

func (o BTreeOptions) shardConfig() shard.Config {
	return shard.Config{Shards: o.Shards, Workers: o.Workers, Adaptive: o.config(), Obs: o.Obs}
}

// NewBTree creates an empty adaptive B+-tree.
func NewBTree(opts BTreeOptions) *BTree { return btree.NewAdaptive(opts.config()) }

// OpenBTree opens a durable adaptive B+-tree from opts.Durability.Dir,
// recovering any previous state: the newest valid checkpoint restores the
// tree with its learned leaf encodings and adaptation state warm, then
// the log tail replays every acknowledged write since. A fresh directory
// yields an empty tree. With Durability nil it behaves like NewBTree.
// Call Close to flush and seal the log.
func OpenBTree(opts BTreeOptions) (*BTree, *RecoveryStats, error) {
	cfg := opts.config()
	cfg.Dur = opts.Durability.config()
	return btree.OpenAdaptive(cfg)
}

// BulkLoadBTree builds an adaptive B+-tree from sorted unique keys.
func BulkLoadBTree(opts BTreeOptions, keys, vals []uint64) *BTree {
	return btree.BulkLoadAdaptive(opts.config(), keys, vals)
}

// BulkLoadPlainBTree builds a fixed-encoding baseline tree.
func BulkLoadPlainBTree(enc Encoding, keys, vals []uint64) *PlainBTree {
	return btree.BulkLoad(btree.Config{DefaultEncoding: enc}, keys, vals)
}

// ShardedBTree is the serving front-end: BTreeOptions.Shards key-range
// partitions, each a B+-tree, wired to one adaptation manager and one
// result cache, with batch routing (LookupBatch/InsertBatch/ScanBatch
// group a request batch by shard; large segments beyond the caller's own
// go to a bounded worker pool). Each adaptation phase classifies one
// top-k over all shards under the one memory budget. All methods are safe
// from any number of goroutines, and callers of one shard run
// concurrently: each call checks a session out of the shard, and sessions
// sample in §3.1.5's thread-local mode. Scan and ScanBatch callbacks may
// call back into the same ShardedBTree.
type ShardedBTree = shard.ShardedBTree

// NewShardedBTree creates an empty sharded adaptive B+-tree; shards split
// the key space evenly.
func NewShardedBTree(opts BTreeOptions) *ShardedBTree {
	return shard.New(opts.shardConfig())
}

// BulkLoadShardedBTree builds a sharded adaptive B+-tree from sorted
// unique keys, cutting shard ranges so each holds an equal share.
func BulkLoadShardedBTree(opts BTreeOptions, keys, vals []uint64) *ShardedBTree {
	return shard.BulkLoad(opts.shardConfig(), keys, vals)
}

// OpenShardedBTree opens a durable sharded adaptive B+-tree: shard i logs
// to and recovers from Durability.Dir/shard<i>, all shards in parallel,
// and the one manager resumes the newest shard checkpoint's adaptation
// state. The shard count must match across restarts (routing bounds
// derive from it). With Durability nil it behaves like NewShardedBTree.
func OpenShardedBTree(opts BTreeOptions) (*ShardedBTree, *ShardedRecoveryStats, error) {
	cfg := opts.shardConfig()
	cfg.Adaptive.Dur = opts.Durability.config()
	return shard.Open(cfg)
}

// Trie is the workload-adaptive Hybrid Trie (AHI-Trie) over byte-string
// keys: ART top levels, FST below, run-time branch-wise refinement.
// Single-goroutine (the paper evaluates it single-threaded; inserts are
// future work there and here).
type Trie = hybridtrie.Adaptive

// TrieSession performs tracked trie operations.
type TrieSession = hybridtrie.Session

// TrieOptions configures an adaptive Hybrid Trie.
type TrieOptions struct {
	// CArt is the number of top levels held in ART (default 2; the paper
	// uses 9 for email keys).
	CArt int
	// DenseLevels forces the FST's LOUDS-dense level count: 0 selects
	// automatically (SuRF's heuristic), negative forces all-sparse.
	DenseLevels int
	// MemoryBudget bounds the total size in bytes (0 = unbounded).
	MemoryBudget int64
	// Sampling knobs (see BTreeOptions).
	InitialSkip      int
	MinSkip, MaxSkip int
	MaxSampleSize    int
	// OnAdapt observes adaptation phases.
	OnAdapt func(AdaptInfo)
}

// BuildTrie builds an adaptive Hybrid Trie from sorted, unique,
// prefix-free byte keys (see TerminateKey for variable-length keys).
func BuildTrie(opts TrieOptions, keys [][]byte, vals []uint64) *Trie {
	if opts.CArt == 0 {
		opts.CArt = 2
	}
	fcfg := fst.AutoDense()
	switch {
	case opts.DenseLevels > 0:
		fcfg = fst.Config{DenseLevels: opts.DenseLevels}
	case opts.DenseLevels < 0:
		fcfg = fst.Config{DenseLevels: 0}
	}
	return hybridtrie.BuildAdaptive(hybridtrie.AdaptiveConfig{
		Trie:          hybridtrie.Config{CArt: opts.CArt, FST: fcfg},
		MemoryBudget:  opts.MemoryBudget,
		InitialSkip:   opts.InitialSkip,
		MinSkip:       opts.MinSkip,
		MaxSkip:       opts.MaxSkip,
		MaxSampleSize: opts.MaxSampleSize,
		OnAdapt:       opts.OnAdapt,
	}, keys, vals)
}

// SaveTrie persists the trie's current state — the static FST, the ART
// top, and every live expansion — in a self-describing binary format.
func SaveTrie(t *Trie, w io.Writer) error {
	_, err := t.Trie.WriteTo(w)
	return err
}

// LoadTrie restores a trie saved by SaveTrie and wires a fresh adaptation
// manager with the given options (the CArt/DenseLevels fields are ignored;
// they are properties of the saved structure).
func LoadTrie(opts TrieOptions, r io.Reader) (*Trie, error) {
	t, err := hybridtrie.ReadTrie(r)
	if err != nil {
		return nil, err
	}
	return hybridtrie.WireAdaptive(t, hybridtrie.AdaptiveConfig{
		MemoryBudget:  opts.MemoryBudget,
		InitialSkip:   opts.InitialSkip,
		MinSkip:       opts.MinSkip,
		MaxSkip:       opts.MaxSkip,
		MaxSampleSize: opts.MaxSampleSize,
		OnAdapt:       opts.OnAdapt,
	}), nil
}

// TerminateKey appends a 0x00 terminator, making variable-length NUL-free
// keys prefix-free as the trie indexes require.
func TerminateKey(key []byte) []byte {
	out := make([]byte, len(key)+1)
	copy(out, key)
	return out
}
