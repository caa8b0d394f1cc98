// Package core implements the paper's primary contribution (§3): a
// workload-adaptation framework that hybrid indexes embed to pick node
// encodings at run-time. The controlling instance — the adaptation
// manager — samples a subset of index accesses (Phase I), aggregates them
// per tracked unit in a hash map guarded by a Bloom filter, classifies the
// top-k frequent units as hot with a single-pass bounded heap (Phase II),
// consults an index-supplied context-sensitive heuristic function (CSHF)
// for target encodings, and invokes the index's migration callback. Skip
// length and sample size adapt between phases; an optional absolute or
// relative memory budget bounds expansions.
//
// The manager is generic over the tracked unit's identifier type ID (node
// pointers for the B+-tree, tagged handles for the Hybrid Trie) and a
// context type Ctx carried alongside each identifier (e.g. the parent
// node), mirroring the C++ template interface of the paper's Listing 1.
package core

// AccessType labels one tracked index access (Listing 1's enum).
type AccessType uint8

// Access types. Reads and Scans count into the read counter, Inserts,
// Updates and Deletes into the write counter.
const (
	Read AccessType = iota
	Scan
	Insert
	Update
	Delete
)

// String returns the access-type name.
func (a AccessType) String() string {
	switch a {
	case Read:
		return "read"
	case Scan:
		return "scan"
	case Insert:
		return "insert"
	case Update:
		return "update"
	case Delete:
		return "delete"
	default:
		return "unknown"
	}
}

// Encoding identifies one node encoding. The numeric values are defined by
// the embedding index (the framework never interprets them); by convention
// 0 is the index's most compact encoding.
type Encoding uint8

// Stats are the aggregated sample counters kept per tracked unit
// (Listing 1's AccessStats): read/write counts within the current epoch,
// the epoch of last access, and a bitset of the most recent hot/cold
// classifications (paper: "we use one additional byte to keep the last
// eight classifications").
type Stats struct {
	Reads     uint32
	Writes    uint32
	LastEpoch uint32
	// History bit i is the classification from i phases ago (bit 0 =
	// most recent); HistoryLen counts how many classifications happened.
	History    uint8
	HistoryLen uint8
}

// Freq returns the classification priority, the sum of read and write
// counters.
func (s *Stats) Freq() uint64 { return uint64(s.Reads) + uint64(s.Writes) }

// PushClassification records a hot/cold label into the history bitset.
func (s *Stats) PushClassification(hot bool) {
	s.History <<= 1
	if hot {
		s.History |= 1
	}
	if s.HistoryLen < 8 {
		s.HistoryLen++
	}
}

// HotStreak returns how many consecutive most-recent classifications were
// hot — the quantity Figure 7's example heuristic branches on.
func (s *Stats) HotStreak() int {
	n := 0
	for i := 0; i < int(s.HistoryLen); i++ {
		if s.History&(1<<uint(i)) == 0 {
			break
		}
		n++
	}
	return n
}

// HotCount returns how many of the remembered classifications were hot.
func (s *Stats) HotCount() int {
	n := 0
	for i := 0; i < int(s.HistoryLen); i++ {
		if s.History&(1<<uint(i)) != 0 {
			n++
		}
	}
	return n
}

// Count adds one access of the given type.
func (s *Stats) Count(a AccessType) {
	if a <= Scan {
		s.Reads++
	} else {
		s.Writes++
	}
}

// Action is the CSHF's verdict for one tracked unit.
type Action struct {
	// Target is the encoding the unit should migrate to; meaningful only
	// when Migrate is true.
	Target Encoding
	// Migrate requests an encoding migration via the index callback.
	Migrate bool
	// Evict stops tracking the unit (paper: "the CSHF can decide to stop
	// tracking of specific nodes, e.g. if they are cold or were not
	// sampled for a longer time").
	Evict bool
}

// Env is the environment the CSHF sees in addition to per-unit statistics.
type Env struct {
	// Epoch is the current sampling epoch.
	Epoch uint32
	// BudgetRemaining is MemoryBudget − UsedMemory; positive values allow
	// expansions. It is math.MaxInt64 when no budget is configured.
	BudgetRemaining int64
	// Hot is the current classification of the unit under evaluation.
	Hot bool
}

// UnitCounts describes the tracked units of the index for Equation (1)
// and the budget-derived k: how many units are in a compressed vs. an
// expanded encoding and their average sizes in bytes.
type UnitCounts struct {
	Compressed      int64
	Uncompressed    int64
	CompressedAvg   int64
	UncompressedAvg int64
}

// Total returns the total number of tracked units.
func (u UnitCounts) Total() int64 { return u.Compressed + u.Uncompressed }

// ConcurrencyMode selects the sample store strategy of §3.1.5.
type ConcurrencyMode uint8

const (
	// TLS (thread-local sampling, the default) gives every sampler a
	// private hopscotch map. A sampler merges its map into the manager's
	// store once it has taken its share of the sample size, ⌈sample size
	// ÷ samplers handed out⌉ samples (or earlier, when the map is full),
	// and the merge that completes the sample runs the adaptation while
	// the other samplers keep sampling. A lone sampler therefore runs each
	// phase at exactly the sample size.
	TLS ConcurrencyMode = iota
	// GS (global sampling) shares one concurrent cuckoo map between all
	// samplers.
	GS
)

// AdaptInfo summarizes one completed adaptation phase for observers.
type AdaptInfo struct {
	Epoch         uint32
	UniqueSamples int
	SampledTotal  int64
	Hot           int
	// Migrations counts re-encodings performed inline during the phase;
	// Queued counts units newly handed to the asynchronous workers.
	Migrations int
	Queued     int
	// Backpressured counts this phase's proposals, whatever their outcome
	// (each is also counted in Queued, Coalesced or Deduped), when the
	// backlog earlier phases left was at or above its bound of 128 as the
	// phase ended. Any makes adapt() double the skip length. Always 0
	// without AsyncMigrations.
	Backpressured int
	// Coalesced counts proposals that replaced a different target still
	// pending for the unit; Deduped those that found the same target
	// already pending or running. Both are 0 without AsyncMigrations.
	Coalesced int
	Deduped   int
	// Backlog is the number of units waiting for a worker when the phase
	// completed (0 without AsyncMigrations).
	Backlog int
	// LastDrainNs is the duration of the most recent DrainMigrations call
	// in nanoseconds (0 if never drained or without AsyncMigrations).
	LastDrainNs   int64
	Evicted       int
	NewSkip       int
	NewSampleSize int
	K             int
}
