package btree

import (
	"sync/atomic"

	"ahi/internal/topk"
)

// This file implements the decentralized tracking scheme the paper's §3
// describes and argues against: every index part carries an embedded
// information unit (IU) with access counters, every access updates it, and
// adaptation sweeps the whole structure. It exists as a measurable
// counterpoint to the centralized sampling manager — the ablation shows
// the two costs the paper predicts: per-access tracking overhead on every
// query and IU space spent even on never-accessed nodes.

// iu is the per-leaf information unit of the decentralized scheme.
type iu struct {
	reads  atomic.Uint32
	writes atomic.Uint32
}

// iuBytes is the space the embedded IU adds to every leaf.
const iuBytes = 8

// Decentralized is a Hybrid B+-tree with embedded per-leaf IUs instead of
// the sampling manager. Adaptation runs every AdaptEvery accesses: the
// top-k leaves by IU count expand, the rest compact, counters halve
// (aging). All methods are safe for a single writer with concurrent
// readers; the ablation drives it single-threaded like its centralized
// counterpart.
type Decentralized struct {
	Tree *Tree
	ius  map[*Leaf]*iu

	// AdaptEvery is the access count between adaptation sweeps.
	AdaptEvery int64
	// MemoryBudget bounds the tree size in bytes (0 = unbounded).
	MemoryBudget int64

	accesses    atomic.Int64
	adaptations int64
}

// NewDecentralized bulk-loads a decentralized-tracking tree.
func NewDecentralized(cfg Config, keys, vals []uint64, adaptEvery int64, budget int64) *Decentralized {
	cfg.ExpandOnInsert = true
	d := &Decentralized{
		Tree:         BulkLoad(cfg, keys, vals),
		ius:          map[*Leaf]*iu{},
		AdaptEvery:   adaptEvery,
		MemoryBudget: budget,
	}
	// The decentralized scheme pays IU space for every node up front —
	// including the ones never accessed (the paper's §3 objection).
	d.Tree.WalkLeaves(func(l *Leaf) bool {
		d.ius[l] = &iu{}
		return true
	})
	return d
}

// IUBytes returns the space consumed by the embedded information units.
func (d *Decentralized) IUBytes() int64 { return int64(len(d.ius)) * (iuBytes + 16) }

// Bytes returns the index plus IU footprint.
func (d *Decentralized) Bytes() int64 { return d.Tree.Bytes() + d.IUBytes() }

// Adaptations returns the number of completed sweeps.
func (d *Decentralized) Adaptations() int64 { return d.adaptations }

func (d *Decentralized) touch(l *Leaf, write bool) {
	u, ok := d.ius[l]
	if !ok {
		u = &iu{}
		d.ius[l] = u
	}
	if write {
		u.writes.Add(1)
	} else {
		u.reads.Add(1)
	}
	if d.accesses.Add(1)%d.AdaptEvery == 0 {
		d.adapt()
	}
}

// Lookup tracks and performs a point query.
func (d *Decentralized) Lookup(k uint64) (uint64, bool) {
	v, leaf, ok := d.Tree.lookupLeaf(k, nil)
	d.touch(leaf, false)
	return v, ok
}

// Insert tracks and performs an insert.
func (d *Decentralized) Insert(k, v uint64) bool {
	inserted, leaf, _ := d.Tree.insertTracked(k, v, nil)
	d.touch(leaf, true)
	return inserted
}

// Scan tracks every visited leaf and performs a range scan.
func (d *Decentralized) Scan(from uint64, n int, fn func(k, v uint64) bool) int {
	visited, _ := d.Tree.scanTracked(from, n, fn, func(l *Leaf) {
		d.touch(l, false)
	})
	return visited
}

// adapt is the full sweep: classify by IU counters, expand the top-k
// within the budget, compact the rest, then age the counters.
func (d *Decentralized) adapt() {
	d.adaptations++
	type cand struct {
		leaf *Leaf
		freq uint64
	}
	cands := make([]cand, 0, len(d.ius))
	for l, u := range d.ius {
		cands = append(cands, cand{l, uint64(u.reads.Load()) + uint64(u.writes.Load())})
	}
	// k from the budget exactly like the centralized manager.
	k := len(cands)
	if d.MemoryBudget > 0 {
		sc, pc, gc := d.Tree.LeafCounts()
		sb, pb, gb := d.Tree.LeafBytes()
		var mc, mu int64 = 1024 + leafHeaderBytes, LeafCap*16 + leafHeaderBytes
		if sc+pc > 0 {
			mc = (sb + pb) / (sc + pc)
		}
		if gc > 0 {
			mu = gb / gc
		}
		k = topk.BudgetK(d.MemoryBudget-d.IUBytes(), sc+pc, mc, gc, mu)
	}
	cls := topk.NewClassifier(k)
	for i := range cands {
		if cands[i].freq > 0 {
			cls.Offer(topk.Entry{Item: i, Priority: cands[i].freq})
		}
	}
	hot := make(map[*Leaf]bool, k)
	for _, e := range cls.Hot() {
		hot[cands[e.Item].leaf] = true
	}
	for _, c := range cands {
		if hot[c.leaf] {
			if c.leaf.Encoding() != EncGapped {
				d.Tree.MigrateLeaf(c.leaf, EncGapped)
			}
		} else if c.leaf.Encoding() != EncSuccinct {
			d.Tree.MigrateLeaf(c.leaf, EncSuccinct)
		}
	}
	// Age counters (halve) so the classification follows the workload.
	for _, u := range d.ius {
		u.reads.Store(u.reads.Load() / 2)
		u.writes.Store(u.writes.Load() / 2)
	}
}
