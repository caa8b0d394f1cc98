package core

import (
	"sync"
	"sync/atomic"
	"time"

	"ahi/internal/obs"
)

// This file implements asynchronous migrations (Config.AsyncMigrations):
// adapt() records a target encoding per unit and returns, and two worker
// goroutines apply the targets through the index's Migrate callback,
// concurrently with foreground traffic.
//
// A migration changes a unit's representation, never its contents
// (§3.1), so a decision that has not run yet may be overwritten or
// dropped without loss. The set therefore holds one target per unit, not
// a queue of jobs: a newer phase's decision replaces the pending one, a
// repeat of the same decision is a no-op, and a unit joins the FIFO only
// when nothing was pending for it. At most one worker migrates a unit at
// a time; a target replaced while its migration runs is applied right
// after it. So once DrainMigrations returns, every proposed unit carries
// the last target proposed for it, unless Migrate refused the swap.
//
// Workers ignore the ID Migrate returns: only adapt() writes the sample
// store. Migrate must be safe against concurrent foreground access and
// against concurrent Migrate calls on other units (the Hybrid B+-tree's
// MigrateLeaf takes the leaf's write lock). Indexes whose migrations
// mutate shared structure without locks (the single-threaded Hybrid
// Trie) must keep AsyncMigrations off.

// migrationWorkers is the number of goroutines applying pending targets.
const migrationWorkers = 2

// BackpressureBacklog is the backlog at which the proposals of a phase
// count as Backpressured: when a phase ends with this many units still
// waiting from earlier phases, proposals have outrun the workers, and
// adapt() doubles the skip length so the next phase samples, and
// proposes, less. The B+-tree's flight recorder marks traced ops at the
// same bound.
const BackpressureBacklog = 128

// pending is the target owed to one unit, with the trace context of the
// decision that set it (enqueuedAt is 0 without observability).
type pending[Ctx any] struct {
	ctx        Ctx
	target     Encoding
	epoch      uint32
	from       int16 // encoding before migration; -1 unknown
	trig       obs.Trigger
	enqueuedAt int64 // UnixNano of the proposal
	running    bool  // a worker is migrating the unit now
}

// proposal is the outcome of pendingSet.propose.
type proposal uint8

const (
	proposedNew      proposal = iota // nothing was pending: the unit joined the FIFO
	proposedReplaced                 // a different target was pending and was replaced
	proposedSame                     // the same target was already pending
	proposedClosed                   // Close has run: the proposal is dropped
)

// pendingSet holds one manager's owed migrations. Invariant: a unit is
// on the FIFO exactly when it has a target and no worker is running it.
type pendingSet[ID comparable, Ctx any] struct {
	m       *Manager[ID, Ctx]
	mu      sync.Mutex
	targets map[ID]pending[Ctx]
	fifo    []ID
	backlog atomic.Int32 // len(fifo), read without mu on every traced op
	running int
	closed  bool
	work    sync.Cond // the FIFO grew, or closed was set
	idle    sync.Cond // the FIFO is empty and no migration runs
	wg      sync.WaitGroup
}

func newPendingSet[ID comparable, Ctx any](m *Manager[ID, Ctx]) *pendingSet[ID, Ctx] {
	p := &pendingSet[ID, Ctx]{m: m, targets: make(map[ID]pending[Ctx])}
	p.work.L, p.idle.L = &p.mu, &p.mu
	p.wg.Add(migrationWorkers)
	for i := 0; i < migrationWorkers; i++ {
		go p.run()
	}
	return p
}

// propose sets id's target and reports what it replaced.
func (p *pendingSet[ID, Ctx]) propose(id ID, job pending[Ctx]) proposal {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return proposedClosed
	}
	cur, ok := p.targets[id]
	switch {
	case ok && cur.target == job.target:
		return proposedSame
	case ok:
		job.running = cur.running
		p.targets[id] = job
		return proposedReplaced
	}
	p.targets[id] = job
	p.push(id)
	return proposedNew
}

func (p *pendingSet[ID, Ctx]) push(id ID) {
	p.fifo = append(p.fifo, id)
	p.backlog.Store(int32(len(p.fifo)))
	p.work.Signal()
}

// run is one worker: pop a unit, migrate it to its current target, and
// queue it again if a newer target arrived meanwhile. Workers exit once
// Close has run and the FIFO is empty.
func (p *pendingSet[ID, Ctx]) run() {
	defer p.wg.Done()
	var zero ID
	p.mu.Lock()
	for {
		for len(p.fifo) == 0 && !p.closed {
			p.work.Wait()
		}
		if len(p.fifo) == 0 {
			p.mu.Unlock()
			return
		}
		id := p.fifo[0]
		p.fifo[0] = zero
		p.fifo = p.fifo[1:]
		p.backlog.Store(int32(len(p.fifo)))
		job := p.targets[id]
		job.running = true
		p.targets[id] = job
		p.running++
		p.mu.Unlock()

		p.m.migrateAsync(id, job)

		p.mu.Lock()
		p.running--
		if cur := p.targets[id]; cur.target == job.target {
			delete(p.targets, id)
		} else {
			cur.running = false
			p.targets[id] = cur
			p.push(id)
		}
		if len(p.fifo) == 0 && p.running == 0 {
			p.idle.Broadcast()
		}
	}
}

// drain waits until the FIFO is empty and no migration runs.
func (p *pendingSet[ID, Ctx]) drain() {
	p.mu.Lock()
	for len(p.fifo) > 0 || p.running > 0 {
		p.idle.Wait()
	}
	p.mu.Unlock()
}

// close drops later proposals, lets the workers finish every accepted
// one, and waits for them to exit.
func (p *pendingSet[ID, Ctx]) close() {
	p.mu.Lock()
	p.closed = true
	p.work.Broadcast()
	p.mu.Unlock()
	p.wg.Wait()
}

// migrateAsync runs one worker migration and records it.
func (m *Manager[ID, Ctx]) migrateAsync(id ID, job pending[Ctx]) {
	x := m.cfg.Obs
	var wait int64
	var t0 time.Time
	if x != nil {
		if job.enqueuedAt > 0 {
			wait = max(time.Now().UnixNano()-job.enqueuedAt, 0)
		}
		t0 = time.Now()
	}
	_, ok := m.cfg.Migrate(id, job.ctx, job.target)
	if x != nil {
		x.RecordMigration(job.epoch, m.cfg.Hash(id), job.from,
			uint8(job.target), job.trig, true, ok, wait, time.Since(t0).Nanoseconds())
	}
	if ok {
		m.totalMigrations.Add(1)
	}
}

// DrainMigrations blocks until no migration is pending or running. No-op
// without AsyncMigrations. Proposals made while it waits are waited for
// too.
func (m *Manager[ID, Ctx]) DrainMigrations() {
	if m.pend != nil {
		start := time.Now()
		m.pend.drain()
		m.lastDrainNs.Store(time.Since(start).Nanoseconds())
	}
}

// MigrationBacklog reports the units waiting for a worker, not counting
// those being migrated now. One atomic load; 0 without AsyncMigrations.
func (m *Manager[ID, Ctx]) MigrationBacklog() int {
	if m.pend == nil {
		return 0
	}
	return int(m.pend.backlog.Load())
}

// Close applies every migration accepted so far and stops the workers;
// later proposals are dropped. Safe to call multiple times; a Manager
// without AsyncMigrations needs no Close.
func (m *Manager[ID, Ctx]) Close() {
	if m.pend != nil {
		m.pend.close()
	}
}
