package core

import (
	"fmt"

	"gpclust/internal/faults"
	"gpclust/internal/gpusim"
	"gpclust/internal/minwise"
	"gpclust/internal/obs"
	"gpclust/internal/sched"
	"gpclust/internal/thrust"
)

// Resilient batch execution. The GPU batch loops treat device faults —
// failed transfers, failed launches, allocation failures — as recoverable;
// the generic ladder (retry with exponential virtual-clock backoff, split
// persistent-OOM batches in half, degrade to a bit-identical host
// execution, or fail typed under Options.NoHostFallback) lives in
// internal/sched. This file adapts the shingling pipeline to it: what a
// batch attempt must roll back, how a plan splits, and what the host
// fallback emits, so the clustering a faulted run produces stays
// byte-for-byte the clustering of a fault-free run. Every recovery action
// is counted in faults.Recovery (Result.Faults).

// DefaultFaultRetries is the per-batch retry budget used when
// Options.FaultRetries is zero.
const DefaultFaultRetries = sched.DefaultFaultRetries

// DefaultRetryBackoffNs is the base virtual-clock delay between fault
// retries used when Options.RetryBackoffNs is zero; attempt k waits
// base·2^k simulated nanoseconds.
const DefaultRetryBackoffNs = sched.DefaultRetryBackoffNs

// retryBackoff resolves Options.RetryBackoffNs to the concrete base delay.
func (o Options) retryBackoff() float64 { return sched.ResolveBackoff(o.RetryBackoffNs) }

// ErrRetryBudget is wrapped by batch errors returned once the fault-retry
// budget is exhausted and host fallback is disabled. It aliases the sched
// framework's sentinel so errors.Is works across both.
var ErrRetryBudget = sched.ErrRetryBudget

// retryBudget resolves Options.FaultRetries to a concrete per-batch
// budget.
func (o Options) retryBudget() int { return sched.ResolveRetries(o.FaultRetries) }

// runner assembles the sched resilience ladder for one scheduling run.
func (o Options) runner(dev *gpusim.Device, rec *faults.Recovery) *sched.Runner {
	return &sched.Runner{
		Dev: dev, Obs: o.Obs, Rec: rec,
		Policy:         sched.Policy{Retries: o.retryBudget(), BackoffNs: o.retryBackoff()},
		NoHostFallback: o.NoHostFallback,
	}
}

// pendSnap records one split list's pre-attempt pending state; saved is
// nil when the list had no pending entry yet.
type pendSnap struct {
	list  int
	saved *pendingShingle
}

// outputMark records the lengths of a run's output streams. Appends are
// their only mutation, so truncating back to a mark undoes an attempt.
type outputMark struct {
	tupleLens  []int
	sortedLens []int
	tuples     int64
}

func (e *batchEnv) mark() outputMark {
	m := outputMark{tuples: e.stats.Tuples, tupleLens: make([]int, len(e.tuplesByTrial))}
	for i := range e.tuplesByTrial {
		m.tupleLens[i] = len(e.tuplesByTrial[i])
	}
	if e.sortedByTrial != nil {
		m.sortedLens = make([]int, len(e.sortedByTrial))
		for i := range e.sortedByTrial {
			m.sortedLens[i] = len(e.sortedByTrial[i])
		}
	}
	return m
}

func (e *batchEnv) truncate(m outputMark) {
	for i := range e.tuplesByTrial {
		e.tuplesByTrial[i] = e.tuplesByTrial[i][:m.tupleLens[i]]
	}
	for i := range m.sortedLens {
		e.sortedByTrial[i] = e.sortedByTrial[i][:m.sortedLens[i]]
	}
	e.stats.Tuples = m.tuples
}

// batchSnapshot captures the aggregation state a batch attempt may mutate,
// so a failed attempt can roll back and the retry emits every tuple
// exactly once: the output stream lengths, and a copy of the pending state
// of the batch's own split lists (mergeTopS builds fresh slices, so row
// sharing is safe).
type batchSnapshot struct {
	outputMark
	pend []pendSnap
}

func (e *batchEnv) snapshot(plan batchPlan) *batchSnapshot {
	snap := &batchSnapshot{outputMark: e.mark()}
	seen := make(map[int]bool)
	for _, pc := range plan.pieces {
		if pc.isWhole(e.in) || seen[pc.list] {
			continue
		}
		seen[pc.list] = true
		var saved *pendingShingle
		if p := e.pending[pc.list]; p != nil {
			saved = &pendingShingle{perTrial: make([][]uint32, len(p.perTrial))}
			copy(saved.perTrial, p.perTrial)
		}
		snap.pend = append(snap.pend, pendSnap{list: pc.list, saved: saved})
	}
	return snap
}

func (e *batchEnv) restore(snap *batchSnapshot) {
	e.truncate(snap.outputMark)
	for _, ps := range snap.pend {
		if ps.saved == nil {
			delete(e.pending, ps.list)
		} else {
			e.pending[ps.list] = ps.saved
		}
	}
}

// splitBatchPlan halves a plan: by piece count when it holds several
// pieces, otherwise by splitting its single piece's element range (the
// halves then merge through the pending split-list path, which is
// bit-identical by construction). ok is false when the plan is a single
// piece of fewer than two elements and cannot shrink further.
func splitBatchPlan(plan batchPlan) (left, right batchPlan, ok bool) {
	rebuild := func(pieces []batchPiece) batchPlan {
		p := batchPlan{pieces: pieces}
		for _, pc := range pieces {
			p.words += pc.words()
		}
		return p
	}
	if len(plan.pieces) >= 2 {
		mid := len(plan.pieces) / 2
		return rebuild(plan.pieces[:mid:mid]), rebuild(plan.pieces[mid:]), true
	}
	if len(plan.pieces) == 1 {
		pc := plan.pieces[0]
		if pc.hi-pc.lo >= 2 {
			mid := pc.lo + (pc.hi-pc.lo)/2
			return rebuild([]batchPiece{{list: pc.list, lo: pc.lo, hi: mid}}),
				rebuild([]batchPiece{{list: pc.list, lo: mid, hi: pc.hi}}), true
		}
	}
	return batchPlan{}, batchPlan{}, false
}

// batchEnv bundles the pass state threaded through every batch of one
// scheduling run, so the sched adapters stay one pointer wide.
type batchEnv struct {
	dev           *gpusim.Device
	in            *SegGraph
	fam           minwise.Family
	s             int
	o             Options
	label         string // pass label, for span names
	tuplesByTrial [][]tuple
	sortedByTrial [][][]tuple // GPUAggregate only
	pending       map[int]*pendingShingle
	acct          *cpuAccount
	stats         *PassStats
	rec           *faults.Recovery
}

// coreBatch adapts one shingling batch to sched.Batch: an attempt is a
// 1-lane run of the batch that snapshots the aggregation state and rolls
// back on any failure, a split halves the plan, and the fallback replays
// the batch through the host shingler.
type coreBatch struct {
	env   *batchEnv
	index int // batch index within the pass (span names)
	plan  batchPlan
}

func (b coreBatch) Attempt() error {
	e := b.env
	snap := e.snapshot(b.plan)
	err := runShingleLanes(e, b.index, []batchPlan{b.plan}, 1)
	if err != nil {
		e.restore(snap)
	}
	return err
}

func (b coreBatch) Split() (sched.Batch, sched.Batch, bool) {
	left, right, ok := splitBatchPlan(b.plan)
	if !ok {
		return nil, nil, false
	}
	return coreBatch{b.env, b.index, left}, coreBatch{b.env, b.index, right}, true
}

func (b coreBatch) Fallback() { runBatchHost(b.env, b.plan) }

func (b coreBatch) WrapErr(retries int, last error) error {
	return fmt.Errorf("core: batch of %d pieces failed after %d retries: %w (last: %v)",
		len(b.plan.pieces), retries, ErrRetryBudget, last)
}

// runBatchResilient runs one batch on a single lane inside the recovery
// ladder: retry with backoff while the budget lasts, then split on
// persistent OOM, then degrade to the host path (or fail typed under
// NoHostFallback).
func runBatchResilient(e *batchEnv, index int, plan batchPlan) error {
	return e.o.runner(e.dev, e.rec).Run(coreBatch{e, index, plan})
}

// hostTopS mirrors the thrust.SegmentedTopS kernel on the host: dst (s
// words) receives src's min(n, s) smallest elements ascending, sentinel
// padded — the same algorithm, so the same output bit for bit.
func hostTopS(src []uint32, s int, dst []uint32) {
	n := len(src)
	if n < s {
		copy(dst, src)
		for i := 1; i < n; i++ {
			v := dst[i]
			j := i
			for j > 0 && dst[j-1] > v {
				dst[j] = dst[j-1]
				j--
			}
			dst[j] = v
		}
		for i := n; i < s; i++ {
			dst[i] = thrust.TopSSentinel
		}
		return
	}
	filled := 0
	for _, x := range src[:s] {
		i := filled
		for i > 0 && dst[i-1] > x {
			dst[i] = dst[i-1]
			i--
		}
		dst[i] = x
		filled++
	}
	for _, x := range src[s:] {
		if x >= dst[s-1] {
			continue
		}
		i := s - 1
		for i > 0 && dst[i-1] > x {
			dst[i] = dst[i-1]
			i--
		}
		dst[i] = x
	}
}

// runBatchHost executes one batch entirely on the CPU, emitting exactly
// the tuples the device path would have: per trial and piece it applies
// the trial's hash to the piece's elements and selects the top-s minima
// with the same algorithm as the device kernel, then feeds the rows
// through the same aggregation code. It cannot fail, which makes it the
// recovery ladder's last resort; its cost is charged at the serial
// backend's shingling price (this is 2008-era host shingling).
func runBatchHost(e *batchEnv, plan batchPlan) {
	in, s, acct := e.in, e.s, e.acct
	numPieces := len(plan.pieces)
	c := e.fam.Size()
	hostOut := make([]uint32, numPieces*s)
	hashed := make([]uint32, 0, plan.words)
	var shingleOps int64

	for trial, h := range e.fam.Pairs {
		for pi, pc := range plan.pieces {
			base := in.Offsets[pc.list]
			data := in.Data[base+pc.lo : base+pc.hi]
			hashed = hashed[:0]
			for _, v := range data {
				hashed = append(hashed, h.Apply(v))
			}
			hostTopS(hashed, s, hostOut[pi*s:(pi+1)*s])
			shingleOps += shingleListOps(len(data), s)
		}
		before := acct.aggOps
		if e.sortedByTrial != nil {
			emitTrialAggHost(in, plan, s, trial, c, hostOut, e.tuplesByTrial,
				e.sortedByTrial, e.pending, acct, e.stats)
		} else {
			emitTrialTuples(in, plan, s, trial, c, hostOut, e.tuplesByTrial, e.pending, acct, e.stats)
		}
		chargeHost(e.dev, e.o.Obs, "aggregate", float64(acct.aggOps-before)*AggregateNsPerOp)
	}
	acct.serialOps += shingleOps
	chargeHost(e.dev, e.o.Obs, obs.NameShingle, float64(shingleOps)*SerialShingleNsPerOp)
}

// emitTrialAggHost is the GPUAggregate-mode twin of emitTrialTuples for
// the host fallback: whole long pieces become one (key, owner)-sorted
// stream appended to sortedByTrial — the order thrust.SortPairs64 would
// have produced, so the pre-sorted stream merge sees identical input —
// and split pieces merge through pending exactly as on the device path.
func emitTrialAggHost(in *SegGraph, plan batchPlan, s, trial, c int, hostOut []uint32,
	tuplesByTrial [][]tuple, sortedByTrial [][][]tuple,
	pending map[int]*pendingShingle, acct *cpuAccount, stats *PassStats) {

	var stream []tuple
	for pi, pc := range plan.pieces {
		vals := hostOut[pi*s : (pi+1)*s]
		if !pc.isWhole(in) {
			mergeSplitPiece(in, pc, s, trial, c, vals, tuplesByTrial, pending, acct, stats)
			continue
		}
		if int(in.Offsets[pc.list+1]-in.Offsets[pc.list]) < s {
			continue
		}
		stream = append(stream, tuple{
			key:   shingleKey(uint32(trial), vals),
			owner: in.Owner(pc.list),
		})
	}
	sortTuples(stream)
	sortedByTrial[trial] = append(sortedByTrial[trial], stream)
	stats.Tuples += int64(len(stream))
	acct.aggOps += int64(len(stream))
}

// corePass adapts a multi-lane pass to sched.Pass. Its lanes interleave
// every batch's device work, so there is no per-batch state to roll back
// to; instead a faulted pass restarts whole (Reset truncates the output
// streams to their pre-pass marks and clears pending, which is empty at
// pass entry), and when the restart budget is exhausted it degrades to
// the 1-lane per-batch ladder — which recovers per batch, splits on OOM
// and can fall back to the host, so it completes whenever recovery is
// possible at all.
type corePass struct {
	env   *batchEnv
	plans []batchPlan
	lanes int
	start outputMark
}

func (p *corePass) Attempt() error { return runShingleLanes(p.env, 0, p.plans, p.lanes) }

func (p *corePass) Reset() {
	p.env.truncate(p.start)
	clear(p.env.pending)
}

// Settle is a no-op: the simulator executes enqueued work eagerly, so a
// failed lane run leaves no device operation outstanding.
func (p *corePass) Settle() {}

func (p *corePass) Degrade() error {
	for i, plan := range p.plans {
		if err := runBatchResilient(p.env, i, plan); err != nil {
			return err
		}
	}
	return nil
}

// runPassLanes runs a whole pass on the given lane count inside the
// restart ladder (sched.Runner.RunPass).
func runPassLanes(e *batchEnv, plans []batchPlan, lanes int) error {
	pass := &corePass{env: e, plans: plans, lanes: lanes, start: e.mark()}
	return e.o.runner(e.dev, e.rec).RunPass(pass)
}
