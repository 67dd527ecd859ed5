package core

import (
	"fmt"

	"gpclust/internal/gpusim"
	"gpclust/internal/sched"
	"gpclust/internal/thrust"
)

// runShingleLanes is the device driver of every shingling batch. A pass's
// batches flatten into a stream of (batch, trial-group) work items
// round-robined across N lanes by sched.RunLanes; each lane owns a stream
// plus device staging (data, offsets, hash, packed output, params, and the
// GPUAggregate tail's buffers) sized for the largest batch of its plans,
// and re-stages a batch's data the first time one of its items lands on
// the lane:
//
//	lane 0:  [H2D b0 | g0 kernels | D2H g0]  [g2 kernels | D2H g2] ...
//	lane 1:           [H2D b0 | g1 kernels | D2H g1]  [g3 kernels | ...
//	host:                         [merge g0]  [merge g1]  [merge g2] ...
//
// One lane is the paper's loop (Algorithm 2, Section III-C). runPassGPU
// hands each batch to its own 1-lane run inside the per-batch recovery
// ladder, one trial per item, so the batch upload, each trial's kernels,
// its device→host shingle transfer and its CPU aggregation run strictly in
// sequence — charge for charge the synchronous Thrust schedule whose
// transfers the paper calls "unavoidable".
//
// Two or more lanes add the asynchronous operation the paper names as the
// path to better performance (Sections III-C, V), generalized over the
// whole pass:
//
//  1. Transfer coalescing. The per-trial hash-pair uploads collapse into
//     one per-lane table upload, and the per-trial shingle downloads into
//     one per trial group: each trial's rows land at a distinct offset of
//     the lane's output buffer and the group transfers back with a single
//     D2H. The group size keeps that buffer no larger than the batch data.
//  2. Overlap. Enqueuing item i only waits for its lane's previous occupant
//     (item i-N), so the next group's kernels and the next batch's staging
//     overlap the previous groups' transfers and CPU merging, across batch
//     boundaries. End-to-end time approaches max(copy engine, compute
//     engine, host CPU) instead of their sum.
//
// Output equivalence: items drain in item order, which is exactly the
// sequential loop's (batch, trial) nesting, so tuple emission and pending
// split-list merging happen in the identical order and the clustering is
// bit-identical for any lane count.
func runShingleLanes(e *batchEnv, first int, plans []batchPlan, lanes int) error {
	if len(plans) == 0 {
		return nil
	}
	c := e.fam.Size()
	maxWords, maxPieces, groupTrials := laneShape(plans, e.s, c, lanes)

	// The hash-pair table <A_j, B_j> for all c trials is loop-invariant:
	// upload it once per lane instead of once per trial per batch.
	hostParams := make([]uint32, 0, 2*c)
	for _, h := range e.fam.Pairs {
		hostParams = append(hostParams, uint32(h.A), uint32(h.B))
	}

	w := &shingleLanes{
		batchEnv: e, first: first, plans: plans, c: c,
		groupTrials: groupTrials, groups: (c + groupTrials - 1) / groupTrials,
		lanes:      make([]*shingleLane, lanes),
		hostParams: hostParams,
		hostData:   make([]uint32, 0, maxWords),
		hostOff:    make([]uint32, maxPieces+1),
		staged:     -1,
	}
	if e.o.GPUAggregate {
		w.valid = make([]int, len(plans))
		for k := range plans {
			w.valid[k], _ = aggCounts(e.in, &plans[k], e.s)
		}
		w.hostOwner = make([]uint32, 0, maxPieces)
		w.hostFlag = make([]uint32, 0, maxPieces)
	}
	defer func() {
		for _, l := range w.lanes {
			if l != nil {
				l.free()
			}
		}
	}()
	for i := range w.lanes {
		l, err := w.newLane(maxWords, maxPieces)
		w.lanes[i] = l
		if err != nil {
			return err
		}
	}
	return sched.RunLanes(e.dev, e.o.Obs, len(plans)*w.groups, lanes, w)
}

// laneShape sizes a lane for plans: the largest batch's words and pieces,
// and the trials per work item — one on a single lane (the paper's
// per-trial transfers), otherwise as many trials' output rows as fit in a
// buffer the size of the batch data, so coalescing never dominates the
// lane's device footprint.
func laneShape(plans []batchPlan, s, c, lanes int) (maxWords, maxPieces, groupTrials int) {
	maxWords, maxPieces = 1, 1
	for _, p := range plans {
		maxWords = max(maxWords, p.words)
		maxPieces = max(maxPieces, len(p.pieces))
	}
	groupTrials = 1
	if lanes > 1 {
		groupTrials = min(max(maxWords/(maxPieces*s), 1), c)
	}
	return maxWords, maxPieces, groupTrials
}

// shingleLane is one lane's device staging. Under a packed+fused plan
// `data` holds the packed image the fused kernels read in place; under a
// packed+unfused plan `packed` receives the H2D image and the unpack kernel
// expands it into the full-width `data`. `hash` exists only when the
// plan's trial kernels stage full-width hashes (unfused, or full-sort);
// `params` only when the hash-pair table is not device-resident run-wide;
// the aggregation tail's buffers only under GPUAggregate.
type shingleLane struct {
	data, packed, off, hash, out, params *gpusim.Buffer
	// GPUAggregate tail: the resident batch's per-piece owner ids and
	// validity flags, the key sort's (hi, lo, owner) scratch, and the
	// sorted records of a trial group.
	owner, flag, keyHi, keyLo, val, recs *gpusim.Buffer
	stream                               *gpusim.Stream
	hostOut                              []uint32 // in-flight item's shingle rows
	hostRecs                             []uint32 // in-flight item's sorted records
	batch                                int      // batch resident in data/off (-1: none)
}

func (l *shingleLane) free() {
	for _, b := range []*gpusim.Buffer{l.data, l.packed, l.off, l.hash, l.out, l.params,
		l.owner, l.flag, l.keyHi, l.keyLo, l.val, l.recs} {
		if b != nil {
			b.Free()
		}
	}
}

// shingleLanes adapts the shingling pass to sched.LaneWorkload: items are
// (batch, trial-group) pairs in batch-major order.
type shingleLanes struct {
	*batchEnv
	first               int // pass-wide index of plans[0] (span names)
	plans               []batchPlan
	valid               []int // GPUAggregate: per plan, pieces keyed on the device
	c                   int
	groupTrials, groups int

	lanes      []*shingleLane
	hostParams []uint32 // <A_j, B_j> table for all c trials
	// Host staging for the current batch, shared across lanes: the H2D
	// copies capture contents at enqueue, and every item of batch k
	// enqueues before batch k+1 is staged. hostPacked is the batch's packed
	// image, built once per batch alongside hostData when the pass packs.
	hostData   []uint32
	hostPacked []uint32
	hostOff    []uint32
	hostOwner  []uint32 // GPUAggregate: owner id per piece
	hostFlag   []uint32 // GPUAggregate: 1 where the piece is keyed on the device
	staged     int      // batch resident in hostData (-1: none)
}

// newLane allocates one lane's device staging for the largest batch.
func (w *shingleLanes) newLane(maxWords, maxPieces int) (*shingleLane, error) {
	o := w.o
	l := &shingleLane{stream: w.dev.NewStream(), batch: -1}
	var err error
	alloc := func(dst **gpusim.Buffer, n int) {
		if err == nil {
			*dst, err = w.dev.Malloc(n)
		}
	}
	packedWords := gpusim.PackedLen(maxWords, o.dataBits)
	if o.dataBits > 0 && o.fusedPlan {
		alloc(&l.data, packedWords) // the packed image, read in place
	} else {
		alloc(&l.data, maxWords)
		if o.dataBits > 0 {
			alloc(&l.packed, packedWords) // H2D staging for the unpack
		}
	}
	alloc(&l.off, maxPieces+1)
	if needsHashBuf(o) {
		alloc(&l.hash, maxWords)
	}
	rows := w.groupTrials * maxPieces * w.s
	alloc(&l.out, rows)
	if o.residentParams == nil {
		alloc(&l.params, 2*w.c)
	}
	if o.GPUAggregate {
		for _, b := range []**gpusim.Buffer{&l.owner, &l.flag, &l.keyHi, &l.keyLo, &l.val} {
			alloc(b, maxPieces)
		}
		alloc(&l.recs, w.groupTrials*3*maxPieces)
		l.hostRecs = make([]uint32, w.groupTrials*3*maxPieces)
	}
	l.hostOut = make([]uint32, rows)
	return l, err
}

// itemGroup decodes a work item into its batch and trial group.
func (w *shingleLanes) itemGroup(item int) (k, t0, t1 int) {
	k = item / w.groups
	t0 = (item % w.groups) * w.groupTrials
	t1 = min(t0+w.groupTrials, w.c)
	return
}

func (w *shingleLanes) Prepare(item int) {
	k, t0, _ := w.itemGroup(item)
	if t0 != 0 || w.staged == k {
		return // batch already staged by its first item
	}
	plan := &w.plans[k]
	w.hostData = w.hostData[:0]
	for pi, pc := range plan.pieces {
		base := w.in.Offsets[pc.list]
		w.hostData = append(w.hostData, w.in.Data[base+pc.lo:base+pc.hi]...)
		w.hostOff[pi+1] = uint32(len(w.hostData))
	}
	w.hostOff[0] = 0
	w.acct.aggOps += int64(len(w.hostData) + len(plan.pieces))
	chargeHost(w.dev, w.o.Obs, "stage", float64(len(w.hostData)+len(plan.pieces))*AggregateNsPerOp)
	if w.o.dataBits > 0 {
		w.hostPacked = gpusim.PackBits(w.hostData, w.o.dataBits)
		w.acct.packOps += int64(len(w.hostData))
		chargeHost(w.dev, w.o.Obs, "pack", float64(len(w.hostData))*PackNsPerOp)
	}
	if w.o.GPUAggregate {
		w.stageAggregate(plan)
	}
	w.staged = k
}

func (w *shingleLanes) Enqueue(item, lane int) error {
	k, t0, t1 := w.itemGroup(item)
	l := w.lanes[lane]
	plan := &w.plans[k]
	numPieces := len(plan.pieces)
	if l.batch != k {
		if err := w.uploadBatch(l, numPieces); err != nil {
			return err
		}
		l.batch = k
	}
	segs := thrust.Segments{Offsets: l.off, NumSegs: numPieces}
	img := batchImage{buf: l.data}
	if w.o.dataBits > 0 && w.o.fusedPlan {
		img.bits = w.o.dataBits
	}
	rowWords := numPieces * w.s
	for trial := t0; trial < t1; trial++ {
		h := w.fam.Pairs[trial]
		if err := trialKernels(w.dev, l.stream, img, l.hash, segs, w.s, w.o,
			len(w.hostData), h.A, h.B, l.out, (trial-t0)*rowWords); err != nil {
			return err
		}
		if w.o.GPUAggregate {
			if err := w.aggregateTrial(l, numPieces, w.valid[k], trial, t0); err != nil {
				return err
			}
		}
	}
	if w.o.GPUAggregate {
		return w.downloadAggregate(l, plan, w.valid[k], t0, t1)
	}
	return w.dev.CopyD2HAsync(l.stream, l.hostOut[:(t1-t0)*rowWords], l.out, 0)
}

// uploadBatch stages the current batch on a lane: the trial table on the
// lane's first use, then the batch image — the packed image when the pass
// packs, expanded on-stream when the plan is unfused so the trial kernels
// read full-width words — its offsets, and the aggregation tail's
// per-piece owners and flags.
func (w *shingleLanes) uploadBatch(l *shingleLane, numPieces int) error {
	d, st := w.dev, l.stream
	if l.batch < 0 && l.params != nil {
		if err := d.CopyH2DAsync(st, l.params, 0, w.hostParams); err != nil {
			return err
		}
	}
	bits := w.o.dataBits
	var err error
	switch {
	case bits > 0 && w.o.fusedPlan:
		err = d.CopyH2DAsync(st, l.data, 0, w.hostPacked)
	case bits > 0:
		err = d.CopyH2DAsync(st, l.packed, 0, w.hostPacked)
	default:
		err = d.CopyH2DAsync(st, l.data, 0, w.hostData)
	}
	if err != nil {
		return err
	}
	if err := d.CopyH2DAsync(st, l.off, 0, w.hostOff[:numPieces+1]); err != nil {
		return err
	}
	if bits > 0 && !w.o.fusedPlan {
		if err := thrust.UnpackBitsOnStream(d, st, l.packed, l.data, len(w.hostData), bits); err != nil {
			return err
		}
	}
	if w.o.GPUAggregate {
		if err := d.CopyH2DAsync(st, l.owner, 0, w.hostOwner); err != nil {
			return err
		}
		return d.CopyH2DAsync(st, l.flag, 0, w.hostFlag)
	}
	return nil
}

func (w *shingleLanes) Complete(item, lane int) {
	k, t0, t1 := w.itemGroup(item)
	l := w.lanes[lane]
	l.stream.Synchronize()
	plan := &w.plans[k]
	before := w.acct.aggOps
	if w.o.GPUAggregate {
		w.completeAggregate(l, plan, w.valid[k], t0, t1)
	} else {
		rowWords := len(plan.pieces) * w.s
		for trial := t0; trial < t1; trial++ {
			row := l.hostOut[(trial-t0)*rowWords : (trial-t0+1)*rowWords]
			emitTrialTuples(w.in, *plan, w.s, trial, w.c, row, w.tuplesByTrial, w.pending, w.acct, w.stats)
		}
	}
	chargeHost(w.dev, w.o.Obs, "aggregate", float64(w.acct.aggOps-before)*AggregateNsPerOp)
}

func (w *shingleLanes) SpanName(item int) string {
	k, t0, t1 := w.itemGroup(item)
	return fmt.Sprintf("%s.b%d.t%d-%d", w.label, w.first+k, t0, t1)
}
