package core

import (
	"container/heap"

	"gpclust/internal/gpusim"
	"gpclust/internal/thrust"
)

// GPU-side aggregation: an extension beyond the paper. Table I shows the
// CPU-side aggregation dominating gpClust's runtime once the shingling
// itself is accelerated (52.7s of 66.75s at 20K sequences); its heaviest
// piece is the per-trial sorting that groups <shingle, owner> tuples. With
// Options.GPUAggregate the shingle keys are computed and sorted on the
// device (a shingle-key kernel + thrust sort_by_key, run as a per-trial
// tail of every lane work item, on any lane count), so the CPU only merges
// pre-sorted streams — a linear scan. The clustering is bit-identical to
// the serial backend; the virtual-clock CPU column shrinks accordingly
// (quantified in the ablations).

// invalidWord marks records of pieces that produce no device-side key
// (split pieces and short lists). Real records always have owner < 2^31, so
// an all-ones record strictly sorts after every real one.
const invalidWord = 0xFFFFFFFF

// stageAggregate builds the batch's per-piece owner ids and validity flags
// on the host (static per batch, uploaded with the batch image).
func (w *shingleLanes) stageAggregate(plan *batchPlan) {
	w.hostOwner, w.hostFlag = w.hostOwner[:0], w.hostFlag[:0]
	for _, pc := range plan.pieces {
		var flag uint32
		if pc.isWhole(w.in) && int(w.in.Offsets[pc.list+1]-w.in.Offsets[pc.list]) >= w.s {
			flag = 1
		}
		w.hostOwner = append(w.hostOwner, w.in.Owner(pc.list))
		w.hostFlag = append(w.hostFlag, flag)
	}
}

// aggregateTrial enqueues one trial's device aggregation tail after its
// shingle kernels: shingle keys over the trial's rows, sort_by_key, and the
// pack of the valid sorted records into the trial's slot of the lane's
// record buffer.
func (w *shingleLanes) aggregateTrial(l *shingleLane, numPieces, valid, trial, t0 int) error {
	if err := shingleKeyKernel(w.dev, l.stream, l.out, (trial-t0)*numPieces*w.s, l.flag, l.owner,
		numPieces, w.s, uint32(trial), l.keyHi, l.keyLo, l.val); err != nil {
		return err
	}
	if err := thrust.SortPairs64OnStream(w.dev, l.stream, l.keyHi, l.keyLo, l.val, numPieces); err != nil {
		return err
	}
	return packKernel(w.dev, l.stream, l.keyHi, l.keyLo, l.val, valid, l.recs, (trial-t0)*3*valid)
}

// downloadAggregate enqueues a trial group's device→host transfers: the
// packed (hi, lo, owner) records of every trial in one copy — packing them
// into one buffer keeps the per-copy setup cost, the dominant term for
// small batches (Table I's Data_g→c analysis), to one transfer — then each
// split piece's minima row per trial, for the CPU-side split-list merge.
func (w *shingleLanes) downloadAggregate(l *shingleLane, plan *batchPlan, valid, t0, t1 int) error {
	if err := w.dev.CopyD2HAsync(l.stream, l.hostRecs[:(t1-t0)*3*valid], l.recs, 0); err != nil {
		return err
	}
	rowWords := len(plan.pieces) * w.s
	for trial := t0; trial < t1; trial++ {
		for pi, pc := range plan.pieces {
			if pc.isWhole(w.in) {
				continue
			}
			at := (trial-t0)*rowWords + pi*w.s
			if err := w.dev.CopyD2HAsync(l.stream, l.hostOut[at:at+w.s], l.out, at); err != nil {
				return err
			}
		}
	}
	return nil
}

// completeAggregate consumes a drained trial group: each trial's sorted
// records become one pre-sorted stream by linear conversion, and its split
// pieces' rows merge through pending as on the CPU-aggregation path.
func (w *shingleLanes) completeAggregate(l *shingleLane, plan *batchPlan, valid, t0, t1 int) {
	rowWords := len(plan.pieces) * w.s
	for trial := t0; trial < t1; trial++ {
		recs := l.hostRecs[(trial-t0)*3*valid : (trial-t0+1)*3*valid]
		stream := make([]tuple, valid)
		for i := range stream {
			stream[i] = tuple{
				key:   uint64(recs[3*i])<<32 | uint64(recs[3*i+1]),
				owner: recs[3*i+2],
			}
		}
		w.sortedByTrial[trial] = append(w.sortedByTrial[trial], stream)
		w.stats.Tuples += int64(valid)
		w.acct.aggOps += int64(valid)
		for pi, pc := range plan.pieces {
			if !pc.isWhole(w.in) {
				at := (trial-t0)*rowWords + pi*w.s
				mergeSplitPiece(w.in, pc, w.s, trial, w.c, l.hostOut[at:at+w.s],
					w.tuplesByTrial, w.pending, w.acct, w.stats)
			}
		}
	}
}

// shingleKeyKernel computes, for each valid segment, the 64-bit FNV-1a
// shingle identity over (trial, minima) — the same function the CPU path
// uses, so the two backends group identically — and emits (keyHi, keyLo,
// owner) records from the trial's minima rows at out[outBase:...]. Invalid
// segments (split pieces, short lists) emit the all-ones record, which
// sorts after every real one. A nil stream launches synchronously.
func shingleKeyKernel(dev *gpusim.Device, st *gpusim.Stream, out *gpusim.Buffer, outBase int,
	flags, owners *gpusim.Buffer, numPieces, s int, trial uint32, keyHi, keyLo, val *gpusim.Buffer) error {
	const bd = 256
	grid := (numPieces + bd - 1) / bd
	dev.NextKernelName("shingle_key")
	return dev.LaunchOnStream(st, grid, bd, func(ctx *gpusim.ThreadCtx) {
		seg := ctx.GlobalID()
		if seg >= numPieces {
			return
		}
		ctx.GlobalRead(flags, seg, 1, 1)
		if flags.Words()[seg] == 0 {
			keyHi.Words()[seg] = invalidWord
			keyLo.Words()[seg] = invalidWord
			val.Words()[seg] = invalidWord
			ctx.GlobalWrite(keyHi, seg, 1, 1)
			ctx.GlobalWrite(keyLo, seg, 1, 1)
			ctx.GlobalWrite(val, seg, 1, 1)
			ctx.Ops(3)
			return
		}
		minima := out.Words()[outBase+seg*s : outBase+(seg+1)*s]
		key := shingleKey(trial, minima)
		keyHi.Words()[seg] = uint32(key >> 32)
		keyLo.Words()[seg] = uint32(key)
		val.Words()[seg] = owners.Words()[seg]
		ctx.GlobalRead(out, outBase+seg*s, s, 1)
		ctx.GlobalRead(owners, seg, 1, 1)
		ctx.GlobalWrite(keyHi, seg, 1, 1)
		ctx.GlobalWrite(keyLo, seg, 1, 1)
		ctx.GlobalWrite(val, seg, 1, 1)
		ctx.Ops(s*8 + 6)
	})
}

// packKernel interleaves the first n sorted records' (hi, lo, owner) words
// into packed[base:base+3n] for a single device→host transfer. A nil
// stream launches synchronously.
func packKernel(dev *gpusim.Device, st *gpusim.Stream, keyHi, keyLo, val *gpusim.Buffer, n int,
	packed *gpusim.Buffer, base int) error {
	if n == 0 {
		return nil
	}
	const bd = 256
	grid := (n + bd - 1) / bd
	dev.NextKernelName("pack_records")
	return dev.LaunchOnStream(st, grid, bd, func(ctx *gpusim.ThreadCtx) {
		i := ctx.GlobalID()
		if i >= n {
			return
		}
		p := packed.Words()[base:]
		p[3*i] = keyHi.Words()[i]
		p[3*i+1] = keyLo.Words()[i]
		p[3*i+2] = val.Words()[i]
		ctx.GlobalRead(keyHi, i, 1, 1)
		ctx.GlobalRead(keyLo, i, 1, 1)
		ctx.GlobalRead(val, i, 1, 1)
		ctx.GlobalWrite(packed, base+3*i, 3, 1)
		ctx.Ops(3)
	})
}

// mergeSortedStreams k-way-merges per-batch pre-sorted tuple streams (plus
// an unsorted residue of split-list tuples) into one sorted slice, charging
// only linear CPU cost — the aggregation saving of the GPU-aggregate mode.
func mergeSortedStreams(streams [][]tuple, residue []tuple, acct *cpuAccount) []tuple {
	sortTuples(residue) // few elements: split lists only
	if len(residue) > 0 {
		streams = append(streams, residue)
	}
	total := 0
	for _, s := range streams {
		total += len(s)
	}
	acct.aggOps += int64(total)
	switch len(streams) {
	case 0:
		return nil
	case 1:
		return streams[0]
	}
	h := &tupleHeap{}
	for i, s := range streams {
		if len(s) > 0 {
			*h = append(*h, tupleCursor{stream: i, pos: 0, t: s[0]})
		}
	}
	heap.Init(h)
	out := make([]tuple, 0, total)
	for h.Len() > 0 {
		cur := (*h)[0]
		out = append(out, cur.t)
		cur.pos++
		if cur.pos < len(streams[cur.stream]) {
			cur.t = streams[cur.stream][cur.pos]
			(*h)[0] = cur
			heap.Fix(h, 0)
		} else {
			heap.Pop(h)
		}
	}
	return out
}

type tupleCursor struct {
	stream, pos int
	t           tuple
}

type tupleHeap []tupleCursor

func (h tupleHeap) Len() int { return len(h) }
func (h tupleHeap) Less(i, j int) bool {
	if h[i].t.key != h[j].t.key {
		return h[i].t.key < h[j].t.key
	}
	return h[i].t.owner < h[j].t.owner
}
func (h tupleHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *tupleHeap) Push(x any)   { *h = append(*h, x.(tupleCursor)) }
func (h *tupleHeap) Pop() (out any) {
	old := *h
	n := len(old)
	out = old[n-1]
	*h = old[:n-1]
	return out
}
