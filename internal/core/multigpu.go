package core

import (
	"fmt"

	"gpclust/internal/faults"
	"gpclust/internal/gpusim"
	"gpclust/internal/graph"
	"gpclust/internal/minwise"
	"gpclust/internal/obs"
)

// ClusterMultiGPU runs gpClust with the batch stream of Algorithm 2
// distributed round-robin over several devices — the natural next scaling
// step after the paper (its conclusions call for "new directions for
// further research"; the pGraph side of the pipeline already scaled to
// thousands of processors). Each device shingles its share of the
// adjacency-list batches on its own virtual timeline; the host merges the
// resulting tuples exactly as in the single-device pipeline (one host
// aggregation thread per device, as on the paper's 8-core host), so the
// clustering is bit-identical to ClusterSerial and single-device
// ClusterGPU for the same Options.
//
// Reported timings: GPU/H2D/D2H are summed across devices (total work);
// TotalNs is the bottleneck device's timeline (virtual wall time).
func ClusterMultiGPU(g *graph.Graph, devs []*gpusim.Device, o Options) (*Result, error) {
	if len(devs) == 0 {
		return nil, fmt.Errorf("core: ClusterMultiGPU needs at least one device")
	}
	if len(devs) == 1 {
		return ClusterGPU(g, devs[0], o)
	}
	if err := o.Validate(); err != nil {
		return nil, err
	}
	if o.GPUAggregate {
		return nil, fmt.Errorf("core: ClusterMultiGPU supports the CPU-aggregation pipeline only")
	}
	fam1, fam2 := o.families()
	acct := &cpuAccount{}
	res := &Result{Backend: fmt.Sprintf("gpu×%d", len(devs))}

	acct.diskBytes = graphDiskBytes(g)
	for _, d := range devs {
		d.Reset()
	}
	// Per-device hash-table residency: each device stages both passes'
	// <A_j, B_j> tables once; a device whose upload fails degrades to the
	// per-batch path independently of its peers.
	resident := make([]*gpusim.Buffer, len(devs))
	for i, d := range devs {
		resident[i] = uploadResidentParams(d, fam1, fam2)
	}
	freeResident := func() {
		for i, b := range resident {
			if b != nil {
				b.Free()
				resident[i] = nil
			}
		}
	}
	defer freeResident()
	// The read span is recorded once (the charge repeats per device only to
	// align their independent virtual timelines).
	ph := startPhase(devs[0], o.Obs, obs.NameRead)
	for i, d := range devs {
		if i == 0 {
			chargeHost(d, o.Obs, obs.NameRead, acct.diskNs())
		} else {
			d.AdvanceHost(acct.diskNs())
		}
	}
	endPhase(devs[0], ph)

	in := FromGraph(g)
	ph = startPhase(devs[0], o.Obs, "shingle-pass1")
	gi, err := runPassMultiGPU(devs, resident, in, fam1, o.S1, o, "pass1", acct, &res.Pass1, &res.Faults)
	endPhase(devs[0], ph)
	if err != nil {
		return nil, fmt.Errorf("core: first-level shingling: %w", err)
	}

	beforeAgg := acct.aggOps
	ph = startPhase(devs[0], o.Obs, "aggregate")
	pass2In := gi.filterMinLen(o.S2)
	acct.aggOps += int64(len(gi.Data))
	res.Pass1.SharedLists = pass2In.NumLists()
	chargeHost(devs[0], o.Obs, "aggregate", float64(acct.aggOps-beforeAgg)*AggregateNsPerOp)
	endPhase(devs[0], ph)

	ph = startPhase(devs[0], o.Obs, "shingle-pass2")
	gii, err := runPassMultiGPU(devs, resident, pass2In, fam2, o.S2, o, "pass2", acct, &res.Pass2, &res.Faults)
	endPhase(devs[0], ph)
	if err != nil {
		return nil, fmt.Errorf("core: second-level shingling: %w", err)
	}

	beforeReport := acct.reportOps
	ph = startPhase(devs[0], o.Obs, "report")
	res.Clustering = reportClusters(g.NumVertices(), gi, gii, o.Mode, acct)
	chargeHost(devs[0], o.Obs, "report", float64(acct.reportOps-beforeReport)*ReportNsPerOp)
	endPhase(devs[0], ph)

	freeResident()
	var total float64
	var t Timings
	for _, d := range devs {
		d.Synchronize()
		m := d.Metrics()
		t.GPUNs += m.KernelTimeNs
		t.H2DNs += m.H2DTimeNs
		t.D2HNs += m.D2HTimeNs
		t.H2DSetupNs += m.H2DSetupNs
		t.H2DVolumeNs += m.H2DVolumeNs
		t.D2HSetupNs += m.D2HSetupNs
		t.D2HVolumeNs += m.D2HVolumeNs
		t.H2DBytes += m.H2DBytes
		t.D2HBytes += m.D2HBytes
		if d.HostTime() > total {
			total = d.HostTime()
		}
	}
	t.ShingleNs = acct.serialNs() // nonzero only after host-fallback recovery
	t.CPUNs = acct.aggNs() + acct.reportNs() + acct.packNs()
	t.DiskIONs = acct.diskNs()
	t.TotalNs = total
	res.Timings = t
	for _, d := range devs {
		assertDeviceClean(d)
	}
	recordRunMetrics(o.Obs, res)
	return res, nil
}

// runPassMultiGPU is runPassGPU with batches dealt round-robin to devices.
func runPassMultiGPU(devs []*gpusim.Device, resident []*gpusim.Buffer, in *SegGraph, fam minwise.Family, s int,
	o Options, label string, acct *cpuAccount, stats *PassStats, rec *faults.Recovery) (*SegGraph, error) {

	// Fixed-plan pass: the packed width and fusion choice resolve exactly
	// as in runPassGPU's non-auto-tuned branch.
	o.dataBits = packWidth(o, in)
	o.fusedPlan = o.Fuse

	stats.Lists = in.NumLists()
	stats.Elements = int64(len(in.Data))
	c := fam.Size()
	tuplesByTrial := make([][]tuple, c)

	if in.NumLists() == 0 {
		return buildShingleGraph(tuplesByTrial, acct, stats), nil
	}
	for i := 0; i < in.NumLists(); i++ {
		if int(in.Offsets[i+1]-in.Offsets[i]) < s {
			stats.SkippedShort++
		}
	}

	budget := o.BatchWords
	if budget == 0 {
		// Bound by the smallest device so any batch fits anywhere.
		min := devs[0].FreeMemory()
		for _, d := range devs[1:] {
			if d.FreeMemory() < min {
				min = d.FreeMemory()
			}
		}
		budget = int(min / gpusim.WordBytes * 3 / 4)
		// Aim for at least one batch per device so all of them contribute.
		if even := (3*len(in.Data) + 2*(s+2)*in.NumLists()) / len(devs); even+64 < budget {
			budget = even + 64
		}
	}
	plans, err := planBatches(in, s, budget, false)
	if err != nil {
		return nil, err
	}
	stats.Batches = len(plans)

	pending := make(map[int]*pendingShingle)
	splitLists := map[int]bool{}
	for _, p := range plans {
		for _, pc := range p.pieces {
			if !pc.isWhole(in) {
				splitLists[pc.list] = true
			}
		}
	}
	stats.SplitLists = len(splitLists)

	envs := make([]*batchEnv, len(devs))
	for i, dev := range devs {
		od := o
		od.residentParams = resident[i]
		envs[i] = &batchEnv{dev: dev, in: in, fam: fam, s: s, o: od, label: label,
			tuplesByTrial: tuplesByTrial, pending: pending, acct: acct, stats: stats, rec: rec}
	}
	for i, plan := range plans {
		dev := devs[i%len(devs)]
		var end obs.Ending
		var t0 float64
		if o.Obs.Enabled() {
			t0 = dev.HostTime()
			end = o.Obs.Start(obs.TrackBatches, fmt.Sprintf("%s.b%d.dev%d", label, i, i%len(devs)), t0)
		}
		if err := runBatchResilient(envs[i%len(devs)], i, plan); err != nil {
			return nil, err
		}
		if o.Obs.Enabled() {
			t1 := dev.HostTime()
			end.End(t1)
			batchHistogram(o.Obs).Observe(t1 - t0)
		}
	}
	if len(pending) != 0 {
		return nil, fmt.Errorf("core: %d split lists never completed", len(pending))
	}

	beforeAgg := acct.aggOps
	out := buildShingleGraph(tuplesByTrial, acct, stats)
	chargeHost(devs[0], o.Obs, "split-merge", float64(acct.aggOps-beforeAgg)*AggregateNsPerOp)
	return out, nil
}
