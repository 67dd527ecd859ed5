package main

import (
	"bytes"
	"fmt"
	"math"
	"runtime"
	"slices"
	"strings"
	"time"

	"gpclust/internal/bench"
	"gpclust/internal/core"
	"gpclust/internal/gpusim"
	"gpclust/internal/graph"
	"gpclust/internal/obs"
	"gpclust/internal/pgraph"
	"gpclust/internal/seq"
)

// instance is one generated input of a batch workload with everything its
// runs are checked against. Only Data reaches the program under test.
type instance struct {
	Seed     int64
	Seqs     int          // sequences (vertices) in the input
	Data     []byte       // FASTA or graph.WriteBinary bytes
	Truth    []int32      // planted family per sequence, -1 for background
	Ref      [][]uint32   // serial host reference partition
	RefGraph *graph.Graph // metagenome: the host-verified homology graph
	SetupNs  int64        // generating the instance plus its reference
	SerialNs int64        // core.ClusterSerial alone
}

// job is one pipeline run over one instance and what it reported.
type job struct {
	Wall, Parse, Build, Cluster time.Duration
	PStats                      pgraph.Stats
	Res                         *core.Result
	PDev, CDev                  gpusim.Metrics
	Profile                     []gpusim.ProfileSummary
	Alloc                       uint64
	Err                         error
}

// batchWorkload is metagenome or shingle-graph.
type batchWorkload struct {
	name       string
	metagenome bool // FASTA → pgraph → core; otherwise graph bytes → core
	sz         sizes
}

func coreOptions() core.Options {
	o := core.DefaultOptions() // paper c1=200, c2=100
	o.AutoTune = true          // gpclust's default "-batch auto"
	return o
}

func gpuPgraphConfig(dev *gpusim.Device) pgraph.Config {
	cfg := pgraph.DefaultConfig() // exact filter, packed+fused
	cfg.GPU = true
	cfg.AutoTune = true // pgraph's default "-batchwords auto"
	cfg.Device = dev
	return cfg
}

// generate builds instance seed's input and its serial host reference.
func (w *batchWorkload) generate(seed int64) (*instance, error) {
	t0 := time.Now()
	in := &instance{Seed: seed}
	o := coreOptions()
	var g *graph.Graph
	if w.metagenome {
		mc := seq.DefaultMetagenomeConfig(w.sz.MetagenomeORFs)
		mc.Seed = seed
		mg, err := seq.GenerateMetagenome(mc)
		if err != nil {
			return nil, err
		}
		var buf bytes.Buffer
		if err := seq.WriteFASTA(&buf, mg.Seqs); err != nil {
			return nil, err
		}
		in.Data, in.Truth, in.Seqs = buf.Bytes(), mg.Family, len(mg.Seqs)
		hg, _, err := pgraph.Build(mg.Seqs, pgraph.DefaultConfig())
		if err != nil {
			return nil, fmt.Errorf("host reference graph: %w", err)
		}
		g, in.RefGraph = hg, hg
	} else {
		pc := bench.Paper20KConfig(w.sz.GraphScale)
		pc.Seed = seed
		pg, gt := graph.Planted(pc)
		var buf bytes.Buffer
		if err := graph.WriteBinary(&buf, pg); err != nil {
			return nil, err
		}
		in.Data, in.Truth, in.Seqs, g = buf.Bytes(), gt.Family, pg.NumVertices(), pg
	}
	t1 := time.Now()
	ref, err := core.ClusterSerial(g, o)
	if err != nil {
		return nil, fmt.Errorf("serial reference: %w", err)
	}
	in.SerialNs = time.Since(t1).Nanoseconds()
	in.Ref = ref.Clustering.Clusters
	in.SetupNs = time.Since(t0).Nanoseconds()
	return in, nil
}

// run hands the instance's bytes to the program's public entry points, one
// fresh simulated K20 per stage as the pgraph and gpclust commands use.
// With a tracer it records a span per call under parent, attaches obs
// recorders and device profiles, and places the program's wall spans.
func (w *batchWorkload) run(in *instance, tr *tracer, parent int) job {
	var j job
	traced := tr != nil
	newDev := func() *gpusim.Device {
		d := gpusim.MustNew(gpusim.K20Config())
		if traced {
			d.EnableProfiling()
		}
		return d
	}
	var prec, crec *obs.Recorder
	if traced {
		prec, crec = obs.New(), obs.New()
	}
	root := tr.begin("bench.job", "bench", parent, -1)
	t0 := time.Now()
	var g *graph.Graph
	var pdev *gpusim.Device
	if w.metagenome {
		sp := tr.begin("seq.ReadFASTA", "seq", root, -1)
		seqs, err := seq.ReadFASTA(bytes.NewReader(in.Data))
		tr.end(sp)
		t1 := time.Now()
		j.Parse = t1.Sub(t0)
		if err != nil {
			j.Err = err
			return j
		}
		pdev = newDev()
		cfg := gpuPgraphConfig(pdev)
		cfg.Obs = prec
		sp = tr.begin("pgraph.Build", "pgraph", root, -1)
		g, j.PStats, err = pgraph.Build(seqs, cfg)
		tr.end(sp)
		tr.attachProgram(sp, prec, func(obs.Span) string { return "gpusim" })
		j.Build = time.Since(t1)
		if err != nil {
			j.Err = err
			return j
		}
		j.PDev = pdev.Metrics()
	} else {
		sp := tr.begin("graph.ReadBinary", "graph", root, -1)
		var err error
		g, err = graph.ReadBinary(bytes.NewReader(in.Data))
		tr.end(sp)
		j.Parse = time.Since(t0)
		if err != nil {
			j.Err = err
			return j
		}
	}
	t2 := time.Now()
	cdev := newDev()
	o := coreOptions()
	o.Obs = crec
	sp := tr.begin("core.ClusterGPU", "core", root, -1)
	res, err := core.ClusterGPU(g, cdev, o)
	tr.end(sp)
	tr.attachProgram(sp, crec, func(s obs.Span) string {
		if s.Track == obs.TrackBatches {
			return "gpusim"
		}
		return "core"
	})
	j.Cluster = time.Since(t2)
	j.Wall = time.Since(t0)
	tr.end(root)
	if err != nil {
		j.Err = err
		return j
	}
	j.Res, j.CDev = res, cdev.Metrics()
	if traced {
		if pdev != nil {
			j.Profile = pdev.SummarizeProfile()
		}
		j.Profile = append(j.Profile, cdev.SummarizeProfile()...)
	}
	if w.metagenome && !sameGraph(g, in.RefGraph) {
		j.Err = fmt.Errorf("homology graph differs from the host-verified reference")
	} else if !sameClusters(res.Clustering.Clusters, in.Ref) {
		j.Err = fmt.Errorf("partition differs from the serial host reference")
	}
	return j
}

func sameGraph(a, b *graph.Graph) bool {
	return slices.Equal(a.Offsets, b.Offsets) && slices.Equal(a.Adj, b.Adj)
}

func sameClusters(a, b [][]uint32) bool {
	return slices.EqualFunc(a, b, func(x, y []uint32) bool { return slices.Equal(x, y) })
}

// fingerprint renders every virtual-clock figure and count of a job. Repeats
// of one instance must render identically: the modelled K20 is
// deterministic, so any difference is a bug, never noise.
func fingerprint(j job) string {
	st := j.PStats
	st.WallNs = 0
	r := *j.Res
	r.Wall, r.Clustering = core.WallTimes{}, core.Clustering{}
	return fmt.Sprintf("%+v|%+v|%+v|%+v|%+v|%+v|%d", st, r.Timings, r.Pass1, r.Pass2, j.PDev, j.CDev, r.NumClusters())
}

// virtualS is the job's modelled K20 time: pgraph's plus core's totals.
func (j job) virtualS() float64 { return (j.PStats.TotalNs + j.Res.Timings.TotalNs) / 1e9 }

// batchRun is one invocation of a batch workload.
type batchRun struct {
	w         *batchWorkload
	o         runOpts
	insts     []*instance
	prints    map[int]string
	attempted int
	failed    int
}

// exec runs the job on instance k, checks it and applies the exact-repeat
// gate; it returns nil when the job failed.
func (b *batchRun) exec(k int, tr *tracer, parent int) *job {
	var m0, m1 runtime.MemStats
	runtime.GC() // start every job from a collected heap, as a fresh process would
	runtime.ReadMemStats(&m0)
	j := b.w.run(b.insts[k], tr, parent)
	runtime.ReadMemStats(&m1)
	j.Alloc = m1.TotalAlloc - m0.TotalAlloc
	b.attempted++
	if j.Err != nil {
		b.failed++
		b.o.logf("FAIL %s instance %d (seed %d): %v", b.w.name, k, b.insts[k].Seed, j.Err)
		return nil
	}
	b.o.logf("job: instance %d, wall %.1fms (parse %.1f, pgraph %.1f, core %.1f), %.1f MB allocated, virtual %.6fs",
		k, ms(j.Wall), ms(j.Parse), ms(j.Build), ms(j.Cluster), float64(j.Alloc)/1e6, j.virtualS())
	fp := fingerprint(j)
	if prev, ok := b.prints[k]; !ok {
		b.prints[k] = fp
	} else if prev != fp {
		b.failed++
		b.o.logf("FAIL %s instance %d: virtual-clock figures differ between repeats:\n  first: %s\n  now:   %s",
			b.w.name, k, prev, fp)
		return nil
	}
	return &j
}

// round runs every instance once, one job at a time, and returns the jobs
// (nil for failures). The heap is collected before each job, outside its
// measured wall.
func (b *batchRun) round(tr *tracer, parent int) []*job {
	jobs := make([]*job, len(b.insts))
	for k := range b.insts {
		jobs[k] = b.exec(k, tr, parent)
	}
	return jobs
}

// runBatch runs a batch workload: set-up (instances and references), then
// measured rounds (trace 0) or the traced run (trace 1).
func runBatch(w *batchWorkload, o runOpts) (map[string]float64, int, int, error) {
	b := &batchRun{w: w, o: o, prints: map[int]string{}}
	var setup, serial []float64
	for k := 0; k < w.sz.Panel; k++ {
		in, err := w.generate(instanceSeed(o.Seed, k))
		if err != nil {
			return nil, 0, 0, fmt.Errorf("%s set-up, instance %d: %w", w.name, k, err)
		}
		b.insts = append(b.insts, in)
		setup = append(setup, float64(in.SetupNs)/1e9)
		serial = append(serial, float64(in.SerialNs)/1e9)
		o.logf("instance %d: seed %d, %d sequences, %d bytes, set-up %.3fs", k, in.Seed, in.Seqs, len(in.Data), float64(in.SetupNs)/1e9)
	}

	vals := map[string]float64{}
	if o.Trace {
		return b.traced(vals, serial)
	}

	// Measured part: rounds over the panel, one job in flight. The round
	// count is fixed by --seconds and the workload's nominal round length,
	// so every run of a workload measures the same work.
	roundS := w.sz.GraphRoundS
	if w.metagenome {
		roundS = w.sz.MetagenomeRoundS
	}
	rounds := max(1, int(math.Round(o.Seconds.Seconds()/roundS)))
	var jobs level
	walls := make([][]float64, len(b.insts)) // each instance's job walls, ms
	var allocs []float64
	var first []*job
	failed := false
	for r := 0; r < rounds; r++ {
		js := b.round(nil, -1)
		if first == nil {
			first = js
		}
		for k, j := range js {
			if j != nil {
				walls[k] = append(walls[k], ms(j.Wall))
				allocs = append(allocs, float64(j.Alloc)/1e6)
			}
		}
		win := jobWindow(js)
		failed = failed || win.Failed > 0
		jobs.Windows = append(jobs.Windows, win)
	}

	// A panel pass at each instance's median job time: the median of a
	// few repeats drops the repeat that a busy host slowed down.
	var panelS, seqs float64
	for k, in := range b.insts {
		panelS += median(walls[k]) / 1e3
		seqs += float64(in.Seqs)
	}
	var virt, f1 []float64
	for k, j := range first {
		if j == nil {
			continue
		}
		virt = append(virt, j.virtualS())
		f1 = append(f1, pairF1(clusterLabels(j.Res.Clustering.Clusters, b.insts[k].Seqs), b.insts[k].Truth))
	}
	vals["seqs_per_s"] = ratio(seqs, panelS)
	vals["p50_ms"] = jobs.p50()
	vals["max_ok_rps"] = ratio(float64(len(b.insts)), panelS)
	if failed {
		vals["max_ok_rps"] = 0
	}
	vals["virtual_s"] = mean(virt)
	vals["alloc_mb"] = median(allocs)
	vals["family_f1"] = mean(f1)
	vals["setup_s"] = median(setup)
	t := jobs.tail()
	o.logf("%d rounds of %d jobs, one in flight: %.4f jobs/s at the median job times, p50 %.3fms, tail p%.1f of %d samples = %.3fms",
		rounds, len(b.insts), vals["max_ok_rps"], jobs.p50(), t.Percentile, t.Samples, t.Value)
	o.logf("virtual-clock exact-repeat gate: %d instances, every repeat compared", len(b.prints))
	return vals, b.attempted, b.failed, nil
}

// jobWindow is a round's job latencies as one window.
func jobWindow(js []*job) window {
	var w window
	for _, j := range js {
		if j == nil {
			w.Failed++
			continue
		}
		w.Latencies = append(w.Latencies, ms(j.Wall))
	}
	return w
}

// latencyLayer adds the low and high levels' latency figures.
func latencyLayer(vals map[string]float64, low, high level) {
	vals["p50_ms.low"] = low.p50()
	vals["tail_ms.low"] = low.tail().Value
	vals["p50_ms.high"] = high.p50()
	vals["tail_ms.high"] = high.tail().Value
}

// traced runs an untraced round, then a traced one, and reports the
// per-layer figures: latencies from the untraced round (the batch
// workloads have no high level, so its figures read 0), everything else
// per job of the traced round, averaged over the panel.
func (b *batchRun) traced(vals map[string]float64, serial []float64) (map[string]float64, int, int, error) {
	plain := b.round(nil, -1)
	latencyLayer(vals, level{[]window{jobWindow(plain)}}, level{})
	tr := newTracer()
	top := tr.begin("bench.round", "bench", -1, -1)
	jobs := b.round(tr, top)
	tr.end(top)

	// Overheads are traced over untraced cost, minus 1: larger is more.
	// Throughput's cost is the time the same jobs took.
	var plainS, tracedS float64
	for k := range jobs {
		if jobs[k] != nil && plain[k] != nil {
			plainS += plain[k].Wall.Seconds()
			tracedS += jobs[k].Wall.Seconds()
		}
	}
	vals["trace.overhead_seqs_per_s"] = ratio(tracedS, plainS) - 1
	vals["trace.overhead_p50_ms_low"] = ratio(median(jobWindow(jobs).Latencies), median(jobWindow(plain).Latencies)) - 1

	acc := map[string][]float64{}
	add := func(name string, v float64) { acc[name] = append(acc[name], v) }
	for _, j := range jobs {
		if j == nil {
			continue
		}
		st, r := j.PStats, j.Res
		if b.w.metagenome {
			add("seq.parse_ms", ms(j.Parse))
			add("graph.read_ms", 0)
		} else {
			add("seq.parse_ms", 0)
			add("graph.read_ms", ms(j.Parse))
		}
		add("pgraph.build_ms", ms(j.Build))
		add("pgraph.filter_virtual_ms", st.FilterNs/1e6)
		add("pgraph.verify_virtual_ms", st.AlignNs/1e6)
		add("pgraph.h2d_virtual_ms", st.H2DNs/1e6)
		add("pgraph.d2h_virtual_ms", st.D2HNs/1e6)
		add("pgraph.candidates", float64(st.Candidates))
		add("pgraph.edges", float64(st.Edges))
		add("pgraph.accept_ratio", ratio(float64(st.Edges), float64(st.Candidates)))
		add("pgraph.batches", float64(st.GPUBatches))
		add("pgraph.plan_drift", st.Plan.DriftFrac())

		add("core.cluster_ms", ms(j.Cluster))
		add("core.pass1_ms", float64(r.Wall.Pass1Ns)/1e6)
		add("core.pass2_ms", float64(r.Wall.Pass2Ns)/1e6)
		add("core.report_ms", float64(r.Wall.ReportNs)/1e6)
		add("core.cpu_virtual_ms", r.Timings.CPUNs/1e6)
		add("core.gpu_virtual_ms", r.Timings.GPUNs/1e6)
		add("core.h2d_virtual_ms", r.Timings.H2DNs/1e6)
		add("core.d2h_virtual_ms", r.Timings.D2HNs/1e6)
		add("core.tuples", float64(r.Pass1.Tuples+r.Pass2.Tuples))
		add("core.shingles", float64(r.Pass1.Shingles+r.Pass2.Shingles))
		add("core.batches", float64(r.Pass1.Batches+r.Pass2.Batches))
		add("core.split_lists", float64(r.Pass1.SplitLists+r.Pass2.SplitLists))
		add("core.h2d_bytes", float64(r.Timings.H2DBytes))
		plan := r.Pass1.Plan
		plan.Add(r.Pass2.Plan)
		add("core.plan_drift", plan.DriftFrac())

		deviceLayer(add, addMetrics(j.PDev, j.CDev), float64(j.Build+j.Cluster))
		thrustLayer(add, j.Profile)
	}
	for name, v := range acc {
		vals[name] = mean(v)
	}
	vals["core.serial_baseline_s"] = median(serial)
	for _, d := range perLayer {
		if strings.HasPrefix(d.Name, "serve.") {
			vals[d.Name] = 0
		}
	}
	spanLayers(vals, tr, len(b.insts))
	if err := b.o.writeTrace(tr); err != nil {
		return nil, 0, 0, err
	}
	return vals, b.attempted, b.failed, nil
}

// deviceLayer adds the gpusim figures of one job (m is the sum of the
// job's device deltas; wallNs the wall time of the calls that produced it).
func deviceLayer(add func(string, float64), m gpusim.Metrics, wallNs float64) {
	add("gpusim.launches", float64(m.KernelLaunches))
	add("gpusim.thread_ops", float64(m.ThreadOps))
	add("gpusim.warp_ops", float64(m.WarpSerialOps))
	add("gpusim.transactions", float64(m.GlobalTransactions))
	add("gpusim.h2d_bytes", float64(m.H2DBytes))
	add("gpusim.d2h_bytes", float64(m.D2HBytes))
	add("gpusim.kernel_virtual_ms", m.KernelTimeNs/1e6)
	// gpusim counts WarpSerialOps in lane units (each warp step charged at
	// its slowest lane times the warp width), so 1 means converged warps.
	add("gpusim.divergence", ratio(float64(m.WarpSerialOps), float64(m.ThreadOps)))
	// Computed, not measured: transactions are 128-byte units in the model.
	add("gpusim.ops_per_byte", ratio(float64(m.ThreadOps), 128*float64(m.GlobalTransactions)))
	add("gpusim.wall_ns_per_thread_op", ratio(wallNs, float64(m.ThreadOps)))
}

// thrustLayer adds per-kernel profile figures; kernels outside
// thrustKernels are summed under "other".
func thrustLayer(add func(string, float64), prof []gpusim.ProfileSummary) {
	type agg struct {
		launches, trans float64
		ns              float64
	}
	by := map[string]*agg{}
	for _, k := range thrustKernels {
		by[k] = &agg{}
	}
	for _, p := range prof {
		a, ok := by[p.Name]
		if !ok {
			a = by["other"]
		}
		a.launches += float64(p.Launches)
		a.trans += float64(p.TotalTrans)
		a.ns += p.TotalNs
	}
	for _, k := range thrustKernels {
		add("thrust."+k+".launches", by[k].launches)
		add("thrust."+k+".virtual_ms", by[k].ns/1e6)
		add("thrust."+k+".transactions", by[k].trans)
	}
}

// spanLayers turns the traced spans into per-layer self times (per job, or
// per request on serve-mix: divided by units) and the span count.
func spanLayers(vals map[string]float64, tr *tracer, units int) {
	self := selfTimes(tr.snapshot())
	for _, l := range []string{"bench", "seq", "graph", "pgraph", "core", "gpusim", "serve"} {
		vals["self."+l+"_ms"] = self[l] / 1e6 / float64(max(units, 1))
	}
	vals["trace.spans"] = float64(len(tr.snapshot()))
}

// addMetrics returns a + b, written as a − (0 − b) with gpusim's Sub.
func addMetrics(a, b gpusim.Metrics) gpusim.Metrics {
	var zero gpusim.Metrics
	return a.Sub(zero.Sub(b))
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
