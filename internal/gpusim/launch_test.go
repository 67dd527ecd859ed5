package gpusim

import (
	"math"
	"math/rand"
	"sort"
	"sync"
	"testing"
)

// kernels in tests read/write real buffer contents and record their traffic.

func TestLaunchExecutesEveryThread(t *testing.T) {
	d := MustNew(K20Config())
	const n = 10_000
	out := d.MustMalloc(n)
	defer out.Free()
	err := d.Launch((n+255)/256, 256, func(ctx *ThreadCtx) {
		i := ctx.GlobalID()
		if i >= n {
			return
		}
		out.Words()[i] = uint32(i * 7)
		ctx.Ops(1)
		ctx.GlobalWrite(out, i, 1, 1)
	})
	if err != nil {
		t.Fatal(err)
	}
	host := make([]uint32, n)
	if err := d.CopyD2H(host, out, 0); err != nil {
		t.Fatal(err)
	}
	for i, v := range host {
		if v != uint32(i*7) {
			t.Fatalf("element %d = %d, want %d", i, v, i*7)
		}
	}
}

func TestLaunchValidation(t *testing.T) {
	d := MustNew(K20Config())
	if err := d.Launch(0, 32, func(*ThreadCtx) {}); err == nil {
		t.Error("grid 0 accepted")
	}
	if err := d.Launch(1, 0, func(*ThreadCtx) {}); err == nil {
		t.Error("block 0 accepted")
	}
	if err := d.Launch(1, 2048, func(*ThreadCtx) {}); err == nil {
		t.Error("block 2048 accepted")
	}
}

func TestLaunchAdvancesClockAndMetrics(t *testing.T) {
	d := MustNew(K20Config())
	before := d.HostTime()
	err := d.Launch(64, 256, func(ctx *ThreadCtx) { ctx.Ops(100) })
	if err != nil {
		t.Fatal(err)
	}
	if d.HostTime() <= before {
		t.Fatal("synchronous launch did not advance host clock")
	}
	m := d.Metrics()
	if m.KernelLaunches != 1 {
		t.Fatalf("KernelLaunches = %d, want 1", m.KernelLaunches)
	}
	if m.ThreadOps != 64*256*100 {
		t.Fatalf("ThreadOps = %d, want %d", m.ThreadOps, 64*256*100)
	}
	// Converged warps: serialized ops equal raw ops.
	if m.WarpSerialOps != m.ThreadOps {
		t.Fatalf("converged kernel has WarpSerialOps %d != ThreadOps %d",
			m.WarpSerialOps, m.ThreadOps)
	}
	if m.DivergenceOverhead() != 0 {
		t.Fatalf("DivergenceOverhead = %v, want 0", m.DivergenceOverhead())
	}
}

func TestDivergenceModel(t *testing.T) {
	d := MustNew(K20Config())
	// One lane per warp does 320 ops, the rest do 10: warp issues 320,
	// occupying 32 lane-slots each -> serialized = 320*32 per warp.
	err := d.Launch(4, 64, func(ctx *ThreadCtx) {
		if ctx.Thread%32 == 0 {
			ctx.Ops(320)
		} else {
			ctx.Ops(10)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	m := d.Metrics()
	warps := int64(4 * 64 / 32)
	wantSerial := warps * 320 * 32
	if m.WarpSerialOps != wantSerial {
		t.Fatalf("WarpSerialOps = %d, want %d", m.WarpSerialOps, wantSerial)
	}
	if m.DivergenceOverhead() < 0.9 {
		t.Fatalf("DivergenceOverhead = %v, want > 0.9 for highly divergent kernel",
			m.DivergenceOverhead())
	}
}

func TestCoalescedAccessPattern(t *testing.T) {
	d := MustNew(K20Config())
	buf := d.MustMalloc(32 * 100)
	defer buf.Free()
	// Lane l reads elements l, l+32, l+64, ... — perfectly coalesced:
	// each step the warp touches one 128-byte segment.
	err := d.Launch(1, 32, func(ctx *ThreadCtx) {
		ctx.GlobalRead(buf, ctx.Thread, 100, 32)
	})
	if err != nil {
		t.Fatal(err)
	}
	m := d.Metrics()
	if m.GlobalAccesses != 3200 {
		t.Fatalf("GlobalAccesses = %d, want 3200", m.GlobalAccesses)
	}
	if m.GlobalTransactions != 100 {
		t.Fatalf("GlobalTransactions = %d, want 100 (coalesced)", m.GlobalTransactions)
	}
	if eff := m.CoalescingEfficiency(); eff != 1 {
		t.Fatalf("CoalescingEfficiency = %v, want 1", eff)
	}
}

func TestUncoalescedAccessPattern(t *testing.T) {
	d := MustNew(K20Config())
	buf := d.MustMalloc(32 * 1000)
	defer buf.Free()
	// Lane l reads its own contiguous 1000-word region — the adjacency-list
	// pattern: every step the 32 lanes touch 32 distinct segments.
	err := d.Launch(1, 32, func(ctx *ThreadCtx) {
		ctx.GlobalRead(buf, ctx.Thread*1000, 1000, 1)
	})
	if err != nil {
		t.Fatal(err)
	}
	m := d.Metrics()
	if m.GlobalAccesses != 32000 {
		t.Fatalf("GlobalAccesses = %d, want 32000", m.GlobalAccesses)
	}
	// 32 segments per step × 1000 steps
	if m.GlobalTransactions != 32000 {
		t.Fatalf("GlobalTransactions = %d, want 32000 (uncoalesced)", m.GlobalTransactions)
	}
	if eff := m.CoalescingEfficiency(); eff > 0.05 {
		t.Fatalf("CoalescingEfficiency = %v, want ≈ 1/32", eff)
	}
}

func TestRaggedAccessActiveSetShrinks(t *testing.T) {
	d := MustNew(K20Config())
	buf := d.MustMalloc(64 * 64)
	defer buf.Free()
	// Lane l reads l+1 words from its own segment-aligned region: at step t
	// only lanes with count > t are active.
	err := d.Launch(1, 32, func(ctx *ThreadCtx) {
		ctx.GlobalRead(buf, ctx.Thread*64, ctx.Thread+1, 1)
	})
	if err != nil {
		t.Fatal(err)
	}
	m := d.Metrics()
	// accesses = 1+2+...+32 = 528
	if m.GlobalAccesses != 528 {
		t.Fatalf("GlobalAccesses = %d, want 528", m.GlobalAccesses)
	}
	// Regions are 64-word (2-segment) apart so every active lane is its own
	// segment: transactions = Σ_t active(t) = Σ counts = 528.
	if m.GlobalTransactions != 528 {
		t.Fatalf("GlobalTransactions = %d, want 528", m.GlobalTransactions)
	}
}

func TestSameSegmentBroadcast(t *testing.T) {
	d := MustNew(K20Config())
	buf := d.MustMalloc(64)
	defer buf.Free()
	// All lanes read the same word 10 times: one segment per step.
	err := d.Launch(1, 32, func(ctx *ThreadCtx) {
		ctx.GlobalRead(buf, 0, 10, 0)
	})
	if err != nil {
		t.Fatal(err)
	}
	if m := d.Metrics(); m.GlobalTransactions != 10 {
		t.Fatalf("GlobalTransactions = %d, want 10 (broadcast)", m.GlobalTransactions)
	}
}

func TestMixedStrideFallsBackToUncoalesced(t *testing.T) {
	d := MustNew(K20Config())
	buf := d.MustMalloc(4096)
	defer buf.Free()
	err := d.Launch(1, 32, func(ctx *ThreadCtx) {
		stride := 1
		if ctx.Thread%2 == 0 {
			stride = 2
		}
		ctx.GlobalRead(buf, ctx.Thread, 5, stride)
	})
	if err != nil {
		t.Fatal(err)
	}
	if m := d.Metrics(); m.GlobalTransactions != 32*5 {
		t.Fatalf("GlobalTransactions = %d, want 160 (mixed-stride fallback)", m.GlobalTransactions)
	}
}

func TestRunOverflowChargedUncoalesced(t *testing.T) {
	d := MustNew(K20Config())
	buf := d.MustMalloc(64)
	defer buf.Free()
	err := d.Launch(1, 1, func(ctx *ThreadCtx) {
		for i := 0; i < maxRunsPerThread+10; i++ {
			ctx.GlobalRead(buf, 0, 1, 1)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	m := d.Metrics()
	if m.GlobalAccesses != maxRunsPerThread+10 {
		t.Fatalf("GlobalAccesses = %d, want %d", m.GlobalAccesses, maxRunsPerThread+10)
	}
}

func TestRooflineComputeVsMemoryBound(t *testing.T) {
	// A compute-heavy kernel's time should scale with ops; a memory-heavy
	// kernel's with transactions.
	d := MustNew(K20Config())
	err := d.Launch(256, 256, func(ctx *ThreadCtx) { ctx.Ops(10_000) })
	if err != nil {
		t.Fatal(err)
	}
	computeTime := d.HostTime()
	occupancy := float64(256*256) / float64(d.Config().SaturationThreads) // < 1 here
	wantCompute := float64(256*256*10_000) / (2496 * 706e6 * 0.85) * 1e9 / occupancy
	if math.Abs(computeTime-wantCompute-d.Config().KernelLaunchNs) > wantCompute*0.01 {
		t.Fatalf("compute-bound kernel time = %v ns, want ≈ %v ns", computeTime, wantCompute)
	}

	d2 := MustNew(K20Config())
	buf := d2.MustMalloc(1 << 20)
	defer buf.Free()
	err = d2.Launch(128, 256, func(ctx *ThreadCtx) {
		// coalesced read of 32 words per thread
		ctx.GlobalRead(buf, (ctx.GlobalID()%1024)*32, 32, 1)
		ctx.Ops(1)
	})
	if err != nil {
		t.Fatal(err)
	}
	m := d2.Metrics()
	if m.MemoryTimeNs <= m.ComputeTimeNs {
		t.Fatalf("memory-heavy kernel not memory bound: mem %v vs compute %v",
			m.MemoryTimeNs, m.ComputeTimeNs)
	}
}

func TestLaunchOnStreamOverlapsHost(t *testing.T) {
	d := MustNew(K20Config())
	s := d.NewStream()
	before := d.HostTime()
	err := d.LaunchOnStream(s, 64, 256, func(ctx *ThreadCtx) { ctx.Ops(1000) })
	if err != nil {
		t.Fatal(err)
	}
	if d.HostTime() != before {
		t.Fatal("stream launch advanced the host clock")
	}
	s.Synchronize()
	if d.HostTime() <= before {
		t.Fatal("synchronize after stream launch did not advance host clock")
	}
}

func TestStreamOrdering(t *testing.T) {
	// Two kernels on one stream serialize; their combined completion time is
	// the sum of their durations.
	d := MustNew(K20Config())
	s := d.NewStream()
	if err := d.LaunchOnStream(s, 64, 256, func(ctx *ThreadCtx) { ctx.Ops(1000) }); err != nil {
		t.Fatal(err)
	}
	s.Synchronize()
	t1 := d.HostTime()
	if err := d.LaunchOnStream(s, 64, 256, func(ctx *ThreadCtx) { ctx.Ops(1000) }); err != nil {
		t.Fatal(err)
	}
	s.Synchronize()
	t2 := d.HostTime()
	if math.Abs((t2-t1)-t1) > t1*0.01 {
		t.Fatalf("second kernel took %v, first took %v; want equal", t2-t1, t1)
	}
}

func TestCopyOverlapsKernelOnStreams(t *testing.T) {
	// With separate copy and compute engines, an async D2H on one stream
	// overlaps a kernel on another: total elapsed < sum of individual times.
	d := MustNew(K20Config())
	buf := d.MustMalloc(1 << 22)
	defer buf.Free()
	host := make([]uint32, 1<<22)

	// Measure each in isolation.
	dIso := MustNew(K20Config())
	bufIso := dIso.MustMalloc(1 << 22)
	defer bufIso.Free()
	if err := dIso.CopyD2H(host, bufIso, 0); err != nil {
		t.Fatal(err)
	}
	copyTime := dIso.HostTime()
	dIso2 := MustNew(K20Config())
	if err := dIso2.Launch(4096, 256, func(ctx *ThreadCtx) { ctx.Ops(4000) }); err != nil {
		t.Fatal(err)
	}
	kernelTime := dIso2.HostTime()

	sCopy, sKern := d.NewStream(), d.NewStream()
	if err := d.CopyD2HAsync(sCopy, host, buf, 0); err != nil {
		t.Fatal(err)
	}
	if err := d.LaunchOnStream(sKern, 4096, 256, func(ctx *ThreadCtx) { ctx.Ops(4000) }); err != nil {
		t.Fatal(err)
	}
	sCopy.Synchronize()
	sKern.Synchronize()
	elapsed := d.HostTime()
	if elapsed >= copyTime+kernelTime*0.999 {
		t.Fatalf("no overlap: elapsed %v vs copy %v + kernel %v", elapsed, copyTime, kernelTime)
	}
}

func TestDefaultStreamCopyWaitsForKernel(t *testing.T) {
	// A synchronous copy must not begin before an in-flight kernel that may
	// produce its data has finished (default-stream semantics).
	d := MustNew(K20Config())
	s := d.NewStream()
	buf := d.MustMalloc(1024)
	defer buf.Free()
	if err := d.LaunchOnStream(s, 1024, 256, func(ctx *ThreadCtx) { ctx.Ops(100000) }); err != nil {
		t.Fatal(err)
	}
	host := make([]uint32, 1024)
	if err := d.CopyD2H(host, buf, 0); err != nil {
		t.Fatal(err)
	}
	// host clock must now be past the kernel completion + copy.
	m := d.Metrics()
	if d.HostTime() < m.KernelTimeNs {
		t.Fatalf("copy completed at %v before kernel finished at %v", d.HostTime(), m.KernelTimeNs)
	}
}

func BenchmarkLaunchSmall(b *testing.B) {
	d := MustNew(K20Config())
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = d.Launch(16, 256, func(ctx *ThreadCtx) { ctx.Ops(10) })
	}
}

// raggedRunsKernel records three global runs per thread whose lengths vary
// with the thread, so every warp's access sites have unequal counts to sort
// and several segments to count.
func raggedRunsKernel(buf *Buffer) Kernel {
	return func(ctx *ThreadCtx) {
		i := ctx.GlobalID()
		ctx.GlobalRead(buf, i%4096, 1+i%7, 1)
		ctx.GlobalRead(buf, (i*33)%4096, 1+i%3, 2)
		ctx.GlobalWrite(buf, i%4096, 1+(i/32)%5, 1)
		ctx.Ops(5)
	}
}

func BenchmarkLaunchCoalescing(b *testing.B) {
	d := MustNew(K20Config())
	buf := d.MustMalloc(4096 + 64)
	defer buf.Free()
	kernel := raggedRunsKernel(buf)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = d.Launch(64, 256, kernel)
	}
}

// TestLaunchSteadyStateAllocs pins that a warmed-up launch allocates a
// constant amount, independent of how many blocks, warps and threads it runs.
func TestLaunchSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	d := MustNew(K20Config())
	buf := d.MustMalloc(4096 + 64)
	defer buf.Free()
	kernel := raggedRunsKernel(buf)
	if err := d.Launch(512, 256, kernel); err != nil {
		t.Fatal(err)
	}
	allocs := func(blocks int) float64 {
		return testing.AllocsPerRun(50, func() {
			if err := d.Launch(blocks, 256, kernel); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := allocs(16), allocs(512)
	if small != large {
		t.Errorf("allocs per launch: %v at 16 blocks, %v at 512 blocks; want equal", small, large)
	}
	if limit := float64(4 * d.workers); large > limit {
		t.Errorf("allocs per launch = %v, want at most %v", large, limit)
	}
}

// TestConcurrentDevicesShareScratch launches on several devices at once,
// each from its own goroutine and with block sizes that make the pooled
// scratch grow and shrink, and checks every device's metrics against the
// same launches run alone. Run it under -race.
func TestConcurrentDevicesShareScratch(t *testing.T) {
	run := func(blockDims []int) Metrics {
		d := MustNew(K20Config())
		buf := d.MustMalloc(4096 + 64)
		defer buf.Free()
		kernel := raggedRunsKernel(buf)
		for _, bd := range blockDims {
			if err := d.Launch(9, bd, kernel); err != nil {
				t.Error(err)
			}
		}
		return d.Metrics()
	}
	shapes := [][]int{{32, 256, 1024}, {1024, 96, 7}, {256, 256, 33}, {1, 512, 64}}
	want := make([]Metrics, len(shapes))
	for i, bd := range shapes {
		want[i] = run(bd)
	}
	got := make([]Metrics, len(shapes))
	var wg sync.WaitGroup
	for i, bd := range shapes {
		wg.Add(1)
		go func(i int, bd []int) {
			defer wg.Done()
			got[i] = run(bd)
		}(i, bd)
	}
	wg.Wait()
	for i := range shapes {
		if got[i] != want[i] {
			t.Errorf("device %d: concurrent metrics %+v, alone %+v", i, got[i], want[i])
		}
	}
}

// warpTransactionsRef is the sort-and-map coalescing counter the scratch
// version replaced, kept verbatim as the oracle for it.
func warpTransactionsRef(lanes []ThreadCtx) int64 {
	maxRuns := 0
	for i := range lanes {
		if len(lanes[i].runs) > maxRuns {
			maxRuns = len(lanes[i].runs)
		}
	}
	var total int64
	type laneRun struct {
		start int64
		count int64
	}
	active := make([]laneRun, 0, len(lanes))
	for k := 0; k < maxRuns; k++ {
		active = active[:0]
		var stride int32
		mixed := false
		first := true
		for i := range lanes {
			if k >= len(lanes[i].runs) {
				continue
			}
			r := lanes[i].runs[k]
			if first {
				stride = r.stride
				first = false
			} else if r.stride != stride {
				mixed = true
			}
			active = append(active, laneRun{r.start, int64(r.count)})
		}
		if len(active) == 0 {
			continue
		}
		if mixed {
			for _, a := range active {
				total += a.count
			}
			continue
		}
		// Sort lanes by count descending: the active set at step t is a
		// prefix.
		sort.Slice(active, func(i, j int) bool { return active[i].count > active[j].count })
		// D[j] = distinct segments among the first j+1 lanes' starts.
		segs := make(map[int64]bool, len(active))
		d := make([]int64, len(active))
		for j, a := range active {
			segs[a.start/segWords] = true
			d[j] = int64(len(segs))
		}
		// Interval [c_{j+1}, c_j) has exactly j+1 active lanes.
		for j := 0; j < len(active); j++ {
			var lower int64
			if j+1 < len(active) {
				lower = active[j+1].count
			}
			steps := active[j].count - lower
			if steps > 0 {
				total += d[j] * steps
			}
		}
	}
	return total
}

func lanePtrs(lanes []ThreadCtx) []*ThreadCtx {
	ptrs := make([]*ThreadCtx, len(lanes))
	for i := range lanes {
		ptrs[i] = &lanes[i]
	}
	return ptrs
}

// randomBlock builds n thread contexts whose recorded runs mix the access
// shapes the counter must agree with the oracle on: coalesced, scattered,
// many lanes inside one 128-byte segment, zero and mixed strides, ragged
// and tied counts, and threads that overflow maxRunsPerThread.
func randomBlock(r *rand.Rand, n int) []ThreadCtx {
	buf := &Buffer{base: int64(r.Intn(1 << 20))}
	sites := 1 + r.Intn(6)
	if r.Intn(8) == 0 {
		sites = maxRunsPerThread + 1 + r.Intn(8)
	}
	lanes := make([]ThreadCtx, n)
	for k := 0; k < sites; k++ {
		stride := []int{0, 1, 1, 2, 32, 33}[r.Intn(6)]
		mixed := r.Intn(5) == 0
		shape := r.Intn(4)
		maxCount := 1 + r.Intn(12)
		for t := range lanes {
			if r.Intn(6) == 0 {
				continue // this lane skips the site
			}
			var start int
			switch shape {
			case 0: // coalesced: consecutive words
				start = t
			case 1: // scattered
				start = r.Intn(1 << 16)
			case 2: // many lanes inside one segment
				start = 5*segWords + r.Intn(segWords)
			default: // one segment per lane
				start = t * 2 * segWords
			}
			s := stride
			if mixed && r.Intn(2) == 0 {
				s = stride + 1
			}
			lanes[t].GlobalRead(buf, start, 1+r.Intn(maxCount), s)
		}
	}
	return lanes
}

func TestWarpTransactionsMatchesOracle(t *testing.T) {
	r := rand.New(rand.NewSource(14))
	sc := new(launchScratch)
	for iter := 0; iter < 3000; iter++ {
		warp := []int{1, 7, 8, 16, 32, 64}[r.Intn(6)]
		n := 1 + r.Intn(3*warp)
		block := randomBlock(r, n)

		// One warp, as accumulateBlock hands it over.
		lanes := block[:min(n, warp)]
		if got, want := sc.warpTransactions(lanePtrs(lanes)), warpTransactionsRef(lanes); got != want {
			t.Fatalf("iter %d (warp %d, %d lanes): warpTransactions = %d, oracle %d", iter, warp, len(lanes), got, want)
		}

		// A whole block with a partial last warp, overflow charges included.
		var st launchStats
		sc.accumulateBlock(&st, lanePtrs(block), warp)
		var want int64
		for w := 0; w < n; w += warp {
			want += warpTransactionsRef(block[w:min(w+warp, n)])
		}
		for i := range block {
			want += block[i].extra
		}
		if st.transactions != want {
			t.Fatalf("iter %d (warp %d, %d threads): block transactions = %d, oracle %d", iter, warp, n, st.transactions, want)
		}
	}
}

// FuzzWarpTransactions decodes the input into one warp of access runs and
// checks the scratch counter against the sort-and-map oracle. Byte 0 sets
// the lane count; then each lane takes a run count and, per run, a start
// (two bytes), a count and a signed stride. Missing bytes read as zero.
func FuzzWarpTransactions(f *testing.F) {
	f.Add([]byte{31, 1, 0, 1, 4, 1})
	f.Add([]byte{3, 2, 0, 0, 9, 0, 0, 40, 2, 1, 1, 0, 2, 5, 1, 0, 3, 3, 255})
	f.Add([]byte{63, 70, 1, 2, 3, 4})
	f.Fuzz(func(t *testing.T, data []byte) {
		pos := 0
		next := func() byte {
			if pos >= len(data) {
				return 0
			}
			pos++
			return data[pos-1]
		}
		buf := &Buffer{}
		lanes := make([]ThreadCtx, 1+int(next())%64)
		for i := range lanes {
			runs := int(next()) % (maxRunsPerThread + 8)
			for k := 0; k < runs && pos < len(data); k++ {
				start := int(next())<<8 | int(next())
				count := 1 + int(next())%16
				stride := int(int8(next())) % 40
				lanes[i].GlobalRead(buf, start, count, stride)
			}
		}
		sc := new(launchScratch)
		for rep := 0; rep < 2; rep++ { // the second pass reuses grown scratch
			if got, want := sc.warpTransactions(lanePtrs(lanes)), warpTransactionsRef(lanes); got != want {
				t.Fatalf("warpTransactions = %d, oracle %d", got, want)
			}
		}
	})
}

func TestOccupancyScaling(t *testing.T) {
	// A small launch runs at proportionally lower throughput than a
	// saturating one: doubling the threads of an under-saturated launch
	// (same per-thread work) should leave the kernel time unchanged,
	// because throughput doubles with occupancy.
	cfg := K20Config()
	d1 := MustNew(cfg)
	if err := d1.Launch(16, 256, func(ctx *ThreadCtx) { ctx.Ops(1000) }); err != nil {
		t.Fatal(err)
	}
	small := d1.HostTime() - cfg.KernelLaunchNs

	d2 := MustNew(cfg)
	if err := d2.Launch(32, 256, func(ctx *ThreadCtx) { ctx.Ops(1000) }); err != nil {
		t.Fatal(err)
	}
	double := d2.HostTime() - cfg.KernelLaunchNs
	if math.Abs(small-double) > small*0.01 {
		t.Fatalf("under-saturated launches: 16-block %v ns vs 32-block %v ns, want equal", small, double)
	}

	// Past saturation, time scales with work again.
	sat := cfg.SaturationThreads / 256 // blocks at saturation
	d3 := MustNew(cfg)
	if err := d3.Launch(sat*2, 256, func(ctx *ThreadCtx) { ctx.Ops(1000) }); err != nil {
		t.Fatal(err)
	}
	d4 := MustNew(cfg)
	if err := d4.Launch(sat*4, 256, func(ctx *ThreadCtx) { ctx.Ops(1000) }); err != nil {
		t.Fatal(err)
	}
	t3 := d3.HostTime() - cfg.KernelLaunchNs
	t4 := d4.HostTime() - cfg.KernelLaunchNs
	if math.Abs(t4-2*t3) > t3*0.02 {
		t.Fatalf("saturated launches: 2x work took %v vs %v, want 2x", t4, t3)
	}
}

func TestOccupancyDisabled(t *testing.T) {
	cfg := K20Config()
	cfg.SaturationThreads = 0
	d := MustNew(cfg)
	if err := d.Launch(1, 32, func(ctx *ThreadCtx) { ctx.Ops(2496 * 100) }); err != nil {
		t.Fatal(err)
	}
	want := float64(32*2496*100)/(2496*706e6*0.85)*1e9 + cfg.KernelLaunchNs
	if math.Abs(d.HostTime()-want) > want*0.01 {
		t.Fatalf("occupancy-disabled time = %v, want %v", d.HostTime(), want)
	}
}
