package pgraph

import (
	"slices"
	"testing"

	"gpclust/internal/gpusim"
	"gpclust/internal/graph"
	"gpclust/internal/seq"
)

func testMetagenome(t testing.TB, n int) []seq.Sequence {
	t.Helper()
	cfg := seq.DefaultMetagenomeConfig(n)
	cfg.Seed = 7
	m, err := seq.GenerateMetagenome(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return m.Seqs
}

func graphsEqual(t *testing.T, label string, want, got *graph.Graph) {
	t.Helper()
	if len(want.Offsets) != len(got.Offsets) || len(want.Adj) != len(got.Adj) {
		t.Fatalf("%s: shape differs: %d/%d offsets, %d/%d adj",
			label, len(want.Offsets), len(got.Offsets), len(want.Adj), len(got.Adj))
	}
	for i := range want.Offsets {
		if want.Offsets[i] != got.Offsets[i] {
			t.Fatalf("%s: offsets differ at %d", label, i)
		}
	}
	for i := range want.Adj {
		if want.Adj[i] != got.Adj[i] {
			t.Fatalf("%s: adjacency differs at %d", label, i)
		}
	}
}

// TestGPUMatchesHostEdges is the backend-equivalence gate: the GPU-SW path
// must accept the bit-identical edge set for every batch budget, on 1–4
// lanes, packed, unpacked or fused, with and without length binning.
func TestGPUMatchesHostEdges(t *testing.T) {
	seqs := testMetagenome(t, 120)
	host, hst, err := Build(seqs, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if hst.Backend != "host" || hst.Edges == 0 {
		t.Fatalf("host build: backend %q, %d edges", hst.Backend, hst.Edges)
	}

	cases := []struct {
		name string
		mut  func(*Config)
	}{
		{"default-budget", func(c *Config) {}},
		{"small-batches", func(c *Config) { c.GPUBatchWords = 6_000 }},
		{"tiny-batches", func(c *Config) { c.GPUBatchWords = 1_200 }},
		{"pipelined", func(c *Config) { *c = FixedLanes(*c, 2) }},
		{"pipelined-small", func(c *Config) { *c = FixedLanes(*c, 2); c.GPUBatchWords = 12_000 }},
		{"three-lanes-unpacked", func(c *Config) {
			*c = FixedLanes(*c, 3)
			c.Packed = false
			c.GPUBatchWords = 6_000
		}},
		{"four-lanes-unfused", func(c *Config) {
			*c = FixedLanes(*c, 4)
			c.Fuse = false
			c.GPUBatchWords = 3_000
		}},
		{"no-binning", func(c *Config) { c.NoLengthBin = true; c.GPUBatchWords = 6_000 }},
		{"no-binning-pipelined", func(c *Config) {
			*c = FixedLanes(*c, 2)
			c.NoLengthBin = true
			c.GPUBatchWords = 12_000
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := DefaultConfig()
			cfg.GPU = true
			tc.mut(&cfg)
			g, st, err := Build(seqs, cfg)
			if err != nil {
				t.Fatal(err)
			}
			graphsEqual(t, tc.name, host, g)
			if st.Backend != "gpu" || st.GPUBatches == 0 {
				t.Fatalf("gpu build: backend %q, %d batches", st.Backend, st.GPUBatches)
			}
			if st.AlignNs <= 0 || st.H2DNs <= 0 || st.D2HNs <= 0 || st.TotalNs <= st.FilterNs {
				t.Fatalf("breakdown not populated: %+v", st)
			}
		})
	}
}

// TestGPUSmallDeviceMemoryLimit drives the scheduler through a 1 MB device:
// the budget derives from FreeMemory, forcing many batches through the
// Algorithm-2-style packing, with the identical edge set.
func TestGPUSmallDeviceMemoryLimit(t *testing.T) {
	seqs := testMetagenome(t, 120)
	host, _, err := Build(seqs, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, lanes := range []int{1, 2} {
		cfg := FixedLanes(DefaultConfig(), lanes)
		cfg.GPU = true
		devCfg := gpusim.SmallConfig()
		devCfg.GlobalMemBytes = 16 << 10 // tighter still: force real batching
		cfg.Device = gpusim.MustNew(devCfg)
		g, st, err := Build(seqs, cfg)
		if err != nil {
			t.Fatal(err)
		}
		graphsEqual(t, "small device", host, g)
		if st.GPUBatches < 2 {
			t.Fatalf("lanes=%d: 1 MB device should force multiple batches, got %d", lanes, st.GPUBatches)
		}
		if err := cfg.Device.LeakCheck(); err != nil {
			t.Fatalf("lanes=%d: %v", lanes, err)
		}
	}
}

// TestGPUBudgetTooSmall: a budget that cannot hold even one pair must fail
// loudly, not truncate the pair list.
func TestGPUBudgetTooSmall(t *testing.T) {
	seqs := testMetagenome(t, 40)
	cfg := DefaultConfig()
	cfg.GPU = true
	cfg.GPUBatchWords = swTableLen + 8
	if _, _, err := Build(seqs, cfg); err == nil {
		t.Fatal("expected an error for a batch budget below one pair")
	}
}

// TestGPUPipelinedLowerVirtualTotal asserts the point of a second lane:
// with the batch stream forced to many batches, overlapping staging with
// kernels and readback must beat the paper's 1-lane loop on the virtual
// clock.
func TestGPUPipelinedLowerVirtualTotal(t *testing.T) {
	seqs := testMetagenome(t, 250)
	base := DefaultConfig()
	base.GPU = true
	base.GPUBatchWords = 4_000

	seqCfg := base
	_, sst, err := Build(seqs, seqCfg)
	if err != nil {
		t.Fatal(err)
	}
	pipeCfg := FixedLanes(base, 2)
	_, pst, err := Build(seqs, pipeCfg)
	if err != nil {
		t.Fatal(err)
	}
	if sst.GPUBatches < 3 {
		t.Fatalf("want several batches for the overlap to matter, got %d", sst.GPUBatches)
	}
	if pst.TotalNs >= sst.TotalNs {
		t.Fatalf("pipelined virtual total %.3fms not below sequential %.3fms",
			pst.TotalNs/1e6, sst.TotalNs/1e6)
	}
}

// TestFixedPlanVirtualFiguresPinned pins the paper schedule's virtual
// figures: fixed plans on a 700-ORF metagenome (seed 1) must reproduce
// these Stats and predictions exactly. The virtual clock is deterministic,
// so any drift here is a real change to the 1-lane loop or its predictor.
func TestFixedPlanVirtualFiguresPinned(t *testing.T) {
	mc := seq.DefaultMetagenomeConfig(700)
	mc.Seed = 1
	mg, err := seq.GenerateMetagenome(mc)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		packed                          bool
		budget, batches                 int
		total, align, h2d, d2h, predict float64
	}{
		{true, 0, 1, 1.0182807445969571e+08, 5.4684539186968446e+07, 8.056524e+06, 4.099927272727273e+06, 6.683541640739552e+07},
		{true, 12_000, 4, 2.991347806900128e+08, 2.2769954541728556e+08, 2.0082112e+07, 1.6099927272727273e+07, 2.6308069914903584e+08},
		{true, 40_000, 1, 1.0182807445969571e+08, 5.4684539186968446e+07, 8.056524e+06, 4.099927272727273e+06, 6.683541640739552e+07},
		{false, 0, 1, 9.503544691597243e+07, 4.800635164324516e+07, 8.076716e+06, 4.099927272727273e+06, 6.004278886367223e+07},
		{false, 12_000, 7, 4.46319910322696e+08, 3.5091613504996866e+08, 3.2151652e+07, 2.8099927272727273e+07, 4.121167139225285e+08},
		{false, 40_000, 2, 1.8029406540533423e+08, 1.2520524013260695e+08, 1.2088662e+07, 8.099927272727273e+06, 1.4589665631746486e+08},
	}
	for _, tc := range cases {
		cfg := DefaultConfig()
		cfg.GPU = true
		cfg.Packed = tc.packed
		cfg.GPUBatchWords = tc.budget
		cfg.PredictCost = true
		cfg.Device = gpusim.MustNew(gpusim.K20Config())
		_, st, err := Build(mg.Seqs, cfg)
		if err != nil {
			t.Fatal(err)
		}
		got := []float64{st.TotalNs, st.AlignNs, st.H2DNs, st.D2HNs, st.Plan.PredictedNs}
		want := []float64{tc.total, tc.align, tc.h2d, tc.d2h, tc.predict}
		if st.GPUBatches != tc.batches || st.Plan.Lanes != 1 || !slices.Equal(got, want) {
			t.Errorf("packed=%v budget=%d: %d batches on %d lanes, [total align h2d d2h predicted] = %v, want %d batches on 1 lane, %v",
				tc.packed, tc.budget, st.GPUBatches, st.Plan.Lanes, got, tc.batches, want)
		}
	}
}

// TestGPUBinningReducesDivergence checks the warp-divergence rationale for
// length binning: scheduling mixed-cost pairs into the same warps must waste
// more warp issue slots than the binned order.
func TestGPUBinningReducesDivergence(t *testing.T) {
	seqs := testMetagenome(t, 250)
	run := func(noBin bool) Stats {
		cfg := DefaultConfig()
		cfg.GPU = true
		cfg.GPUBatchWords = 30_000
		cfg.NoLengthBin = noBin
		_, st, err := Build(seqs, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	binned, unbinned := run(false), run(true)
	if binned.Divergence >= unbinned.Divergence {
		t.Fatalf("binned divergence %.4f not below unbinned %.4f",
			binned.Divergence, unbinned.Divergence)
	}
}

func BenchmarkPGraphGPU(b *testing.B) {
	seqs := testMetagenome(b, 250)
	cfg := DefaultConfig()
	cfg.GPU = true
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := Build(seqs, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPGraphGPUPipelined(b *testing.B) {
	seqs := testMetagenome(b, 250)
	cfg := FixedLanes(DefaultConfig(), 2)
	cfg.GPU = true
	cfg.GPUBatchWords = 30_000
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := Build(seqs, cfg); err != nil {
			b.Fatal(err)
		}
	}
}
