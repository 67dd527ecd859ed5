package core

import (
	"reflect"
	"testing"

	"gpclust/internal/gpusim"
	"gpclust/internal/graph"
)

func TestPipelinedMatchesSerialAcrossBatchSizes(t *testing.T) {
	g, _ := plantedTestGraph(400, 73)
	o := testOptions()
	serial, err := ClusterSerial(g, o)
	if err != nil {
		t.Fatal(err)
	}
	o.lanes = 2
	for _, batchWords := range []int{0, 50_000, 5_000, 700, 24} {
		o.BatchWords = batchWords
		dev := gpusim.MustNew(gpusim.K20Config())
		gpu, err := ClusterGPU(g, dev, o)
		if err != nil {
			t.Fatalf("BatchWords=%d: %v", batchWords, err)
		}
		if !reflect.DeepEqual(serial.Clustering, gpu.Clustering) {
			t.Fatalf("BatchWords=%d: pipelined clustering differs from serial (batches=%d splits=%d)",
				batchWords, gpu.Pass1.Batches, gpu.Pass1.SplitLists)
		}
		if gpu.Pass1.Tuples != serial.Pass1.Tuples {
			t.Fatalf("BatchWords=%d: tuple count differs", batchWords)
		}
		if batchWords == 24 && gpu.Pass1.SplitLists == 0 {
			t.Fatal("tiny batches produced no split lists; pipelined split-merge untested")
		}
		if dev.AllocatedBuffers() != 0 {
			t.Fatalf("BatchWords=%d: %d device buffers leaked", batchWords, dev.AllocatedBuffers())
		}
	}
}

func TestPipelinedReducesVirtualTime(t *testing.T) {
	g, _ := plantedTestGraph(800, 79)
	o := testOptions()
	o.BatchWords = 6_000 // force a multi-batch plan so cross-batch overlap matters

	devSeq := gpusim.MustNew(gpusim.K20Config())
	seq, err := ClusterGPU(g, devSeq, o)
	if err != nil {
		t.Fatal(err)
	}
	o.lanes = 2
	devPipe := gpusim.MustNew(gpusim.K20Config())
	pipe, err := ClusterGPU(g, devPipe, o)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(seq.Clustering, pipe.Clustering) {
		t.Fatal("pipelined clustering differs from sequential")
	}
	if seq.Pass1.Batches < 2 {
		t.Fatalf("only %d batch(es); pipeline test needs several", seq.Pass1.Batches)
	}
	if pipe.Timings.TotalNs >= seq.Timings.TotalNs {
		t.Fatalf("pipelined total %.2fms not below sequential %.2fms",
			pipe.Timings.TotalNs/1e6, seq.Timings.TotalNs/1e6)
	}
	// Transfer overlap must be visible in the breakdown: the engines'
	// summed busy time exceeds the end-to-end pipelined time.
	tp := pipe.Timings
	summed := tp.CPUNs + tp.GPUNs + tp.H2DNs + tp.D2HNs + tp.DiskIONs
	if summed <= tp.TotalNs {
		t.Fatalf("no overlap visible: components sum to %.2fms, total %.2fms",
			summed/1e6, tp.TotalNs/1e6)
	}
}

func TestPipelinedSingleBatchStillOverlapsTrials(t *testing.T) {
	// Even with one batch the pipelined path enqueues all trials on a
	// stream, so it must still match and not regress the sequential time.
	g, _ := plantedTestGraph(300, 83)
	o := testOptions()
	devSeq := gpusim.MustNew(gpusim.K20Config())
	seq, err := ClusterGPU(g, devSeq, o)
	if err != nil {
		t.Fatal(err)
	}
	o.lanes = 2
	devPipe := gpusim.MustNew(gpusim.K20Config())
	pipe, err := ClusterGPU(g, devPipe, o)
	if err != nil {
		t.Fatal(err)
	}
	if seq.Pass1.Batches != 1 || pipe.Pass1.Batches != 1 {
		t.Fatalf("expected single-batch plans, got %d/%d", seq.Pass1.Batches, pipe.Pass1.Batches)
	}
	if !reflect.DeepEqual(seq.Clustering, pipe.Clustering) {
		t.Fatal("single-batch pipelined clustering differs")
	}
	if pipe.Timings.TotalNs >= seq.Timings.TotalNs {
		t.Fatalf("pipelined total %.2fms not below sequential %.2fms",
			pipe.Timings.TotalNs/1e6, seq.Timings.TotalNs/1e6)
	}
}

func TestPipelinedFullSort(t *testing.T) {
	g, _ := plantedTestGraph(300, 89)
	o := testOptions()
	serial, err := ClusterSerial(g, o)
	if err != nil {
		t.Fatal(err)
	}
	o.lanes = 2
	o.UseFullSort = true
	o.BatchWords = 4_000
	dev := gpusim.MustNew(gpusim.K20Config())
	gpu, err := ClusterGPU(g, dev, o)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(serial.Clustering, gpu.Clustering) {
		t.Fatal("pipelined full-sort clustering differs from serial")
	}
}

func TestPipelinedSmallDevice(t *testing.T) {
	// The derived budget must leave room for both lanes on a tiny device.
	g, _ := plantedTestGraph(800, 97)
	o := testOptions()
	o.lanes = 2
	serial, err := ClusterSerial(g, o)
	if err != nil {
		t.Fatal(err)
	}
	cfg := gpusim.SmallConfig()
	cfg.GlobalMemBytes = 32 << 10
	dev := gpusim.MustNew(cfg)
	gpu, err := ClusterGPU(g, dev, o)
	if err != nil {
		t.Fatal(err)
	}
	if gpu.Pass1.Batches < 2 {
		t.Fatalf("tiny device used %d batch(es)", gpu.Pass1.Batches)
	}
	if !reflect.DeepEqual(serial.Clustering, gpu.Clustering) {
		t.Fatal("pipelined tiny-device clustering differs from serial")
	}
}

// TestPaperScheduleTimingsPinned pins the virtual Timings of fixed plans —
// the paper's 1-lane schedule — to the values of the synchronous
// Thrust-style loop (per batch: upload; per trial: kernels, blocking D2H,
// CPU aggregation): the legacy budget (one batch) and a 20K-word
// multi-batch budget, each fused and with UseFullSort, plus device-side
// aggregation and a tiny budget that splits lists across batches. The
// virtual clock is deterministic, so every component is compared bit for
// bit.
func TestPaperScheduleTimingsPinned(t *testing.T) {
	g, _ := plantedTestGraph(2000, 73)
	small, _ := plantedTestGraph(150, 73)
	cases := []struct {
		name       string
		in         *graph.Graph
		budget     int
		full, agg  bool
		wantBatch1 int
		want       Timings
	}{
		{"legacy fused", g, 0, false, false, 1, Timings{CPUNs: 1.91460828e+08, GPUNs: 1.0152305347985364e+07,
			H2DNs: 2.0074808e+07, D2HNs: 2.599374545454546e+08, DiskIONs: 8.906e+06, TotalNs: 4.9053139589343977e+08,
			H2DSetupNs: 2e+07, H2DVolumeNs: 74808, D2HSetupNs: 2.4e+08, D2HVolumeNs: 1.9937454545454547e+07,
			H2DBytes: 149616, D2HBytes: 2193120}},
		{"legacy full sort", g, 0, true, false, 1, Timings{CPUNs: 1.91460828e+08, GPUNs: 4.2797543970695984e+08,
			H2DNs: 2.0074808e+07, D2HNs: 2.599374545454546e+08, DiskIONs: 8.906e+06, TotalNs: 9.083545302524123e+08,
			H2DSetupNs: 2e+07, H2DVolumeNs: 74808, D2HSetupNs: 2.4e+08, D2HVolumeNs: 1.9937454545454547e+07,
			H2DBytes: 149616, D2HBytes: 2193120}},
		{"20K fused", g, 20_000, false, false, 5, Timings{CPUNs: 1.91460828e+08, GPUNs: 4.976086153846167e+07,
			H2DNs: 1.4007485e+08, D2HNs: 1.779937454545452e+09, DiskIONs: 8.906e+06, TotalNs: 2.170139994083922e+09,
			H2DSetupNs: 1.4e+08, H2DVolumeNs: 74850, D2HSetupNs: 1.76e+09, D2HVolumeNs: 1.9937454545454554e+07,
			H2DBytes: 149700, D2HBytes: 2193120}},
		{"20K full sort", g, 20_000, true, false, 5, Timings{CPUNs: 1.91460828e+08, GPUNs: 1.8978201107692165e+09,
			H2DNs: 1.4007485e+08, D2HNs: 1.779937454545452e+09, DiskIONs: 8.906e+06, TotalNs: 4.018199243314723e+09,
			H2DSetupNs: 1.4e+08, H2DVolumeNs: 74850, D2HSetupNs: 1.76e+09, D2HVolumeNs: 1.9937454545454554e+07,
			H2DBytes: 149700, D2HBytes: 2193120}},
		{"20K gpu aggregate", g, 20_000, false, true, 6, Timings{CPUNs: 4.2563908e+07, GPUNs: 1.802156635897456e+08,
			H2DNs: 3.56123424e+08, D2HNs: 2.2698450909090815e+09, DiskIONs: 8.906e+06, TotalNs: 2.8576540864988523e+09,
			H2DSetupNs: 3.56e+08, H2DVolumeNs: 123424, D2HSetupNs: 2.24e+09, D2HVolumeNs: 2.9845090909090802e+07,
			H2DBytes: 246848, D2HBytes: 3282960}},
		{"24 words split lists", small, 24, false, false, 133, Timings{CPUNs: 1.3181562e+07, GPUNs: 1.6188596923086342e+08,
			H2DNs: 8.788006832e+09, D2HNs: 9.84817963636777e+10, DiskIONs: 198571.42857142858, TotalNs: 1.0744506929831276e+11,
			H2DSetupNs: 8.788e+09, H2DVolumeNs: 6832, D2HSetupNs: 9.848e+10, D2HVolumeNs: 1.796363636364071e+06,
			H2DBytes: 13664, D2HBytes: 197600}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			o := testOptions()
			o.BatchWords = tc.budget
			o.UseFullSort = tc.full
			o.GPUAggregate = tc.agg
			res, err := ClusterGPU(tc.in, gpusim.MustNew(gpusim.K20Config()), o)
			if err != nil {
				t.Fatal(err)
			}
			if tc.budget == 24 && res.Pass1.SplitLists == 0 {
				t.Fatal("tiny budget split no lists")
			}
			if res.Pass1.Batches != tc.wantBatch1 || res.Pass1.Plan.Lanes != 1 {
				t.Fatalf("plan ran %d batches on %d lanes, want %d on 1",
					res.Pass1.Batches, res.Pass1.Plan.Lanes, tc.wantBatch1)
			}
			if res.Timings != tc.want {
				t.Fatalf("timings moved:\ngot  %+v\nwant %+v", res.Timings, tc.want)
			}
		})
	}
}
