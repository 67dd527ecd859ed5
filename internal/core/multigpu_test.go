package core

import (
	"reflect"
	"testing"

	"gpclust/internal/gpusim"
)

func TestMultiGPUMatchesSerial(t *testing.T) {
	g, _ := plantedTestGraph(600, 73)
	o := testOptions()
	serial, err := ClusterSerial(g, o)
	if err != nil {
		t.Fatal(err)
	}
	for _, nDev := range []int{2, 3} {
		devs := make([]*gpusim.Device, nDev)
		for i := range devs {
			devs[i] = gpusim.MustNew(gpusim.K20Config())
		}
		multi, err := ClusterMultiGPU(g, devs, o)
		if err != nil {
			t.Fatalf("%d devices: %v", nDev, err)
		}
		if !reflect.DeepEqual(serial.Clustering, multi.Clustering) {
			t.Fatalf("%d-device clustering differs from serial", nDev)
		}
		for i, d := range devs {
			if d.AllocatedBuffers() != 0 {
				t.Fatalf("device %d leaked %d buffers", i, d.AllocatedBuffers())
			}
		}
	}
}

func TestMultiGPUDistributesWork(t *testing.T) {
	g, _ := plantedTestGraph(1500, 79)
	o := testOptions()
	devs := []*gpusim.Device{
		gpusim.MustNew(gpusim.K20Config()),
		gpusim.MustNew(gpusim.K20Config()),
	}
	res, err := ClusterMultiGPU(g, devs, o)
	if err != nil {
		t.Fatal(err)
	}
	if res.Pass1.Batches < 2 {
		t.Fatalf("multi-GPU run used %d batch(es); budget split failed", res.Pass1.Batches)
	}
	m0, m1 := devs[0].Metrics(), devs[1].Metrics()
	if m0.KernelLaunches == 0 || m1.KernelLaunches == 0 {
		t.Fatalf("device kernel launches = %d / %d; work not distributed",
			m0.KernelLaunches, m1.KernelLaunches)
	}
}

func TestMultiGPUFasterThanSingle(t *testing.T) {
	g, _ := plantedTestGraph(2500, 83)
	o := testOptions()
	devSingle := gpusim.MustNew(gpusim.K20Config())
	single, err := ClusterGPU(g, devSingle, o)
	if err != nil {
		t.Fatal(err)
	}
	devs := []*gpusim.Device{
		gpusim.MustNew(gpusim.K20Config()),
		gpusim.MustNew(gpusim.K20Config()),
	}
	multi, err := ClusterMultiGPU(g, devs, o)
	if err != nil {
		t.Fatal(err)
	}
	if multi.Timings.TotalNs >= single.Timings.TotalNs {
		t.Fatalf("2-device total %.1fms not below 1-device %.1fms",
			multi.Timings.TotalNs/1e6, single.Timings.TotalNs/1e6)
	}
	if !reflect.DeepEqual(single.Clustering, multi.Clustering) {
		t.Fatal("multi-GPU clustering differs from single-GPU")
	}
}

func TestMultiGPUValidation(t *testing.T) {
	g, _ := plantedTestGraph(100, 89)
	o := testOptions()
	if _, err := ClusterMultiGPU(g, nil, o); err == nil {
		t.Fatal("no devices accepted")
	}
	devs := []*gpusim.Device{gpusim.MustNew(gpusim.K20Config()), gpusim.MustNew(gpusim.K20Config())}
	o.GPUAggregate = true
	if _, err := ClusterMultiGPU(g, devs, o); err == nil {
		t.Fatal("GPU-aggregate multi-GPU accepted (unsupported)")
	}
	o.GPUAggregate = false
	// Single device delegates to ClusterGPU.
	res, err := ClusterMultiGPU(g, devs[:1], o)
	if err != nil {
		t.Fatal(err)
	}
	if res.Backend != "gpu" {
		t.Fatalf("single-device delegate backend = %q", res.Backend)
	}
}
