package main

import (
	"encoding/json"
	"fmt"
	"io"
	"regexp"
	"sort"
)

// metricDef names one reported figure and its unit. The lists below are
// the benchmark's whole vocabulary: every run with -trace 0 prints exactly
// the end-to-end list, every run with -trace 1 exactly the per-layer list,
// on every workload. A layer a workload does not call reports 0 there.
type metricDef struct{ Name, Unit string }

// endToEnd is what a user of gpclust sees. README.md gives each one's
// meaning per workload.
var endToEnd = []metricDef{
	{"seqs_per_s", "1/s"},
	{"virtual_s", "s"},
	{"alloc_mb", "MB"},
	{"family_f1", "ratio"},
	{"setup_s", "s"},
	{"max_ok_rps", "1/s"},
	{"p50_ms", "ms"},
}

// thrustKernels are the kernels the default plans launch; anything else a
// later plan launches is summed under "other".
var thrustKernels = []string{"sw_score", "fused_hash_top_s", "unpack_residues", "other"}

// perLayer is the traced run's vocabulary. README.md maps each figure to
// the end-to-end metric and workload it should move.
var perLayer = func() []metricDef {
	d := []metricDef{
		// Latency at the low and high load levels. On the 2-CPU container
		// this benchmark was tuned on they spread too far from run to run
		// to gate on (see README.md), so they are reported, not bounded.
		{"p50_ms.low", "ms"},
		{"tail_ms.low", "ms"},
		{"p50_ms.high", "ms"},
		{"tail_ms.high", "ms"},

		{"seq.parse_ms", "ms"},
		{"graph.read_ms", "ms"},

		{"pgraph.build_ms", "ms"},
		{"pgraph.filter_virtual_ms", "ms"},
		{"pgraph.verify_virtual_ms", "ms"},
		{"pgraph.h2d_virtual_ms", "ms"},
		{"pgraph.d2h_virtual_ms", "ms"},
		{"pgraph.candidates", "count"},
		{"pgraph.edges", "count"},
		{"pgraph.accept_ratio", "ratio"},
		{"pgraph.batches", "count"},
		{"pgraph.plan_drift", "ratio"},

		{"core.cluster_ms", "ms"},
		{"core.pass1_ms", "ms"},
		{"core.pass2_ms", "ms"},
		{"core.report_ms", "ms"},
		{"core.cpu_virtual_ms", "ms"},
		{"core.gpu_virtual_ms", "ms"},
		{"core.h2d_virtual_ms", "ms"},
		{"core.d2h_virtual_ms", "ms"},
		{"core.tuples", "count"},
		{"core.shingles", "count"},
		{"core.batches", "count"},
		{"core.split_lists", "count"},
		{"core.h2d_bytes", "bytes"},
		{"core.plan_drift", "ratio"},
		{"core.serial_baseline_s", "s"},

		{"gpusim.launches", "count"},
		{"gpusim.thread_ops", "count"},
		{"gpusim.warp_ops", "count"},
		{"gpusim.transactions", "count"},
		{"gpusim.h2d_bytes", "bytes"},
		{"gpusim.d2h_bytes", "bytes"},
		{"gpusim.kernel_virtual_ms", "ms"},
		{"gpusim.divergence", "ratio"},
		{"gpusim.ops_per_byte", "ratio"},
		{"gpusim.wall_ns_per_thread_op", "ns"},
	}
	for _, k := range thrustKernels {
		d = append(d,
			metricDef{"thrust." + k + ".launches", "count"},
			metricDef{"thrust." + k + ".virtual_ms", "ms"},
			metricDef{"thrust." + k + ".transactions", "count"})
	}
	d = append(d,
		metricDef{"serve.requests", "count"},
		metricDef{"serve.passes", "count"},
		metricDef{"serve.reqs_per_pass", "ratio"},
		metricDef{"serve.pairs_per_req", "ratio"},
		metricDef{"serve.merges", "count"},
		metricDef{"serve.cache_hit_ratio", "ratio"},
		metricDef{"serve.rejected", "count"},
		metricDef{"serve.failed", "count"},
		metricDef{"serve.server_p50_ms", "ms"},
		metricDef{"serve.pre_admit_ms", "ms"},
		metricDef{"serve.queue_depth_max", "count"},
		metricDef{"serve.device_virtual_ms", "ms"},
		metricDef{"serve.gen_late_ms", "ms"},

		metricDef{"self.bench_ms", "ms"},
		metricDef{"self.seq_ms", "ms"},
		metricDef{"self.graph_ms", "ms"},
		metricDef{"self.pgraph_ms", "ms"},
		metricDef{"self.core_ms", "ms"},
		metricDef{"self.gpusim_ms", "ms"},
		metricDef{"self.serve_ms", "ms"},

		metricDef{"trace.overhead_seqs_per_s", "ratio"},
		metricDef{"trace.overhead_p50_ms_low", "ratio"},
		metricDef{"trace.spans", "count"},
	)
	return d
}()

// validName is the metric-name rule: a letter or digit first, then up to
// 63 letters, digits, '_', '.' or '-'.
var validName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// validUnit is the unit rule.
var validUnit = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)

type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a run prints.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// report assembles a result from measured values. Every name of defs must
// be present in vals and nothing else may be; a mismatch is a benchmark bug.
func report(defs []metricDef, vals map[string]float64, attempted, failed int) (result, error) {
	r := result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: map[string]value{}}
	for _, d := range defs {
		v, ok := vals[d.Name]
		if !ok {
			return r, fmt.Errorf("metric %s was not measured", d.Name)
		}
		r.Metrics[d.Name] = value{Value: v, Unit: d.Unit}
	}
	if len(vals) != len(defs) {
		known := map[string]bool{}
		for _, d := range defs {
			known[d.Name] = true
		}
		var extra []string
		for k := range vals {
			if !known[k] {
				extra = append(extra, k)
			}
		}
		sort.Strings(extra)
		return r, fmt.Errorf("metrics measured but not declared: %v", extra)
	}
	return r, nil
}

// print writes one human-readable line per metric, then the result as one
// JSON object on the last line.
func (r result) print(w io.Writer, defs []metricDef) error {
	for _, d := range defs {
		fmt.Fprintf(w, "%-34s %16.6g %s\n", d.Name, r.Metrics[d.Name].Value, d.Unit)
	}
	b, err := json.Marshal(r)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}
