package main

import (
	"encoding/json"
	"os"
	"testing"
)

func TestTailOfKeepsTenSamplesBeyond(t *testing.T) {
	for _, n := range []int{11, 12, 90, 200, 451} {
		s := make([]float64, n)
		for i := range s {
			s[i] = float64((i * 7919) % n) // a permutation of 0..n-1
		}
		tl := tailOf(s)
		beyond := 0
		for _, x := range s {
			if x > tl.Value {
				beyond++
			}
		}
		if beyond != tailBeyond || tl.Beyond != tailBeyond || tl.Samples != n {
			t.Errorf("n=%d: %d samples beyond %v (reported %d), want %d", n, beyond, tl.Value, tl.Beyond, tailBeyond)
		}
		if want := 100 * float64(n-tailBeyond) / float64(n); tl.Percentile != want {
			t.Errorf("n=%d: percentile %v, want %v", n, tl.Percentile, want)
		}
	}
	if tl := tailOf([]float64{3, 1, 2}); tl.Value != 3 || tl.Percentile != 100 || tl.Beyond != 0 || tl.Samples != 3 {
		t.Errorf("short sample: got %+v, want the maximum as p100", tl)
	}
	if tl := tailOf(nil); tl.Samples != 0 {
		t.Errorf("empty sample: got %+v", tl)
	}
	// 200 samples: the p95 is the highest percentile with ten beyond it.
	s := make([]float64, 200)
	for i := range s {
		s[i] = float64(i)
	}
	if tl := tailOf(s); tl.Value != 189 || tl.Percentile != 95 {
		t.Errorf("200 samples: got %+v, want value 189 at p95", tl)
	}
}

func flat(n int, v float64) []float64 {
	s := make([]float64, n)
	for i := range s {
		s[i] = v
	}
	return s
}

func TestMaxOKLadder(t *testing.T) {
	const limit = 50
	win := func(rate, lat float64) window { return window{Rate: rate, Latencies: flat(20, lat)} }
	ok := func(rate float64) level { return level{[]window{win(rate, 10), win(rate+1, 10), win(rate-1, 10)}} }
	slow := func(rate float64) level { return level{[]window{win(rate, 80), win(rate, 80), win(rate, 80)}} }
	failed := ok(20)
	failed.Windows[1].Failed = 1
	backlog := ok(20)
	backlog.Windows[2].DrainMs = 2 * limit
	cases := []struct {
		name   string
		ladder []level
		want   float64
	}{
		{"all meet the limit: the top rung's median sustained rate", []level{ok(10), ok(20), ok(40)}, 40},
		{"tail crosses at the third rung", []level{ok(10), ok(20), slow(40)}, 20},
		{"a pass above a miss does not count", []level{ok(10), slow(20), ok(40)}, 10},
		{"lowest rung misses", []level{slow(10), ok(20)}, 0},
		{"a failed request in one window misses", []level{ok(10), failed}, 10},
		{"a growing backlog in one window misses", []level{ok(10), backlog}, 10},
		{"no windows misses", []level{ok(10), {}}, 10},
	}
	for _, c := range cases {
		if got := maxOK(c.ladder, limit); got != c.want {
			t.Errorf("%s: maxOK = %v, want %v", c.name, got, c.want)
		}
	}
	// The level's figures pool its windows: 3×20 samples, 12 of them slow,
	// put the tail (11th largest) over the limit although no single
	// window's tail is.
	l := level{[]window{win(5, 10), win(5, 10), win(5, 10)}}
	for i := range l.Windows {
		copy(l.Windows[i].Latencies, flat(4, 80))
	}
	if l.ok(limit) || l.tail().Value != 80 || l.tail().Samples != 60 {
		t.Errorf("pooled tail %+v, ok %v; want 80 over 60 samples, not ok", l.tail(), l.ok(limit))
	}
	// Only the tail counts: nine slow samples are fine.
	w := window{Rate: 5, Latencies: append(flat(100, 10), flat(9, 1000)...)}
	if !(level{[]window{w}}).ok(limit) {
		t.Errorf("nine slow samples out of 109 should leave the tail at 10ms")
	}
	w.Latencies = append(w.Latencies, 1000, 1000)
	if (level{[]window{w}}).ok(limit) {
		t.Errorf("eleven slow samples should put the tail over the limit")
	}
	if p := (level{[]window{win(1, 3), win(1, 7), win(1, 5), win(1, 7)}}).p50(); p != 6 {
		t.Errorf("p50 over pooled windows = %v, want 6", p)
	}
}

func TestSelfTimesOverlappingChildren(t *testing.T) {
	spans := []span{
		{ID: 0, Parent: -1, Layer: "core", Start: 0, End: 100},
		// Two overlapping children cover [10,60); a third sticks out past
		// the parent and counts only up to 100.
		{ID: 1, Parent: 0, Layer: "gpusim", Start: 10, End: 40},
		{ID: 2, Parent: 0, Layer: "gpusim", Start: 30, End: 60},
		{ID: 3, Parent: 0, Layer: "serve", Start: 90, End: 120},
		// A grandchild is subtracted from its own parent only.
		{ID: 4, Parent: 1, Layer: "seq", Start: 15, End: 25},
	}
	got := selfTimes(spans)
	want := map[string]float64{
		"core":   100 - 50 - 10,
		"gpusim": (30 - 10) + 30,
		"serve":  30,
		"seq":    10,
	}
	for l, w := range want {
		if got[l] != w {
			t.Errorf("self time of %s = %v, want %v", l, got[l], w)
		}
	}
	if c := covered(0, 10, [][2]int64{{2, 4}, {3, 5}, {7, 9}, {8, 20}, {-5, 1}}); c != 1+3+3 {
		t.Errorf("covered = %d, want 7", c)
	}
}

func TestMetricNamesAreValidAndMatchBenchmarkJSON(t *testing.T) {
	seen := map[string]bool{}
	for _, d := range append(append([]metricDef{}, endToEnd...), perLayer...) {
		if !validName.MatchString(d.Name) {
			t.Errorf("metric name %q is not [A-Za-z0-9][A-Za-z0-9_.-]{0,63}", d.Name)
		}
		if !validUnit.MatchString(d.Unit) {
			t.Errorf("metric %s: unit %q invalid", d.Name, d.Unit)
		}
		if seen[d.Name] {
			t.Errorf("metric name %q used twice", d.Name)
		}
		seen[d.Name] = true
	}
	for _, bad := range []string{"", ".lead", "has space", "tail_ms{low}", "ünit"} {
		if validName.MatchString(bad) {
			t.Errorf("invalid name %q accepted", bad)
		}
	}
	if len(perLayer) > 128 || len(endToEnd) > 16 {
		t.Errorf("%d per-layer and %d end-to-end metrics exceed the declared limits", len(perLayer), len(endToEnd))
	}

	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skipf("no BENCHMARK.json beside the benchmark: %v", err)
	}
	var b struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, decl []struct{ Name, Unit string }, defs []metricDef) {
		if len(decl) != len(defs) {
			t.Errorf("%s: BENCHMARK.json declares %d metrics, the benchmark reports %d", kind, len(decl), len(defs))
			return
		}
		for i, d := range defs {
			if decl[i].Name != d.Name || decl[i].Unit != d.Unit {
				t.Errorf("%s[%d]: BENCHMARK.json has %s (%s), the benchmark %s (%s)", kind, i, decl[i].Name, decl[i].Unit, d.Name, d.Unit)
			}
		}
	}
	check("end_to_end", b.EndToEnd, endToEnd)
	check("per_layer", b.PerLayer, perLayer)
}

func TestReportRejectsMissingAndUndeclaredMetrics(t *testing.T) {
	defs := []metricDef{{"a", "ms"}, {"b", "s"}}
	if _, err := report(defs, map[string]float64{"a": 1}, 1, 0); err == nil {
		t.Error("missing metric accepted")
	}
	if _, err := report(defs, map[string]float64{"a": 1, "b": 2, "c": 3}, 1, 0); err == nil {
		t.Error("undeclared metric accepted")
	}
	r, err := report(defs, map[string]float64{"a": 1, "b": 2}, 3, 1)
	if err != nil || r.Correct || r.Attempted != 3 || r.Failed != 1 || r.Metrics["b"].Unit != "s" {
		t.Errorf("report = %+v, %v", r, err)
	}
}

func TestInstanceSeedsAreDistinct(t *testing.T) {
	seen := map[int64]bool{}
	for seed := int64(0); seed < 50; seed++ {
		for k := 0; k < 4; k++ {
			s := instanceSeed(seed, k)
			if seen[s] || s < 0 {
				t.Fatalf("instanceSeed(%d, %d) = %d repeats or is negative", seed, k, s)
			}
			seen[s] = true
		}
	}
}
