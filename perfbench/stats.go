package main

import (
	"math"
	"sort"

	"gpclust/internal/graph"
	"gpclust/internal/metrics"
	"gpclust/internal/unionfind"
)

// median returns the median of v (the mean of the middle pair for an even
// count); 0 for an empty slice.
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	var s float64
	for _, x := range v {
		s += x
	}
	return s / float64(len(v))
}

// tailBeyond is how many samples must lie above the reported tail value.
const tailBeyond = 10

// tail is the highest percentile of a sample that still has tailBeyond
// samples beyond it, with the facts needed to read it: the percentile it
// turned out to be and how many samples it was taken from.
type tail struct {
	Value      float64
	Percentile float64 // e.g. 95 for the p95 of 200 samples; 100 when no percentile qualifies
	Samples    int
	Beyond     int
}

// tailOf picks the sample at sorted index n-11: exactly tailBeyond samples
// lie above it, and no higher sample has that many. With fewer than
// tailBeyond+1 samples no percentile qualifies, so the maximum is reported
// as p100 with however many samples there were.
func tailOf(samples []float64) tail {
	n := len(samples)
	if n == 0 {
		return tail{}
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	if n <= tailBeyond {
		return tail{Value: s[n-1], Percentile: 100, Samples: n}
	}
	i := n - 1 - tailBeyond
	return tail{Value: s[i], Percentile: 100 * float64(i+1) / float64(n), Samples: n, Beyond: tailBeyond}
}

// window is one repeat of a load level: the latencies it measured and
// what it sustained.
type window struct {
	Latencies []float64 // ms, each timed from when the work was due
	Rate      float64   // work completed per second over the window
	Failed    int       // refused, non-2xx or wrongly answered
	DrainMs   float64   // from the window's last due instant to its last completion
}

// level is one offered-load point of a workload, measured over repeated
// windows: a ladder rate for the server, a number of jobs in flight for
// the batch workloads. Its latency figures are taken over the pooled
// samples of all its windows, which the workloads spread across the run
// and across their inputs; its rate is the median over windows.
type level struct {
	Windows []window
}

func (l level) samples() []float64 {
	var all []float64
	for _, w := range l.Windows {
		all = append(all, w.Latencies...)
	}
	return all
}

// p50 is the median latency over the level's samples.
func (l level) p50() float64 { return median(l.samples()) }

// tail is the tail of the level's samples.
func (l level) tail() tail { return tailOf(l.samples()) }

// rate is the median sustained rate over windows.
func (l level) rate() float64 {
	v := make([]float64, len(l.Windows))
	for i, w := range l.Windows {
		v[i] = w.Rate
	}
	return median(v)
}

// ok reports whether the level meets the latency limit: no failure in any
// window, the tail within the limit, and no window left with a backlog
// draining past it.
func (l level) ok(limitMs float64) bool {
	if len(l.Windows) == 0 {
		return false
	}
	for _, w := range l.Windows {
		if w.Failed > 0 || len(w.Latencies) == 0 || w.DrainMs > limitMs {
			return false
		}
	}
	return l.tail().Value <= limitMs
}

// maxOK returns the sustained rate of the highest level of an ascending
// ladder whose levels, up to and including it, all meet the limit; 0 when
// the lowest level misses. Stopping at the first miss keeps one lucky
// rung above a failed one from being reported as capacity.
func maxOK(levels []level, limitMs float64) float64 {
	best := 0.0
	for _, l := range levels {
		if !l.ok(limitMs) {
			break
		}
		best = l.rate()
	}
	return best
}

// pairF1 is the harmonic mean of pairwise precision and recall of a
// partition against planted labels (negative truth labels are background
// and co-grouped with nothing).
func pairF1(test, truth []int32) float64 {
	c := metrics.PairConfusion(test, truth, len(truth))
	p, r := c.PPV(), c.Sensitivity()
	if p+r == 0 {
		return 0
	}
	return 2 * p * r / (p + r)
}

// clusterLabels maps a partition given as member lists to per-vertex labels.
func clusterLabels(clusters [][]uint32, n int) []int32 {
	l := make([]int32, n)
	for i := range l {
		l[i] = -1
	}
	for ci, members := range clusters {
		for _, v := range members {
			l[v] = int32(ci)
		}
	}
	next := int32(len(clusters))
	for i := range l {
		if l[i] < 0 {
			l[i] = next
			next++
		}
	}
	return l
}

// componentLabels labels each vertex with its connected component's root.
func componentLabels(g *graph.Graph) []int32 {
	n := g.NumVertices()
	uf := unionfind.New(n)
	for u := 0; u < n; u++ {
		for _, v := range g.Neighbors(uint32(u)) {
			uf.Union(u, int(v))
		}
	}
	return uf.Labels()
}

// samePartition reports whether two labelings induce the same partition;
// label values themselves are arbitrary.
func samePartition(a, b []int32) bool {
	if len(a) != len(b) {
		return false
	}
	fwd := map[int32]int32{}
	rev := map[int32]int32{}
	for i := range a {
		if m, ok := fwd[a[i]]; ok && m != b[i] {
			return false
		}
		if m, ok := rev[b[i]]; ok && m != a[i] {
			return false
		}
		fwd[a[i]], rev[b[i]] = b[i], a[i]
	}
	return true
}

// ratio is num/den, 0 when den is 0 (a layer that did no work).
func ratio(num, den float64) float64 {
	if den == 0 || math.IsNaN(den) {
		return 0
	}
	return num / den
}
