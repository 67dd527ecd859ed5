package main

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
	"time"

	"gpclust/internal/obs"
	"gpclust/internal/pgraph"
)

// smokeSizes shrinks every workload to a few seconds in total.
var smokeSizes = sizes{
	Panel:            2,
	MetagenomeORFs:   90,
	GraphScale:       0.01,
	MetagenomeRoundS: 1,
	GraphRoundS:      1,
	ServeCorpus:      160,
	ServeResident:    80,
	ServePanel:       2,
	ServeRates:       []float64{20, 40},
	ServeRounds:      2,
	ServeHigh:        1,
	ServeLimitMs:     1000,
}

// TestSmokeAllWorkloads runs every workload at toy size, untraced and
// traced, and checks that each run passes its own checks and reports
// exactly its declared metrics.
func TestSmokeAllWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	for _, wl := range workloads {
		for _, traced := range []bool{false, true} {
			var log bytes.Buffer
			o := runOpts{Workload: wl, Seed: 3, Seconds: time.Second, Trace: traced, TraceDir: t.TempDir(), Log: &log}
			res, err := runWorkload(smokeSizes, o)
			if err != nil {
				t.Fatalf("%s trace=%v: %v\n%s", wl, traced, err, log.String())
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 2 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d\n%s", wl, traced, res.Correct, res.Attempted, res.Failed, log.String())
			}
			defs := endToEnd
			if traced {
				defs = perLayer
			}
			if len(res.Metrics) != len(defs) {
				t.Errorf("%s trace=%v: %d metrics, want %d", wl, traced, len(res.Metrics), len(defs))
			}
			if !traced {
				for _, d := range endToEnd {
					if v := res.Metrics[d.Name].Value; !(v > 0) {
						t.Errorf("%s: end-to-end metric %s = %v, want > 0", wl, d.Name, v)
					}
				}
				continue
			}
			want := map[string]string{"metagenome": "self.seq_ms", "shingle-graph": "self.graph_ms", "serve-mix": "self.serve_ms"}[wl]
			for _, name := range []string{want, "self.core_ms", "self.pgraph_ms", "self.gpusim_ms", "trace.spans"} {
				if wl == "serve-mix" && name != want && name != "trace.spans" {
					continue
				}
				if wl == "shingle-graph" && (name == "self.pgraph_ms" || name == "self.gpusim_ms") {
					continue
				}
				if v := res.Metrics[name].Value; !(v > 0) {
					t.Errorf("%s traced: %s = %v, want > 0", wl, name, v)
				}
			}
			if !strings.Contains(log.String(), "trace written to") {
				t.Errorf("%s traced: no trace file reported\n%s", wl, log.String())
			}
		}
	}
}

// TestExactRepeatGateFailsTheRun feeds the gate a repeat whose virtual
// figures moved and expects the run to count it as failed.
func TestExactRepeatGateFailsTheRun(t *testing.T) {
	if testing.Short() {
		t.Skip("generates an instance")
	}
	var log bytes.Buffer
	w := &batchWorkload{name: "shingle-graph", sz: smokeSizes}
	in, err := w.generate(5)
	if err != nil {
		t.Fatal(err)
	}
	b := &batchRun{w: w, o: runOpts{Log: &log}, insts: []*instance{in}, prints: map[int]string{}}
	if b.exec(0, nil, -1) == nil || b.exec(0, nil, -1) == nil || b.failed != 0 {
		t.Fatalf("identical repeats failed the gate:\n%s", log.String())
	}
	b.prints[0] = strings.Replace(b.prints[0], "TotalNs:", "TotalNs:1", 1)
	if b.exec(0, nil, -1) != nil || b.failed != 1 || !strings.Contains(log.String(), "differ between repeats") {
		t.Fatalf("a moved virtual figure passed the gate (failed=%d):\n%s", b.failed, log.String())
	}
}

// TestAttachProgramNestsByVirtualTime places wall-carrying program spans
// under a benchmark call: phases end to end, batches inside their phase.
func TestAttachProgramNestsByVirtualTime(t *testing.T) {
	tr := newTracer()
	call := tr.interval("core.ClusterGPU", "core", -1, -1, tr.origin, tr.origin.Add(1000))
	rec := obs.New()
	ph := rec.Start(obs.TrackPhases, "pass1", 0)
	bt := rec.Start(obs.TrackBatches, "pass1.b0", 10)
	time.Sleep(time.Millisecond)
	bt.End(20)
	ph.End(50)
	rec.Span(obs.TrackHostCPU, "aggregate", 50, 60) // virtual only: trace file, no placement
	tr.attachProgram(call, rec, func(s obs.Span) string {
		if s.Track == obs.TrackBatches {
			return "gpusim"
		}
		return "core"
	})
	spans := tr.snapshot()
	if len(spans) != 3 {
		t.Fatalf("got %d spans, want the call plus two placed spans: %+v", len(spans), spans)
	}
	phase, batch := spans[1], spans[2]
	if phase.Parent != call || batch.Parent != phase.ID || !phase.Placed || !batch.Placed {
		t.Errorf("nesting wrong: phase %+v batch %+v", phase, batch)
	}
	if phase.Start != 0 || phase.End > 1000 || batch.End > phase.End {
		t.Errorf("placement escapes its parent: phase %+v batch %+v", phase, batch)
	}
	if len(tr.prog) != 3 {
		t.Errorf("collected %d program spans for the trace file, want 3", len(tr.prog))
	}
}

// TestServeScheduleIsSeeded checks that the same seed yields the same
// requests and payloads and that another seed does not.
func TestServeScheduleIsSeeded(t *testing.T) {
	a, err := buildServeInput(smokeSizes, 7, time.Second, false)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := buildServeInput(smokeSizes, 7, time.Second, false)
	c, _ := buildServeInput(smokeSizes, 8, time.Second, false)
	same := func(x, y *serveInput) bool {
		for r := range x.Segments {
			if len(x.Segments[r].Reqs) != len(y.Segments[r].Reqs) {
				return false
			}
			for i, q := range x.Segments[r].Reqs {
				p := y.Segments[r].Reqs[i]
				if q.Kind != p.Kind || q.Path != p.Path || !bytes.Equal(q.Body, p.Body) || q.Due != p.Due {
					return false
				}
			}
		}
		return true
	}
	if !same(a, b) {
		t.Error("same seed, different schedule")
	}
	if same(a, c) {
		t.Error("different seeds, same schedule")
	}
	if got := len(a.Segments[0].Reqs); got != 20 {
		t.Errorf("20 req/s for 1s scheduled %d requests", got)
	}
	// Rungs are interleaved round by round.
	var rungs []int
	for _, sg := range a.Segments {
		rungs = append(rungs, sg.Rung)
	}
	if fmt.Sprint(rungs) != "[0 1 0 1]" {
		t.Errorf("segment rungs %v, want two interleaved rounds", rungs)
	}
	if tr, _ := buildServeInput(smokeSizes, 7, time.Second, true); tr.Segments[1].Traced || !tr.Segments[2].Traced || len(tr.Segments) != 6 {
		t.Errorf("traced schedule must open with one untraced round")
	}
	// Rounds rotate over the corpora, and inserts never resend a resident
	// or already-inserted sequence of their corpus.
	seen := make([]map[string]bool, len(a.Corpora))
	for c, cp := range a.Corpora {
		seen[c] = map[string]bool{}
		for _, s := range cp.Resident {
			seen[c][s.ID] = true
		}
	}
	var corpora []int
	for _, sg := range a.Segments {
		corpora = append(corpora, sg.Corpus)
		for _, q := range sg.Reqs {
			for _, s := range q.Seqs {
				if seen[sg.Corpus][s.ID] {
					t.Fatalf("sequence %s sent twice to corpus %d", s.ID, sg.Corpus)
				}
				seen[sg.Corpus][s.ID] = true
			}
		}
	}
	if fmt.Sprint(corpora) != "[0 0 1 1]" {
		t.Errorf("segment corpora %v, want one corpus per round", corpora)
	}
	if _, err := pgraph.ResolveLSHShape(serverCfg(nil, nil).Pgraph); err != nil {
		t.Errorf("server configuration rejected: %v", err)
	}
}
