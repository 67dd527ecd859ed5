// Command perfbench is gpclust's benchmark: one command that runs a seeded
// workload through the public entry points of seq, graph, pgraph, core,
// gpusim and serve, checks every output, and prints each metric by name
// with its unit. README.md says why each workload is here and which layer
// figure should move which end-to-end metric.
//
// Usage (from the root of a gpclust checkout):
//
//	bash perfbench/run.sh --workload metagenome --seed 1 --seconds 15 --trace 0
//
// The last line of standard output is one JSON object:
// {"correct":…,"attempted":…,"failed":…,"metrics":{name:{"value":…,"unit":…}}}.
// With --trace 0 the metrics are the end-to-end list, with --trace 1 the
// per-layer list (and a Chrome trace is written under .bench_build/). The
// exit code is 1 when any output check or the virtual-clock exact-repeat
// gate fails, 2 on a usage or set-up error.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// sizes fixes a workload's scale. fullSizes is the benchmark; tests use
// smaller ones.
type sizes struct {
	Panel            int     // instances per batch-workload run (each its own seed)
	MetagenomeORFs   int     // ORFs per metagenome instance
	GraphScale       float64 // bench.Paper20KConfig scale per shingle-graph instance
	MetagenomeRoundS float64 // nominal seconds of one round over the panel; --seconds / it = rounds measured
	GraphRoundS      float64

	ServeCorpus   int       // ORFs generated per serve-mix corpus
	ServeResident int       // of which clustered at bootstrap; the rest are held back for inserts
	ServePanel    int       // corpora set up per run, each its own server
	ServeRates    []float64 // the fixed ladder of offered req/s, ascending
	ServeRounds   int       // windows per rung, one per round; rounds rotate over the panel's servers
	ServeHigh     int       // index of the rung reported as "high"
	ServeLimitMs  float64   // tail-latency limit for max_ok_rps
}

var fullSizes = sizes{
	Panel:            3,
	MetagenomeORFs:   1200,
	GraphScale:       0.1,
	MetagenomeRoundS: 8,
	GraphRoundS:      6,
	ServeCorpus:      1600,
	ServeResident:    800,
	ServePanel:       6,
	ServeRates:       []float64{25, 40, 55},
	ServeRounds:      6,
	ServeHigh:        2,
	ServeLimitMs:     100,
}

// runOpts are one invocation's settings.
type runOpts struct {
	Workload string
	Seed     int64
	Seconds  time.Duration
	Trace    bool
	TraceDir string
	Log      io.Writer
}

func (o runOpts) logf(format string, args ...any) {
	fmt.Fprintf(o.Log, "# "+format+"\n", args...)
}

func (o runOpts) writeTrace(tr *tracer) error {
	path := filepath.Join(o.TraceDir, fmt.Sprintf("trace-%s-seed%d.json", o.Workload, o.Seed))
	if err := tr.writeTrace(path); err != nil {
		return fmt.Errorf("writing trace: %w", err)
	}
	o.logf("trace written to %s", path)
	return nil
}

// instanceSeed derives the k-th independent input seed of a run from the
// workload seed (splitmix64), so neighbouring seeds share no instances.
func instanceSeed(seed int64, k int) int64 {
	z := uint64(seed)*0x9E3779B97F4A7C15 + uint64(k+1)*0xBF58476D1CE4E5B9
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return int64((z ^ (z >> 31)) >> 1)
}

var workloads = []string{"metagenome", "shingle-graph", "serve-mix"}

// runWorkload runs one workload and returns its result.
func runWorkload(sz sizes, o runOpts) (result, error) {
	var vals map[string]float64
	var attempted, failed int
	var err error
	switch o.Workload {
	case "metagenome", "shingle-graph":
		w := &batchWorkload{name: o.Workload, metagenome: o.Workload == "metagenome", sz: sz}
		vals, attempted, failed, err = runBatch(w, o)
	case "serve-mix":
		vals, attempted, failed, err = runServe(sz, o)
	default:
		return result{}, fmt.Errorf("unknown workload %q (want one of %v)", o.Workload, workloads)
	}
	if err != nil {
		return result{}, err
	}
	defs := endToEnd
	if o.Trace {
		defs = perLayer
	}
	return report(defs, vals, attempted, failed)
}

func main() {
	var (
		workload = flag.String("workload", "", "workload to run: metagenome, shingle-graph or serve-mix")
		seed     = flag.Int64("seed", 1, "workload seed; the same seed gives the same inputs")
		seconds  = flag.Int("seconds", 15, "how long the measured part of the run lasts")
		trace    = flag.Int("trace", 0, "1: traced run reporting the per-layer metrics; 0: end-to-end metrics")
	)
	flag.Parse()
	if *seconds < 1 || (*trace != 0 && *trace != 1) || flag.NArg() > 0 {
		fmt.Fprintln(os.Stderr, "perfbench: need --seconds >= 1 and --trace 0 or 1")
		os.Exit(2)
	}
	if _, err := os.Stat("go.mod"); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: run from the root of a gpclust checkout")
		os.Exit(2)
	}
	if runtime.GOMAXPROCS(0) > runtime.NumCPU() {
		fmt.Fprintln(os.Stderr, "perfbench: GOMAXPROCS must not exceed the CPUs available")
		os.Exit(2)
	}
	o := runOpts{Workload: *workload, Seed: *seed, Seconds: time.Duration(*seconds) * time.Second,
		Trace: *trace == 1, TraceDir: ".bench_build", Log: os.Stdout}
	o.logf("workload %s, seed %d, %ds measured, trace %d, GOMAXPROCS %d of %d CPUs",
		o.Workload, o.Seed, *seconds, *trace, runtime.GOMAXPROCS(0), runtime.NumCPU())
	res, err := runWorkload(fullSizes, o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	defs := endToEnd
	if o.Trace {
		defs = perLayer
	}
	if err := res.print(os.Stdout, defs); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	if !res.Correct {
		fmt.Fprintf(os.Stderr, "perfbench: %d of %d operations failed their checks\n", res.Failed, res.Attempted)
		os.Exit(1)
	}
}
