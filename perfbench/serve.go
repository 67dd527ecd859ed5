package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"gpclust/internal/align"
	"gpclust/internal/gpusim"
	"gpclust/internal/obs"
	"gpclust/internal/pgraph"
	"gpclust/internal/seq"
	"gpclust/internal/serve"
)

// Request classes of the serve-mix traffic.
const (
	kindNovel  = iota // /assign of a never-seen variant: cache miss, one scoring pass
	kindMember        // /assign of a resident member: must land in the member's family
	kindRepeat        // /assign resent from a recent request: a cache hit unless a write came in between
	kindInsert        // /cluster of a small batch of held-back ORFs: a write that bumps the epoch
	kindDump          // GET /dump of a resident member's family
)

var kindNames = []string{"novel-assign", "member-assign", "repeat-assign", "insert", "dump"}

// mixWeights is the share of each class in the offered traffic. The
// shares, like the three constants below, are assumed, not measured (see
// README.md): reads far outnumber writes, as in resident-index systems
// that are built once and then queried, and nothing finer is sourced.
var mixWeights = []float64{0.45, 0.15, 0.30, 0.05, 0.05}

const (
	insertBatch = 2    // sequences per /cluster request
	repeatDepth = 8    // a repeat resends one of the window's last this-many assigns
	variantSubs = 0.05 // per-residue substitution rate of a novel query
)

// request is one scheduled call, fully built before timing starts.
type request struct {
	ID     int
	Kind   int           // request class; a repeat carries the class of the request it resends
	Repeat bool          // resent from an earlier request of the window
	Due    time.Duration // offset from the segment's start
	Method string
	Path   string
	Body   []byte
	Member int            // member assigns and dumps: the resident index asked about
	Seqs   []seq.Sequence // inserts: the sequences sent
}

// class names the request's traffic class.
func (q *request) class() string {
	if q.Repeat {
		return kindNames[kindRepeat]
	}
	return kindNames[q.Kind]
}

// outcome is what happened to one request.
type outcome struct {
	Late    time.Duration // dispatch - due
	Latency time.Duration // completion - due
	Code    int
	Body    []byte
}

// Replies of the serve HTTP surface (field names per its JSON tags).
type assignReply struct {
	Assigned bool `json:"assigned"`
	Family   int  `json:"family"`
	Member   int  `json:"member"`
}

type clusterReply struct {
	Indices []int `json:"indices"`
}

type dumpReply struct {
	Members []struct {
		Index int `json:"index"`
	} `json:"members"`
}

// corpus is one seeded metagenome split into the set a server bootstraps
// and the ORFs held back for inserts and novel queries.
type corpus struct {
	Resident []seq.Sequence
	Held     []seq.Sequence
	Truth    map[string]int32 // planted family by sequence id
}

// segment is one window of the ladder: one rung's rate held for a slice of
// the run against one corpus's server. Rungs are interleaved round by
// round and each round uses the next corpus, so every rung samples the
// whole run and every corpus. Per-request cost differs several-fold from
// corpus to corpus (family sizes are heavy-tailed), so a rung's figures
// are taken over its pooled windows.
type segment struct {
	Rung   int // index into the ladder's rates
	Corpus int
	Rate   float64
	Traced bool
	Reqs   []*request
}

// serveInput is the seeded corpora and traffic of one serve-mix run.
type serveInput struct {
	Corpora  []*corpus
	Segments []*segment
}

// buildServeInput generates the corpora and every segment's requests with
// their payloads. With traced set, the schedule opens with one untraced
// round on the first corpus and every later segment is traced.
func buildServeInput(sz sizes, seed int64, segDur time.Duration, traced bool) (*serveInput, error) {
	rng := rand.New(rand.NewSource(instanceSeed(seed, 0)))
	in := &serveInput{}
	for c := 0; c < sz.ServePanel; c++ {
		mc := seq.DefaultMetagenomeConfig(sz.ServeCorpus)
		mc.Seed = instanceSeed(seed, 1+c)
		mg, err := seq.GenerateMetagenome(mc)
		if err != nil {
			return nil, err
		}
		cp := &corpus{Truth: map[string]int32{}}
		for i, s := range mg.Seqs {
			cp.Truth[s.ID] = mg.Family[i]
		}
		for i, p := range rng.Perm(len(mg.Seqs)) {
			if i < sz.ServeResident {
				cp.Resident = append(cp.Resident, mg.Seqs[p])
			} else {
				cp.Held = append(cp.Held, mg.Seqs[p])
			}
		}
		in.Corpora = append(in.Corpora, cp)
	}

	if traced {
		for r, rate := range sz.ServeRates {
			in.Segments = append(in.Segments, &segment{Rung: r, Rate: rate})
		}
	}
	for round := 0; round < sz.ServeRounds; round++ {
		for r, rate := range sz.ServeRates {
			in.Segments = append(in.Segments, &segment{Rung: r, Corpus: round % len(in.Corpora), Rate: rate, Traced: traced})
		}
	}
	next := make([]int, len(in.Corpora)) // next held-back ORF each corpus inserts
	id := 0
	for _, sg := range in.Segments {
		cp := in.Corpora[sg.Corpus]
		n := int(sg.Rate * segDur.Seconds())
		var assigns []*request // the window's assigns so far, for repeats
		for i := 0; i < n; i++ {
			q := &request{ID: id, Due: time.Duration(float64(i) / sg.Rate * 1e9), Method: http.MethodPost}
			id++
			q.Kind = pickKind(rng)
			if q.Kind == kindInsert && next[sg.Corpus]+insertBatch > len(cp.Held) ||
				q.Kind == kindRepeat && len(assigns) == 0 {
				q.Kind = kindNovel
			}
			switch q.Kind {
			case kindRepeat:
				src := assigns[len(assigns)-1-rng.Intn(min(repeatDepth, len(assigns)))]
				q.Kind, q.Repeat, q.Member, q.Path, q.Body = src.Kind, true, src.Member, src.Path, src.Body
			case kindNovel:
				src := cp.Held[rng.Intn(len(cp.Held))]
				q.Path, q.Body = "/assign", fasta(seq.Sequence{ID: fmt.Sprintf("novel%d", q.ID), Residues: variant(rng, src.Residues)})
			case kindMember:
				q.Member = rng.Intn(len(cp.Resident))
				q.Path, q.Body = "/assign", fasta(cp.Resident[q.Member])
			case kindInsert:
				q.Seqs = cp.Held[next[sg.Corpus] : next[sg.Corpus]+insertBatch]
				next[sg.Corpus] += insertBatch
				q.Path, q.Body = "/cluster", fasta(q.Seqs...)
			case kindDump:
				q.Member = rng.Intn(len(cp.Resident))
				q.Method, q.Path = http.MethodGet, fmt.Sprintf("/dump?member=%d", q.Member)
			}
			if q.Kind == kindNovel || q.Kind == kindMember {
				assigns = append(assigns, q)
			}
			sg.Reqs = append(sg.Reqs, q)
		}
	}
	return in, nil
}

func pickKind(rng *rand.Rand) int {
	x := rng.Float64()
	for k, w := range mixWeights {
		if x < w {
			return k
		}
		x -= w
	}
	return kindNovel
}

// variant substitutes residues at rate variantSubs: a homolog of src that
// no cache has seen.
func variant(rng *rand.Rand, src []byte) []byte {
	out := append([]byte(nil), src...)
	for i := range out {
		if rng.Float64() < variantSubs {
			out[i] = align.Alphabet[rng.Intn(20)]
		}
	}
	return out
}

func fasta(s ...seq.Sequence) []byte {
	var b bytes.Buffer
	_ = seq.WriteFASTA(&b, s) // a bytes.Buffer write cannot fail
	return b.Bytes()
}

// driven is one segment's client-side record.
type driven struct {
	window
	Outcomes []outcome
	DepthMax float64 // highest admission-queue depth seen at a dispatch
}

// drive dispatches one segment's schedule against h as an open loop: each
// request is sent at its due time whether or not earlier ones have
// returned, and timed from that due time. queueDepth is sampled at every
// dispatch. The window's rate counts every request; the caller discounts
// failures once the replies are checked.
func drive(h http.Handler, sg *segment, queueDepth *obs.Gauge, tr *tracer) driven {
	res := driven{Outcomes: make([]outcome, len(sg.Reqs))}
	// The window span only groups its requests: its idle time belongs to
	// no layer, so it gets a layer of its own that self times leave out.
	root := tr.begin(fmt.Sprintf("window %g req/s", sg.Rate), "window", -1, -1)
	var wg sync.WaitGroup
	start := time.Now()
	for i, q := range sg.Reqs {
		due := start.Add(q.Due)
		waitUntil(due)
		disp := time.Now()
		res.DepthMax = max(res.DepthMax, queueDepth.Value())
		tr.interval("gen.late", "bench", root, q.ID, due, disp)
		wg.Add(1)
		go func(i int, q *request, due, disp time.Time) {
			defer wg.Done()
			w := httptest.NewRecorder()
			h.ServeHTTP(w, httptest.NewRequest(q.Method, q.Path, bytes.NewReader(q.Body)))
			done := time.Now()
			tr.interval("serve."+q.class(), "serve", root, q.ID, disp, done)
			res.Outcomes[i] = outcome{Late: disp.Sub(due), Latency: done.Sub(due), Code: w.Code, Body: w.Body.Bytes()}
		}(i, q, due, disp)
	}
	wg.Wait()
	wall := time.Since(start)
	tr.end(root)
	for _, o := range res.Outcomes {
		res.Latencies = append(res.Latencies, ms(o.Latency))
	}
	if n := len(sg.Reqs); n > 0 {
		res.DrainMs = ms(wall - sg.Reqs[n-1].Due)
		res.Rate = float64(n) / wall.Seconds()
	}
	return res
}

// waitUntil returns at t: it sleeps until shortly before t, then yields
// until t. time.Sleep alone wakes up to a millisecond late, and every
// request's latency would carry that lateness.
func waitUntil(t time.Time) {
	if d := time.Until(t) - time.Millisecond; d > 0 {
		time.Sleep(d)
	}
	for time.Now().Before(t) {
		runtime.Gosched()
	}
}

// serveState tracks what one corpus's checks need across segments.
type serveState struct {
	union   map[int]seq.Sequence // resident index → sequence, from bootstrap and insert replies
	members [][2]int             // (member, family it was assigned to)
}

// check validates one outcome and records what the final checks need;
// a non-nil error marks the request failed.
func (st *serveState) check(q *request, o outcome) error {
	if o.Code != http.StatusOK {
		return fmt.Errorf("status %d: %.120s", o.Code, o.Body)
	}
	switch q.Kind {
	case kindNovel, kindMember:
		var r assignReply
		if err := json.Unmarshal(o.Body, &r); err != nil {
			return err
		}
		if q.Kind == kindMember {
			if !r.Assigned {
				return fmt.Errorf("resident member %d not assigned", q.Member)
			}
			st.members = append(st.members, [2]int{q.Member, r.Family})
		} else if r.Assigned && (r.Family < 0 || r.Member < 0) {
			return fmt.Errorf("assigned reply without a family: %s", o.Body)
		}
	case kindInsert:
		var r clusterReply
		if err := json.Unmarshal(o.Body, &r); err != nil {
			return err
		}
		if len(r.Indices) != len(q.Seqs) {
			return fmt.Errorf("insert of %d sequences returned %d indices", len(q.Seqs), len(r.Indices))
		}
		for i, ix := range r.Indices {
			if _, dup := st.union[ix]; dup {
				return fmt.Errorf("resident index %d handed out twice", ix)
			}
			st.union[ix] = q.Seqs[i]
		}
	case kindDump:
		var r dumpReply
		if err := json.Unmarshal(o.Body, &r); err != nil {
			return err
		}
		found := false
		for _, m := range r.Members {
			found = found || m.Index == q.Member
		}
		if !found {
			return fmt.Errorf("dump of member %d does not list it", q.Member)
		}
	}
	return nil
}

// serverCfg is gpclust-serve's configuration with -gpu: the LSH filter the
// server requires and device verification on dev.
func serverCfg(dev *gpusim.Device, rec *obs.Recorder) serve.Config {
	pc := pgraph.DefaultConfig()
	pc.Filter = pgraph.FilterLSH
	pc.GPU = true
	pc.Device = dev
	pc.Obs = rec
	return serve.Config{Pgraph: pc, Obs: rec}
}

// bootstrap is one set-up: serve.New plus the resident corpus clustered
// through the server, until it is ready to answer.
type bootstrap struct {
	srv         *serve.Server
	dev         *gpusim.Device
	rec         *obs.Recorder // the server's recorder
	setup, boot time.Duration
	virtualNs   float64 // device timeline after the set-up
	devMetrics  gpusim.Metrics
	families    int
}

// newBootstrap sets a server up on a fresh device. With a tracer the
// device profiles its kernels and an obs.Recorder is attached through
// serve.Config.Obs and pgraph.Config.Obs.
func newBootstrap(resident []seq.Sequence, tr *tracer) (*bootstrap, error) {
	b := &bootstrap{dev: gpusim.MustNew(gpusim.K20Config())}
	var rec *obs.Recorder
	if tr != nil {
		b.dev.EnableProfiling()
		rec = obs.New()
	}
	runtime.GC() // start every set-up from a collected heap, as a fresh process would
	t0 := time.Now()
	sp := tr.begin("serve.New", "setup", -1, -1)
	srv, err := serve.New(serverCfg(b.dev, rec))
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	b.srv, b.rec = srv, srv.Recorder()
	t1 := time.Now()
	sp = tr.begin("serve.Cluster bootstrap", "setup", -1, -1)
	res, err := srv.Cluster(resident)
	tr.end(sp)
	b.boot, b.setup = time.Since(t1), time.Since(t0)
	if err != nil {
		srv.Close()
		return nil, err
	}
	b.families = res.Families
	b.virtualNs = b.dev.HostTime()
	b.devMetrics = b.dev.Metrics()
	return b, nil
}

// serveWindow is one server's device and counter state at the start of
// the traced segments, for deltas.
type serveWindow struct {
	counters map[string]int64
	dev      gpusim.Metrics
	hostNs   float64
	prof     []gpusim.ProfileSummary
}

func snapshot(b *bootstrap) serveWindow {
	return serveWindow{serveCounters(b.rec), b.dev.Metrics(), b.dev.HostTime(), b.dev.SummarizeProfile()}
}

// runServe runs serve-mix: the set-ups (each corpus's first one is kept
// serving, its repeat runs between rounds), the interleaved ladder, then
// the final checks against from-scratch builds.
func runServe(sz sizes, o runOpts) (map[string]float64, int, int, error) {
	var tr *tracer
	if o.Trace {
		tr = newTracer()
	}
	segDur := o.Seconds / time.Duration(sz.ServeRounds*len(sz.ServeRates))
	in, err := buildServeInput(sz, o.Seed, segDur, o.Trace)
	if err != nil {
		return nil, 0, 0, err
	}
	attempted, failed := 0, 0

	// Set-up: every corpus is set up twice and the repeat must reproduce
	// the first set-up's virtual figures. The first set-up is kept serving.
	// The repeat runs after the first round that served the corpus, so the
	// set-up figures sample the whole run, as the rungs do, and not one
	// stretch of it that a busy host may slow down.
	type figures struct {
		virtualNs float64
		dev       gpusim.Metrics
		families  int
	}
	nc := len(in.Corpora)
	first := make([]*figures, nc)
	boots := make([][]float64, nc)
	servers := make([]*bootstrap, nc)
	defer func() {
		for _, s := range servers {
			if s != nil {
				s.srv.Close()
			}
		}
	}()
	var setups []float64
	setUp := func(c int, keep bool) error {
		var btr *tracer
		if keep {
			btr = tr
		}
		cp := in.Corpora[c]
		nb, err := newBootstrap(cp.Resident, btr)
		if err != nil {
			return fmt.Errorf("serve-mix set-up: %w", err)
		}
		attempted++
		f := &figures{nb.virtualNs, nb.devMetrics, nb.families}
		if first[c] == nil {
			first[c] = f
		} else if *f != *first[c] {
			failed++
			o.logf("FAIL serve-mix: corpus %d bootstrap virtual-clock figures differ between set-ups: %+v vs %+v", c, *first[c], *f)
		}
		setups = append(setups, nb.setup.Seconds())
		boots[c] = append(boots[c], nb.boot.Seconds())
		o.logf("set-up: corpus %d, %d sequences in %d families, serve.New+bootstrap %.3fs (bootstrap %.3fs), virtual %.6fs",
			c, len(cp.Resident), nb.families, nb.setup.Seconds(), nb.boot.Seconds(), nb.virtualNs/1e9)
		if keep {
			servers[c] = nb
		} else {
			nb.srv.Close()
			runtime.GC() // the next window starts from a collected heap
		}
		return nil
	}
	repeat := func(c int) error {
		if len(boots[c]) > 1 {
			return nil
		}
		return setUp(c, false)
	}
	for c := range in.Corpora {
		// The traced run sets each corpus up untraced right before its
		// traced set-up: the like-for-like base of the tracing overhead,
		// and the repeat the gate compares.
		if o.Trace {
			if err := setUp(c, false); err != nil {
				return nil, 0, 0, err
			}
		}
		if err := setUp(c, true); err != nil {
			return nil, 0, 0, err
		}
	}

	states := make([]*serveState, nc)
	handlers := make([]http.Handler, nc)
	depths := make([]*obs.Gauge, nc)
	for c, cp := range in.Corpora {
		states[c] = &serveState{union: map[int]seq.Sequence{}}
		for i, s := range cp.Resident {
			states[c].union[i] = s
		}
		handlers[c] = servers[c].srv.Handler()
		depths[c] = servers[c].rec.Gauge("serve_queue_depth", "")
	}
	var alloc uint64 // heap allocated by the ladder's windows
	segs := make([]driven, len(in.Segments))
	wins := make([]serveWindow, nc)
	for i, sg := range in.Segments {
		var str *tracer
		if sg.Traced {
			str = tr
			if i == 0 || !in.Segments[i-1].Traced {
				for c := range servers {
					wins[c] = snapshot(servers[c])
				}
			}
		}
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		d := drive(handlers[sg.Corpus], sg, depths[sg.Corpus], str)
		runtime.ReadMemStats(&m1)
		alloc += m1.TotalAlloc - m0.TotalAlloc
		for k, q := range sg.Reqs {
			attempted++
			if err := states[sg.Corpus].check(q, d.Outcomes[k]); err != nil {
				d.Failed++
				failed++
				o.logf("FAIL %s request %d (%g req/s, corpus %d): %v", q.class(), q.ID, sg.Rate, sg.Corpus, err)
			}
		}
		d.Rate *= float64(len(sg.Reqs)-d.Failed) / float64(max(len(sg.Reqs), 1))
		segs[i] = d
		if (i+1)%len(sz.ServeRates) == 0 { // the end of a round
			if err := repeat(sg.Corpus); err != nil {
				return nil, 0, 0, err
			}
		}
	}
	for c := range in.Corpora { // corpora that no round served
		if err := repeat(c); err != nil {
			return nil, 0, 0, err
		}
	}

	var f1 []float64
	for c, cp := range in.Corpora {
		attempted++
		part, truth, ok := finalCheck(servers[c].srv, states[c], cp, c, o)
		if !ok {
			failed++
		}
		f1 = append(f1, pairF1(part, truth))
	}

	// One level per rung, over that rung's untraced windows. The traced run
	// also keeps the traced lowest-rung window on the first corpus, the
	// like-for-like counterpart of its untraced one.
	levels := make([]level, len(sz.ServeRates))
	var tracedLow level
	for i, sg := range in.Segments {
		switch {
		case !sg.Traced:
			levels[sg.Rung].Windows = append(levels[sg.Rung].Windows, segs[i].window)
		case sg.Rung == 0 && sg.Corpus == 0 && len(tracedLow.Windows) == 0:
			tracedLow.Windows = append(tracedLow.Windows, segs[i].window)
		}
	}
	if o.Trace {
		vals := serveTraced(tr, servers, in.Segments, segs, tracedLow, wins, boots)
		latencyLayer(vals, levels[0], levels[sz.ServeHigh])
		if err := o.writeTrace(tr); err != nil {
			return nil, 0, 0, err
		}
		return vals, attempted, failed, nil
	}

	// The gated serving figure: the median latency over the low and high
	// rungs' pooled requests. Pooling both rungs' windows doubles the
	// samples against the host's slow stretches.
	lowHigh := level{append(append([]window(nil), levels[0].Windows...), levels[sz.ServeHigh].Windows...)}
	var seqs, boot, virt float64
	for c, cp := range in.Corpora {
		seqs += float64(len(cp.Resident))
		boot += median(boots[c])
		virt += first[c].virtualNs / 1e9 / float64(nc)
	}
	vals := map[string]float64{
		"seqs_per_s": seqs / boot,
		"virtual_s":  virt,
		"alloc_mb":   float64(alloc) / 1e6,
		"family_f1":  mean(f1),
		"setup_s":    median(setups),
		"max_ok_rps": maxOK(levels, sz.ServeLimitMs),
		"p50_ms":     lowHigh.p50(),
	}
	for r, l := range levels {
		t := l.tail()
		var late []float64
		drain, depthMax := 0.0, 0.0
		for i, sg := range in.Segments {
			if sg.Rung != r {
				continue
			}
			for _, oc := range segs[i].Outcomes {
				late = append(late, ms(oc.Late))
			}
			drain, depthMax = max(drain, segs[i].DrainMs), max(depthMax, segs[i].DepthMax)
		}
		var per []string
		for _, w := range l.Windows {
			per = append(per, fmt.Sprintf("%.2f/%.2f", median(w.Latencies), tailOf(w.Latencies).Value))
		}
		o.logf("rung %5.1f req/s offered, %.3f sustained: %d windows of %d requests, p50 %.3fms, tail p%.1f = %.3fms (windows p50/tail ms: %s), drain max %.1fms, queue depth max %g, generator late p50 %.3fms tail %.3fms, meets limit: %v",
			sz.ServeRates[r], l.rate(), len(l.Windows), t.Samples, l.p50(), t.Percentile, t.Value, strings.Join(per, " "),
			drain, depthMax, median(late), tailOf(late).Value, l.ok(sz.ServeLimitMs))
	}
	o.logf("latency limit %.0fms on the tail; low rung %g req/s, high rung %g req/s; %d set-ups over %d corpora",
		sz.ServeLimitMs, sz.ServeRates[0], sz.ServeRates[sz.ServeHigh], len(setups), nc)
	return vals, attempted, failed, nil
}

// finalCheck compares a server's resident partition with a from-scratch
// build of its union corpus and checks every member assign against it. It
// returns the partition and the planted labels of the union corpus.
func finalCheck(srv *serve.Server, st *serveState, cp *corpus, c int, o runOpts) ([]int32, []int32, bool) {
	part := srv.Partition()
	union := make([]seq.Sequence, len(part))
	truth := make([]int32, len(part))
	for i := range union {
		s, ok := st.union[i]
		if !ok {
			o.logf("FAIL serve-mix corpus %d: resident index %d was never reported by an insert", c, i)
			return part, truth, false
		}
		union[i], truth[i] = s, cp.Truth[s.ID]
	}
	ok := true
	ref := pgraph.DefaultConfig()
	ref.Filter = pgraph.FilterLSH
	g, _, err := pgraph.Build(union, ref)
	if err != nil {
		o.logf("FAIL serve-mix corpus %d: reference build: %v", c, err)
		ok = false
	} else if !samePartition(part, componentLabels(g)) {
		o.logf("FAIL serve-mix corpus %d: resident partition differs from a from-scratch build of the union corpus", c)
		ok = false
	}
	bad := 0
	for _, m := range st.members {
		if m[1] < 0 || m[1] >= len(part) || part[m[0]] != part[m[1]] {
			bad++
		}
	}
	if bad > 0 {
		o.logf("FAIL serve-mix corpus %d: %d of %d member assigns landed outside the member's family", c, bad, len(st.members))
		ok = false
	}
	return part, truth, ok
}

// serveCounters snapshots a server's counters by name.
func serveCounters(rec *obs.Recorder) map[string]int64 {
	out := map[string]int64{}
	for _, n := range []string{"serve_requests_total", "serve_passes_total", "serve_pairs_total", "serve_edges_total",
		"serve_batches_total", "serve_merges_total", "serve_cache_hits_total", "serve_cache_misses_total",
		"serve_rejected_total", "serve_failed_total"} {
		out[n] = rec.Counter(n, "").Value()
	}
	return out
}

// serveTraced reports serve-mix's per-layer figures over the traced
// segments, summed over the servers. The first segment is the untraced
// window of the lowest rung on the first corpus; low is the traced window
// of that rung and corpus; boots are each corpus's bootstrap times, an
// untraced one and then the traced one.
func serveTraced(tr *tracer, servers []*bootstrap, sgs []*segment, segs []driven, low level, wins []serveWindow, boots [][]float64) map[string]float64 {
	vals := map[string]float64{}
	counts := map[string]float64{}
	var dev gpusim.Metrics
	var prof []gpusim.ProfileSummary
	var hostNs, bootNs, bootOps, serverSum, serverCount float64
	var serverP50 []float64
	for c, b := range servers {
		for n, v := range serveCounters(b.rec) {
			counts[n] += float64(v - wins[c].counters[n])
		}
		dev = addMetrics(dev, b.dev.Metrics().Sub(wins[c].dev))
		prof = append(prof, subProfile(b.dev.SummarizeProfile(), wins[c].prof)...)
		hostNs += b.dev.HostTime() - wins[c].hostNs
		bootNs += float64(b.boot.Nanoseconds())
		bootOps += float64(b.devMetrics.ThreadOps)
		h := b.rec.Histogram("serve_assign_latency_ns", "", obs.DefBucketsNs)
		serverP50 = append(serverP50, h.Quantile(0.5)/1e6)
		serverSum += h.Sum() / 1e6
		serverCount += float64(h.Count())
	}

	// Client-side assign latency over the same requests the servers'
	// histograms saw (every segment). The difference of the two means is the
	// time spent outside the server's own timing: the HTTP parse and encode
	// plus any wait before admission. (The histogram's p50 is a bucket
	// bound, too coarse to subtract.)
	var clientAssign, late []float64
	nreq, depthMax := 0, 0.0
	for i, sg := range sgs {
		for k, q := range sg.Reqs {
			if q.Kind == kindNovel || q.Kind == kindMember {
				clientAssign = append(clientAssign, ms(segs[i].Outcomes[k].Latency))
			}
			if sg.Traced {
				late = append(late, ms(segs[i].Outcomes[k].Late))
			}
		}
		if sg.Traced {
			nreq += len(sg.Reqs)
			depthMax = max(depthMax, segs[i].DepthMax)
		}
	}
	d := func(n string) float64 { return counts[n] }

	vals["serve.requests"] = d("serve_requests_total")
	vals["serve.passes"] = d("serve_passes_total")
	vals["serve.reqs_per_pass"] = ratio(d("serve_requests_total"), d("serve_passes_total"))
	vals["serve.pairs_per_req"] = ratio(d("serve_pairs_total"), d("serve_requests_total"))
	vals["serve.merges"] = d("serve_merges_total")
	vals["serve.cache_hit_ratio"] = ratio(d("serve_cache_hits_total"), d("serve_cache_hits_total")+d("serve_cache_misses_total"))
	vals["serve.rejected"] = d("serve_rejected_total")
	vals["serve.failed"] = d("serve_failed_total")
	vals["serve.server_p50_ms"] = median(serverP50)
	vals["serve.pre_admit_ms"] = mean(clientAssign) - ratio(serverSum, serverCount)
	vals["serve.queue_depth_max"] = depthMax
	vals["serve.device_virtual_ms"] = hostNs / 1e6
	vals["serve.gen_late_ms"] = tailOf(late).Value

	// pgraph on serve-mix is the resident Verifier behind each server.
	var kept []float64
	for _, bs := range boots {
		kept = append(kept, bs[1])
	}
	vals["pgraph.build_ms"] = median(kept) * 1e3
	vals["pgraph.filter_virtual_ms"] = 0 // the LSH index is host-side and unpriced
	vals["pgraph.verify_virtual_ms"] = dev.KernelTimeNs / 1e6
	vals["pgraph.h2d_virtual_ms"] = dev.H2DTimeNs / 1e6
	vals["pgraph.d2h_virtual_ms"] = dev.D2HTimeNs / 1e6
	vals["pgraph.candidates"] = d("serve_pairs_total")
	vals["pgraph.edges"] = d("serve_edges_total")
	vals["pgraph.accept_ratio"] = ratio(d("serve_edges_total"), d("serve_pairs_total"))
	vals["pgraph.batches"] = d("serve_batches_total")
	vals["pgraph.plan_drift"] = 0
	for _, m := range perLayer {
		if strings.HasPrefix(m.Name, "core.") || strings.HasPrefix(m.Name, "seq.") || strings.HasPrefix(m.Name, "graph.") {
			vals[m.Name] = 0
		}
	}
	add := func(name string, v float64) { vals[name] = v }
	deviceLayer(add, dev, 0)
	// The bootstrap is the one serve call whose wall time is all its own.
	vals["gpusim.wall_ns_per_thread_op"] = ratio(bootNs, bootOps)
	thrustLayer(add, prof)

	// Tracing overhead, traced over untraced cost minus 1 (larger is
	// more): the traced lowest rung against its untraced repeat, and each
	// corpus's traced bootstrap against the untraced one made just before.
	vals["trace.overhead_p50_ms_low"] = ratio(low.p50(), median(segs[0].Latencies)) - 1 // segs[0]: the untraced lowest rung
	var over []float64
	for _, bs := range boots {
		over = append(over, ratio(bs[1], bs[0])-1)
	}
	vals["trace.overhead_seqs_per_s"] = mean(over)
	for _, b := range servers {
		tr.attachProgram(-1, b.rec, nil)
	}
	spanLayers(vals, tr, nreq)
	return vals
}

// subProfile returns the per-kernel profile accumulated since prev.
func subProfile(now, prev []gpusim.ProfileSummary) []gpusim.ProfileSummary {
	old := map[string]gpusim.ProfileSummary{}
	for _, p := range prev {
		old[p.Name] = p
	}
	var out []gpusim.ProfileSummary
	for _, p := range now {
		q := old[p.Name]
		p.Launches -= q.Launches
		p.TotalNs -= q.TotalNs
		p.TotalTrans -= q.TotalTrans
		if p.Launches > 0 {
			out = append(out, p)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}
