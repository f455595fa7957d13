package main

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"time"

	"contractdb/internal/bisim"
	"contractdb/internal/buchi"
	"contractdb/internal/core"
	"contractdb/internal/ltl"
	"contractdb/internal/ltl2ba"
	"contractdb/internal/permission"
	"contractdb/internal/prefilter"
	"contractdb/internal/qcache"
	"contractdb/internal/shard"
	"contractdb/internal/store"
	"contractdb/internal/stream"
	"contractdb/internal/wal"
)

// ---- spans ----

// span is one timed call into a layer. Spans of one operation share
// the root's id as op.
type span struct {
	ID     int       `json:"id"`
	Parent int       `json:"parent"` // -1 for a root
	Op     int       `json:"op"`
	Name   string    `json:"name"`
	Start  time.Time `json:"start"`
	End    time.Time `json:"end"`
}

func (s span) dur() time.Duration { return s.End.Sub(s.Start) }

// recorder keeps spans in memory; they are written out once the run
// ends.
type recorder struct {
	spans []span
	open  []int // stack of open span ids
}

func (r *recorder) begin(name string) int {
	id := len(r.spans)
	parent, op := -1, id
	if n := len(r.open); n > 0 {
		parent = r.open[n-1]
		op = r.spans[parent].Op
	}
	r.spans = append(r.spans, span{ID: id, Parent: parent, Op: op, Name: name, Start: time.Now()})
	r.open = append(r.open, id)
	return id
}

func (r *recorder) end(id int) time.Duration {
	r.spans[id].End = time.Now()
	r.open = r.open[:len(r.open)-1]
	return r.spans[id].dur()
}

// timed runs fn inside a span and returns its duration.
func (r *recorder) timed(name string, fn func()) time.Duration {
	id := r.begin(name)
	fn()
	return r.end(id)
}

// selfTimes sums each span name's self time (duration minus the time
// its children cover) over the spans of roots named root, and returns
// them with the roots' total duration and count. Children nest and do
// not overlap, so the self times add up to the roots' total exactly.
func (r *recorder) selfTimes(root string) (map[string]time.Duration, time.Duration, int) {
	child := make([]time.Duration, len(r.spans))
	for _, s := range r.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.dur()
		}
	}
	self := map[string]time.Duration{}
	var total time.Duration
	roots := 0
	for _, s := range r.spans {
		if r.spans[s.Op].Name != root {
			continue
		}
		if s.Parent < 0 {
			total += s.dur()
			roots++
		}
		self[s.Name] += s.dur() - child[s.ID]
	}
	return self, total, roots
}

// printLayers prints the per-operation layer table of one workload:
// every layer's mean self time, the unattributed rest (the root's own
// self time), and their sum, which equals the in-process end-to-end
// time per operation.
func (r *recorder) printLayers(workload, root string, unit time.Duration, unitName string) time.Duration {
	self, total, n := r.selfTimes(root)
	fmt.Printf("\nlayers %s (%d operations, mean %s per operation)\n", workload, n, unitName)
	per := func(d time.Duration) float64 { return float64(d) / float64(n) / float64(unit) }
	var sum float64
	for _, name := range sortedKeys(self) {
		if name == root {
			continue
		}
		fmt.Printf("  %-24s %12.3f\n", name, per(self[name]))
		sum += per(self[name])
	}
	fmt.Printf("  %-24s %12.3f\n", "unattributed", per(self[root]))
	fmt.Printf("  %-24s %12.3f  (layers + unattributed = %.3f)\n", "in-process end-to-end", per(total), sum+per(self[root]))
	return self[root] / time.Duration(max(n, 1))
}

func (r *recorder) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for _, s := range r.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	return f.Close()
}

// ---- traced run ----

// traced drives the query and register workloads, and stream when it is
// the named one, against the daemon once each (one set-up, no restart,
// every check but the Explain witnesses), then replays the same generated
// inputs in this process through each layer's public functions with a
// span around every call, and prints every per-layer metric. The Go
// runtime rows come from the daemon during the named workload's timed
// phase.
func (b *bench) traced(workload string, seed int64) (*result, error) {
	if _, err := b.newWorkload(workload, seed); err != nil {
		return nil, err
	}
	b.traceMode = true
	defer func() { b.traceMode = false }()
	runs := map[string]*driven{}
	res := &result{Correct: true, Metrics: map[string]metric{}}
	for _, name := range []string{"query", "register", "stream"} {
		w, err := b.newWorkload(name, seed)
		if err != nil {
			return nil, err
		}
		// The stream layers are all replayed in process; its daemon run
		// serves only the runtime rows, when stream is the named workload.
		if name == "stream" && workload != "stream" {
			runs[name] = &driven{workload: w}
			continue
		}
		d, err := b.drive(w, 1, 0)
		if err != nil {
			return nil, err
		}
		runs[name] = d
		res.Attempted += d.attempted
		res.Failed += d.failed
	}
	rec := &recorder{}
	put := func(name, unit string, v float64) { res.Metrics[name] = metric{v, unit} }

	if err := b.replayQueries(rec, runs["query"], put); err != nil {
		return nil, err
	}
	if err := b.replayRegistrations(rec, runs["register"], put); err != nil {
		return nil, err
	}
	if err := b.replayStreams(rec, runs["stream"].workload.(*streamWorkload), put); err != nil {
		return nil, err
	}

	d := runs[workload]
	kops := float64(d.units) / 1000
	put("runtime.gc_cycles_per_kop", "count", (d.rtAfter.GCCycles-d.rtBefore.GCCycles)/kops)
	put("runtime.gc_pause_ms", "ms", (d.rtAfter.GCPauseSec-d.rtBefore.GCPauseSec)*1000)
	put("runtime.heap_mb", "MB", d.rtAfter.HeapBytes/(1<<20))

	dir := mustMkdir(filepath.Join(filepath.Dir(filepath.Dir(b.work)), "traces"))
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.jsonl", workload, seed))
	if err := rec.write(path); err != nil {
		return nil, err
	}
	fmt.Printf("\n%d spans written to %s\n", len(rec.spans), path)
	return res, nil
}

// mismatch reports a replayed answer that differs from the daemon's.
func mismatch(format string, args ...any) error {
	return &checkError{err: fmt.Errorf("traced replay: "+format, args...), attempted: 1}
}

// contractArtifacts are the registration artifacts the replay builds
// with the layers' public functions.
type contractArtifacts struct {
	name    string
	auto    *buchi.BA
	ps      *bisim.ProjectionSet
	full    *permission.Checker
	checker map[*buchi.BA]*permission.Checker
}

// pick returns the checker of the smallest projection equivalent to
// the contract for a query over events, building it on first use as
// the daemon does.
func (c *contractArtifacts) pick(qa *buchi.BA) (*permission.Checker, *buchi.BA) {
	p := c.ps.For(qa.Events)
	if p == c.auto {
		return c.full, p
	}
	ch, ok := c.checker[p]
	if !ok {
		ch = permission.NewChecker(p)
		c.checker[p] = ch
	}
	return ch, p
}

// effectiveBudget mirrors the daemon's size-adaptive projection budget.
func effectiveBudget(a *buchi.BA) int {
	switch edges := a.NumEdges(); {
	case edges > 100_000:
		return 1
	case edges > 20_000:
		return 3
	}
	return projectionBudget
}

// shardIndex is one shard of the replayed database: its contracts in
// registration order and its prefilter index over their ids.
type shardIndex struct {
	contracts []*contractArtifacts
	ix        *prefilter.Index
}

// queryCounts accumulates the per-candidate work counters of a pass.
type queryCounts struct {
	candidates, permitted, steps int
	fullStates, projStates       int
	shardSkew                    []float64
}

// evalQuery runs one query through the replayed layers under spans and
// returns the sorted matches.
func evalQuery(rec *recorder, shards []*shardIndex, qa *buchi.BA, algo permission.Algorithm, qc *queryCounts) ([]string, error) {
	var matches []string
	var scans []time.Duration
	for _, sh := range shards {
		scan := rec.begin("shard.scan")
		var cand []int
		rec.timed("prefilter.candidates", func() {
			set := sh.ix.Candidates(qa)
			set.ForEach(func(id int) bool {
				cand = append(cand, id)
				return true
			})
		})
		for _, id := range cand {
			c := sh.contracts[id]
			var ch *permission.Checker
			var proj *buchi.BA
			rec.timed("bisim.pick", func() { ch, proj = c.pick(qa) })
			var ok bool
			var st permission.Stats
			var err error
			rec.timed("permission.check", func() { ok, st, err = ch.PermitsCtx(context.Background(), qa, algo, 0) })
			if err != nil {
				return nil, err
			}
			if qc != nil {
				qc.candidates++
				qc.steps += st.Steps
				qc.fullStates += c.auto.NumStates()
				qc.projStates += proj.NumStates()
				if ok {
					qc.permitted++
				}
			}
			if ok {
				matches = append(matches, c.name)
			}
		}
		scans = append(scans, rec.end(scan))
	}
	if qc != nil && len(scans) > 0 {
		var sum, worst time.Duration
		for _, s := range scans {
			sum += s
			worst = max(worst, s)
		}
		if sum > 0 {
			qc.shardSkew = append(qc.shardSkew, float64(worst)*float64(len(scans))/float64(sum))
		}
	}
	slices.Sort(matches)
	return matches, nil
}

// buildShards registers the corpus in this process through the layers'
// public functions, placed on the daemon's two shards.
func (b *bench) buildShards(corpus []contractInput) ([]*shardIndex, error) {
	router, err := shard.New(b.voc, core.Options{}, 2)
	if err != nil {
		return nil, err
	}
	shards := []*shardIndex{{ix: prefilter.New(prefilter.DefaultK)}, {ix: prefilter.New(prefilter.DefaultK)}}
	for _, ct := range corpus {
		a, err := ltl2ba.Translate(b.voc, ct.Spec)
		if err != nil {
			return nil, err
		}
		sh := shards[router.ShardFor(ct.Name)]
		c := &contractArtifacts{name: ct.Name, auto: a, ps: bisim.Precompute(a, effectiveBudget(a)),
			full: permission.NewChecker(a), checker: map[*buchi.BA]*permission.Checker{}}
		sh.ix.Insert(len(sh.contracts), a)
		sh.contracts = append(sh.contracts, c)
	}
	return shards, nil
}

// replayQueries replays the query workload: the main pool on the read
// path decode → parse → translate → per-shard prefilter, projection
// pick and kernel check → encode, and the probe pool on the cached path
// decode → parse → canonicalize → cache hit → encode.
func (b *bench) replayQueries(rec *recorder, run *driven, put func(string, string, float64)) error {
	w := run.workload.(*queryWorkload)
	shards, err := b.buildShards(w.corpus)
	if err != nil {
		return err
	}
	bodies := make([][]byte, len(w.pool))
	for i, q := range w.pool {
		bodies[i], _ = json.Marshal(queryRequest{Spec: q.Src, NoCache: true})
	}
	one := func(body []byte, qc *queryCounts) ([]string, error) {
		root := rec.begin("query")
		defer rec.end(root)
		var req queryRequest
		var spec *ltl.Expr
		var qa *buchi.BA
		var err error
		rec.timed("server.decode", func() { err = json.Unmarshal(body, &req) })
		if err != nil {
			return nil, err
		}
		rec.timed("ltl.parse", func() { spec, err = ltl.Parse(req.Spec) })
		if err != nil {
			return nil, err
		}
		rec.timed("ltl2ba.translate", func() { qa, err = ltl2ba.Translate(b.voc, spec) })
		if err != nil {
			return nil, err
		}
		matches, err := evalQuery(rec, shards, qa, permission.SCC, qc)
		if err != nil {
			return nil, err
		}
		rec.timed("server.encode", func() { _, err = json.Marshal(queryResponse{Matches: matches}) })
		return matches, err
	}
	// Warm pass: compiles the projection quotients lazily, as the
	// daemon's warm-up does; its spans are dropped.
	for _, body := range bodies {
		if _, err := one(body, nil); err != nil {
			return err
		}
	}
	rec.spans, rec.open = rec.spans[:0], rec.open[:0]
	var qc queryCounts
	rootDur := make([]time.Duration, len(w.pool))
	for i, body := range bodies {
		root := len(rec.spans)
		matches, err := one(body, &qc)
		if err != nil {
			return err
		}
		if !slices.Equal(matches, w.scan[i]) {
			return mismatch("replayed query %d answers %v, the daemon's scan answer is %v", i, matches, w.scan[i])
		}
		rootDur[i] = rec.spans[root].dur()
	}
	n := float64(len(w.pool))
	self, _, _ := rec.selfTimes("query")
	perQuery := func(name string) float64 { return durUS(self[name]) / n }
	perCand := func(name string) float64 { return durUS(self[name]) / float64(max(qc.candidates, 1)) }

	// Client latency minus in-process evaluation of the same query.
	var overhead []float64
	for i := range w.pool {
		var lat []float64
		for _, d := range w.latByQuery[i] {
			lat = append(lat, durUS(d))
		}
		overhead = append(overhead, mean(lat)-durUS(rootDur[i]))
	}
	put("server.query_overhead_us", "us", mean(overhead))
	put("ltl.parse_us", "us", perQuery("ltl.parse"))
	put("ltl2ba.query_translate_us", "us", perQuery("ltl2ba.translate"))
	put("prefilter.candidates_us", "us", perQuery("prefilter.candidates"))
	put("prefilter.candidates", "count", float64(qc.candidates)/n)
	put("prefilter.precision", "ratio", float64(qc.permitted)/float64(max(qc.candidates, 1)))
	fmt.Printf("prefilter.precision base: %d permitted of %d candidates over %d queries x %d contracts\n",
		qc.permitted, qc.candidates, len(w.pool), len(w.corpus))
	put("bisim.pick_us", "us", perCand("bisim.pick"))
	put("bisim.state_ratio", "ratio", float64(qc.projStates)/float64(max(qc.fullStates, 1)))
	put("permission.check_us", "us", perCand("permission.check"))
	put("permission.steps", "count", float64(qc.steps)/float64(max(qc.candidates, 1)))
	var scanTotal time.Duration
	scans := 0
	for _, s := range rec.spans {
		if s.Name == "shard.scan" {
			scanTotal += s.dur()
			scans++
		}
	}
	put("shard.scan_us", "us", durUS(scanTotal)/float64(max(scans, 1)))
	put("shard.skew", "ratio", mean(qc.shardSkew))
	put("query.unattributed_us", "us", durUS(rec.printLayers("query", "query", time.Microsecond, "us")))

	if err := b.replayProbes(rec, w, put); err != nil {
		return err
	}
	return b.fig5(shards, w, put)
}

// replayProbes times the probe path: cache-enabled queries the result
// cache answers.
func (b *bench) replayProbes(rec *recorder, w *queryWorkload, put func(string, string, float64)) error {
	cache := qcache.NewResultCache(core.DefaultResultCacheSize, qcache.Metrics{})
	keys := make([]string, len(w.probes))
	for i, q := range w.probes {
		keys[i] = ltl.CanonicalKey(q.Spec)
		cache.Put(keys[i], 1, w.probeScan[i])
	}
	const rounds = 200
	var canon, hit time.Duration
	for r := 0; r < rounds; r++ {
		for i, q := range w.probes {
			body, _ := json.Marshal(queryRequest{Spec: q.Src})
			root := rec.begin("probe")
			var req queryRequest
			var spec *ltl.Expr
			var err error
			rec.timed("server.decode", func() { err = json.Unmarshal(body, &req) })
			if err == nil {
				rec.timed("ltl.parse", func() { spec, err = ltl.Parse(req.Spec) })
			}
			if err != nil {
				rec.end(root)
				return err
			}
			var key string
			canon += rec.timed("ltl.canonicalize", func() { key = ltl.CanonicalKey(spec) })
			var v any
			var ok bool
			hit += rec.timed("qcache.hit", func() { v, ok = cache.Get(key, 1) })
			if !ok || key != keys[i] {
				rec.end(root)
				return mismatch("probe query %d missed the result cache", i)
			}
			rec.timed("server.encode", func() { _, err = json.Marshal(queryResponse{Matches: v.([]string), Cached: true}) })
			rec.end(root)
		}
	}
	n := float64(rounds * len(w.probes))
	put("ltl.canonicalize_us", "us", durUS(canon)/n)
	put("qcache.hit_us", "us", durUS(hit)/n)
	rec.printLayers("query-probe", "probe", time.Microsecond, "us")
	return nil
}

// fig5 compares the full scan (no prefilter, no projections) with the
// optimized evaluation on the same queries, and times the pool under
// the paper's Algorithm 2 kernel as a reference figure.
func (b *bench) fig5(shards []*shardIndex, w *queryWorkload, put func(string, string, float64)) error {
	scratch := &recorder{}
	var opt, scan time.Duration
	scc := make([]time.Duration, len(w.pool))
	nested := make([]time.Duration, len(w.pool))
	for i, q := range w.pool {
		qa, err := ltl2ba.Translate(b.voc, q.Spec)
		if err != nil {
			return err
		}
		t := time.Now()
		if _, err := evalQuery(scratch, shards, qa, permission.SCC, nil); err != nil {
			return err
		}
		scc[i] = time.Since(t)
		opt += scc[i]
		t = time.Now()
		var matches []string
		for _, sh := range shards {
			for _, c := range sh.contracts {
				ok, _, err := c.full.PermitsCtx(context.Background(), qa, permission.SCC, 0)
				if err != nil {
					return err
				}
				if ok {
					matches = append(matches, c.name)
				}
			}
		}
		scan += time.Since(t)
		slices.Sort(matches)
		if !slices.Equal(matches, w.scan[i]) {
			return mismatch("in-process scan of query %d answers %v, the daemon's %v", i, matches, w.scan[i])
		}
		t = time.Now()
		got, err := evalQuery(scratch, shards, qa, permission.NestedDFS, nil)
		if err != nil {
			return err
		}
		nested[i] = time.Since(t)
		if !slices.Equal(got, w.scan[i]) {
			return mismatch("NestedDFS answers query %d with %v, the scan with %v", i, got, w.scan[i])
		}
		scratch.spans = scratch.spans[:0]
	}
	put("paper.fig5_speedup", "ratio", float64(scan)/float64(opt))
	fmt.Printf("paper.fig5_speedup base: scan %.1fms / opt %.1fms over %d queries x %d contracts (SCC kernel)\n",
		durMS(scan), durMS(opt), len(w.pool), len(w.corpus))
	slowest := func(ds []time.Duration) (int, time.Duration) {
		worst, total := 0, time.Duration(0)
		for i, d := range ds {
			total += d
			if d > ds[worst] {
				worst = i
			}
		}
		return worst, total
	}
	ni, ntotal := slowest(nested)
	si, _ := slowest(scc)
	fmt.Printf("reference: pool under AlgorithmNestedDFS %.1fms in total, slowest %.1fms (%s query %d); under SCC %.1fms in total, slowest %.1fms (%s query %d)\n",
		durMS(ntotal), durMS(nested[ni]), w.pool[ni].Class, ni, durMS(opt), durMS(scc[si]), w.pool[si].Class, si)
	return nil
}

// replayRegistrations replays the register workload's list through
// decode → translate (with reduction) → prefilter insert → projection
// lattice → WAL record encode → WAL append → encode. The WAL payloads
// are the daemon's own registration records, read from a store opened
// on the run's data directory, appended under the daemon's fsync
// policy.
func (b *bench) replayRegistrations(rec *recorder, run *driven, put func(string, string, float64)) error {
	w := run.workload.(*registerWorkload)
	records, snapBytes, openMS, err := b.inspectStore(run.dataDir)
	if err != nil {
		return err
	}
	walDir := filepath.Join(b.work, "replay-wal")
	log, err := wal.Open(walDir, wal.Options{Sync: wal.SyncAlways})
	if err != nil {
		return err
	}
	defer log.Close()
	router, err := shard.New(b.voc, core.Options{}, 2)
	if err != nil {
		return err
	}
	ixs := []*prefilter.Index{prefilter.New(prefilter.DefaultK), prefilter.New(prefilter.DefaultK)}
	var states, subsets, distinct int
	rootDur := make([]time.Duration, len(w.list))
	for i, ct := range w.list {
		data, ok := records[ct.Name]
		if !ok {
			return fmt.Errorf("no registration record for %s in the data directory", ct.Name)
		}
		// The daemon encodes the record under its write lock before the
		// append; a database holding just this contract re-encodes it.
		one := core.NewDB(b.voc, core.Options{})
		if err := one.ApplyRegistration(data); err != nil {
			return err
		}
		body, _ := json.Marshal(registerRequest{Name: ct.Name, Spec: ct.Src})
		root := rec.begin("register")
		var req registerRequest
		var spec *ltl.Expr
		rec.timed("server.decode", func() {
			if err = json.Unmarshal(body, &req); err == nil {
				spec, err = ltl.Parse(req.Spec)
			}
		})
		var a *buchi.BA
		if err == nil {
			rec.timed("ltl2ba.translate", func() { a, err = ltl2ba.Translate(b.voc, spec) })
		}
		if err != nil {
			rec.end(root)
			return err
		}
		ix := ixs[router.ShardFor(ct.Name)]
		rec.timed("prefilter.insert", func() { ix.Insert(ix.Len(), a) })
		var ps *bisim.ProjectionSet
		rec.timed("bisim.precompute", func() { ps = bisim.Precompute(a, effectiveBudget(a)) })
		rec.timed("wal.encode", func() { _, err = one.ExportRegistrations() })
		if err == nil {
			rec.timed("wal.append", func() { _, err = log.Append(1, data) })
		}
		if err == nil {
			rec.timed("server.encode", func() { _, err = json.Marshal(contractInfo{Name: ct.Name}) })
		}
		rootDur[i] = rec.end(root)
		if err != nil {
			return err
		}
		states += a.NumStates()
		subsets += ps.PrecomputedSubsets
		distinct += ps.DistinctPartitions
	}
	n := float64(len(w.list))
	self, _, _ := rec.selfTimes("register")
	perOp := func(name string) float64 { return durMS(self[name]) / n }
	put("ltl2ba.translate_ms", "ms", perOp("ltl2ba.translate"))
	put("ltl2ba.states", "count", float64(states)/n)
	put("bisim.precompute_ms", "ms", perOp("bisim.precompute"))
	put("bisim.subsets", "count", float64(subsets)/n)
	put("bisim.distinct_share", "ratio", float64(distinct)/float64(max(subsets, 1)))
	put("prefilter.insert_us", "us", perOp("prefilter.insert")*1000)
	put("wal.encode_ms", "ms", perOp("wal.encode"))
	put("wal.append_us", "us", perOp("wal.append")*1000)
	var overhead []float64
	for i, d := range w.latByContract {
		overhead = append(overhead, durMS(d)-durMS(rootDur[i]))
	}
	put("server.register_overhead_ms", "ms", mean(overhead))
	put("qcache.probe_hit_share", "ratio", w.probeHitShare())
	contracts := len(w.list) + len(w.warm)
	put("snapfmt.kb_per_contract", "KB", float64(snapBytes)/1024/float64(contracts))
	put("store.open_ms", "ms", openMS)
	put("register.unattributed_ms", "ms", durMS(rec.printLayers("register", "register", time.Millisecond, "ms")))
	put("paper.precompute_insert_ratio", "ratio", float64(self["bisim.precompute"])/float64(max(self["prefilter.insert"], 1)))
	fmt.Printf("bisim.distinct_share base: %d distinct partitions of %d subsets over %d contracts\n", distinct, subsets, len(w.list))
	return nil
}

// inspectStore reads the registration records and the newest snapshot
// size of a stopped daemon's data directory, and times store.Open on
// copies of it (median of three).
func (b *bench) inspectStore(dataDir string) (map[string][]byte, int64, float64, error) {
	var opens []float64
	records := map[string][]byte{}
	for i := 0; i < 3; i++ {
		cp := filepath.Join(b.work, fmt.Sprintf("store-copy-%d", i))
		if err := copyDir(dataDir, cp); err != nil {
			return nil, 0, 0, err
		}
		t := time.Now()
		st, err := store.Open(cp, store.Config{Shards: 2})
		if err != nil {
			return nil, 0, 0, err
		}
		opens = append(opens, durMS(time.Since(t)))
		if i == 0 {
			r := st.Router()
			for s := 0; s < r.NumShards(); s++ {
				exp, err := r.Shard(s).ExportRegistrations()
				if err != nil {
					st.Close()
					return nil, 0, 0, err
				}
				for _, e := range exp {
					records[e.Name] = e.Record
				}
			}
		}
		if err := st.Close(); err != nil {
			return nil, 0, 0, err
		}
		os.RemoveAll(cp)
	}
	snaps, err := filepath.Glob(filepath.Join(dataDir, "snapshot-*"))
	if err != nil || len(snaps) == 0 {
		return nil, 0, 0, fmt.Errorf("no snapshot in %s", dataDir)
	}
	sort.Strings(snaps)
	info, err := os.Stat(snaps[len(snaps)-1])
	if err != nil {
		return nil, 0, 0, err
	}
	return records, info.Size(), median(opens), nil
}

func copyDir(src, dst string) error {
	return filepath.WalkDir(src, func(path string, e os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(src, path)
		target := filepath.Join(dst, rel)
		if e.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(target, data, 0o644)
	})
}

// replayStreams replays the stream workload's pushes through decode →
// journaled append (WAL) and, on an in-memory broker, the frontier
// step, and times the journal's checkpoint and recovery.
func (b *bench) replayStreams(rec *recorder, w *streamWorkload, put func(string, string, float64)) error {
	src := core.NewDB(b.voc, core.Options{ProjectionBudget: -1})
	for _, ct := range w.contracts {
		if _, err := src.Register(ct.Name, ct.Spec); err != nil {
			return err
		}
	}
	dir := filepath.Join(b.work, "replay-streams")
	cfg := stream.Config{Shards: 1, Dir: dir, Sync: wal.SyncAlways, CheckpointRecords: -1}
	journaled, err := stream.New(src, cfg)
	if err != nil {
		return err
	}
	memory, err := stream.New(src, stream.Config{Shards: 1})
	if err != nil {
		journaled.Close()
		return err
	}
	ctx := context.Background()
	for _, s := range w.streams {
		if _, err := journaled.Create(ctx, s.Name, s.Contracts); err != nil {
			return err
		}
		if _, err := memory.Create(ctx, s.Name, s.Contracts); err != nil {
			return err
		}
	}
	journaled.WaitIdle()
	memory.WaitIdle()

	// Push order of the main client: round by round over the streams.
	type push struct {
		stream string
		batch  [][]string
	}
	var pushes []push
	for r := 0; ; r++ {
		more := false
		for _, s := range w.streams {
			if r < len(s.Batches) {
				pushes = append(pushes, push{s.Name, s.Batches[r]})
				more = true
			}
		}
		if !more {
			break
		}
	}
	events := 0
	for _, p := range pushes {
		events += len(p.batch)
	}

	// Journaled path, one root per pushed batch. The frontier steps run
	// on the broker's worker beside the pushes; the wait for the last of
	// them is the final root's "stream.apply_drain".
	for i, p := range pushes {
		body, _ := json.Marshal(streamEventsRequest{Events: p.batch})
		root := rec.begin("push")
		var req streamEventsRequest
		rec.timed("server.decode", func() { err = json.Unmarshal(body, &req) })
		if err == nil {
			rec.timed("stream.append", func() { _, err = journaled.AppendEvents(ctx, p.stream, req.Events) })
		}
		if i == len(pushes)-1 {
			rec.timed("stream.apply_drain", journaled.WaitIdle)
		}
		rec.end(root)
		if err != nil {
			return err
		}
	}
	nb := float64(len(pushes))
	self, _, _ := rec.selfTimes("push")
	put("server.events_decode_us", "us", durUS(self["server.decode"])/nb)
	put("stream.append_us", "us", durUS(self["stream.append"])/nb)

	// The journal's own append, on a WAL with the same fsync policy and
	// records of the same bytes the broker writes.
	jdir := filepath.Join(b.work, "replay-journal")
	jlog, err := wal.Open(jdir, wal.Options{Sync: wal.SyncAlways})
	if err != nil {
		return err
	}
	var jt time.Duration
	first := map[string]uint64{}
	for _, p := range pushes {
		rec := journalRecord(p.stream, first[p.stream], len(p.batch))
		first[p.stream] += uint64(len(p.batch))
		t := time.Now()
		if _, err := jlog.Append(3, rec); err != nil {
			jlog.Close()
			return err
		}
		jt += time.Since(t)
	}
	if err := jlog.Close(); err != nil {
		return err
	}
	put("stream.journal_append_us", "us", durUS(jt)/nb)

	// Frontier stepping: Append to applied on the in-memory broker.
	t := time.Now()
	for _, p := range pushes {
		if _, err := memory.AppendEvents(ctx, p.stream, p.batch); err != nil {
			return err
		}
	}
	memory.WaitIdle()
	put("stream.step_ns_per_event", "ns", float64(time.Since(t).Nanoseconds())/float64(events))
	transitions := 0
	for _, info := range memory.List() {
		transitions += info.Verdicts - len(info.Contracts)
	}
	put("stream.verdicts_per_kevent", "count", float64(transitions)*1000/float64(events))
	if err := memory.Close(); err != nil {
		return err
	}

	t = time.Now()
	if _, err := journaled.Checkpoint(); err != nil {
		return err
	}
	put("stream.checkpoint_ms", "ms", durMS(time.Since(t)))
	if err := journaled.Close(); err != nil {
		return err
	}
	t = time.Now()
	reopened, err := stream.New(src, cfg)
	if err != nil {
		return err
	}
	put("stream.recover_ms", "ms", durMS(time.Since(t)))
	if got := len(reopened.List()); got != len(w.streams) {
		reopened.Close()
		return mismatch("recovered %d of %d streams", got, len(w.streams))
	}
	if err := reopened.Close(); err != nil {
		return err
	}
	put("stream.unattributed_us", "us", durUS(rec.printLayers("stream", "push", time.Microsecond, "us")))
	return nil
}

// journalRecord encodes an events record as the stream journal does:
// the stream name, the batch's first index, the snapshot count and one
// little-endian word per snapshot. The words are zero: only the
// record's length matters to the WAL.
func journalRecord(name string, first uint64, snaps int) []byte {
	buf := binary.AppendUvarint(nil, uint64(len(name)))
	buf = append(buf, name...)
	buf = binary.AppendUvarint(buf, first)
	buf = binary.AppendUvarint(buf, uint64(snaps))
	return append(buf, make([]byte, 8*snaps)...)
}
