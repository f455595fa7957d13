package main

import (
	"fmt"
	"math"
	"net/http"
	"slices"
	"sync"
	"time"

	"contractdb/internal/store"
	"contractdb/internal/vocab"
)

type queryRequest struct {
	Spec    string `json:"spec"`
	Mode    string `json:"mode,omitempty"`
	NoCache bool   `json:"no_cache,omitempty"`
}

type queryResponse struct {
	Matches []string `json:"matches"`
	Cached  bool     `json:"cached"`
}

type bulkContract struct {
	Name string `json:"name"`
	Spec string `json:"spec"`
}

type bulkRequest struct {
	Contracts []bulkContract `json:"contracts"`
}

type bulkResponse struct {
	Registered int `json:"registered"`
	Failed     int `json:"failed"`
}

func query(c *http.Client, d *daemon, req queryRequest) (queryResponse, error) {
	var resp queryResponse
	err := call(c, "POST", d.url("/v1/query"), req, http.StatusOK, &resp)
	slices.Sort(resp.Matches)
	return resp, err
}

func bulkRegister(c *http.Client, d *daemon, contracts []contractInput) error {
	req := bulkRequest{Contracts: make([]bulkContract, len(contracts))}
	for i, ct := range contracts {
		req.Contracts[i] = bulkContract{Name: ct.Name, Spec: ct.Src}
	}
	var resp bulkResponse
	if err := call(c, "POST", d.url("/v1/contracts/bulk"), req, http.StatusCreated, &resp); err != nil {
		return err
	}
	if resp.Registered != len(contracts) || resp.Failed != 0 {
		return fmt.Errorf("bulk registration: %d registered, %d failed of %d", resp.Registered, resp.Failed, len(contracts))
	}
	return nil
}

// answerBook records every answer a query received, to compare with
// the reference answer once the timed phase is over.
type answerBook struct {
	mu      sync.Mutex
	answers map[int][][]string
}

func (a *answerBook) add(i int, m []string) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.answers == nil {
		a.answers = map[int][][]string{}
	}
	for _, prev := range a.answers[i] {
		if slices.Equal(prev, m) {
			return
		}
	}
	a.answers[i] = append(a.answers[i], m)
}

// opCount counts attempted and failed operations across both clients.
type opCount struct {
	mu                sync.Mutex
	attempted, failed int
}

func (o *opCount) note(err error) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.attempted++
	if err != nil {
		o.failed++
		logf("operation failed: %v", err)
	}
}

func (o *opCount) ops() (int, int) {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.attempted, o.failed
}

// queryWorkload: a Fig 5 corpus loaded at set-up; the main client
// cycles a fixed pool of Fig 6 queries in find-all opt mode with
// no_cache; the probe repeats cache-enabled queries from a small pool.
type queryWorkload struct {
	b      *bench
	corpus []contractInput
	pool   []queryInput
	probes []queryInput
	rounds int

	opCount
	main, probed answerBook
	latByQuery   [][]time.Duration // main-client latency per pool query
	scan         [][]string        // reference answers of the pool
	probeScan    [][]string        // reference answers of the probe pool
}

func newQueryWorkload(b *bench, seed int64) *queryWorkload {
	w := &queryWorkload{
		b:      b,
		corpus: drawContracts(b.voc, 1, seedFor(seed, 1), b.sz.Corpus, "c"),
		pool:   drawQueries(b.voc, seedFor(seed, 2), b.sz.MainPool),
		probes: drawQueries(b.voc, seedFor(seed, 3), b.sz.ProbePool),
	}
	w.rounds = max(1, int(math.Round(float64(b.sz.QueriesPerSec*b.seconds)/float64(len(w.pool)))))
	return w
}

func (w *queryWorkload) name() string     { return "query" }
func (w *queryWorkload) probeHz() float64 { return w.b.sz.QueryProbeHz }

func (w *queryWorkload) load(d *daemon, main, probe *http.Client) error {
	if err := bulkRegister(main, d, w.corpus); err != nil {
		return err
	}
	// Warm-up: every pool query once compiles the projection quotients
	// it touches; every probe query once fills the result cache.
	for _, q := range w.pool {
		if _, err := query(main, d, queryRequest{Spec: q.Src, NoCache: true}); err != nil {
			return err
		}
	}
	for _, q := range w.probes {
		if _, err := query(probe, d, queryRequest{Spec: q.Src}); err != nil {
			return err
		}
	}
	return nil
}

// run cycles the pool; each pass over it is one segment.
func (w *queryWorkload) run(d *daemon, c *http.Client, seg *segments) error {
	w.latByQuery = make([][]time.Duration, len(w.pool))
	for r := 0; r < w.rounds; r++ {
		units := 0
		for i, q := range w.pool {
			t := time.Now()
			resp, err := query(c, d, queryRequest{Spec: q.Src, NoCache: true})
			took := time.Since(t)
			w.note(err)
			if err != nil {
				continue
			}
			seg.observe(took)
			w.latByQuery[i] = append(w.latByQuery[i], took)
			w.main.add(i, resp.Matches)
			units++
		}
		if err := seg.close(units); err != nil {
			return err
		}
	}
	return nil
}

func (w *queryWorkload) probe(d *daemon, c *http.Client, i int) error {
	qi := i % len(w.probes)
	resp, err := query(c, d, queryRequest{Spec: w.probes[qi].Src})
	w.note(err)
	if err == nil {
		w.probed.add(qi, resp.Matches)
	}
	return nil
}

// scanAnswers asks the daemon for the mode=scan answers (no prefilter,
// no projections): the indexes must preserve them.
func scanAnswers(c *http.Client, d *daemon, qs []queryInput, ops *opCount) ([][]string, error) {
	out := make([][]string, len(qs))
	for i, q := range qs {
		resp, err := query(c, d, queryRequest{Spec: q.Src, Mode: "scan", NoCache: true})
		ops.note(err)
		if err != nil {
			return nil, err
		}
		out[i] = resp.Matches
	}
	return out, nil
}

func compareAnswers(what string, qs []queryInput, book *answerBook, ref [][]string) error {
	for i, got := range book.answers {
		for _, m := range got {
			if !slices.Equal(m, ref[i]) {
				return fmt.Errorf("%s query %d (%s): answer %v differs from the scan answer %v", what, i, qs[i].Src, m, ref[i])
			}
		}
	}
	return nil
}

func (w *queryWorkload) verify(d *daemon, c *http.Client) error {
	var err error
	if w.scan, err = scanAnswers(c, d, w.pool, &w.opCount); err != nil {
		return err
	}
	if w.probeScan, err = scanAnswers(c, d, w.probes, &w.opCount); err != nil {
		return err
	}
	if len(w.main.answers) != len(w.pool) {
		return fmt.Errorf("%d of %d pool queries answered", len(w.main.answers), len(w.pool))
	}
	if err := compareAnswers("pool", w.pool, &w.main, w.scan); err != nil {
		return err
	}
	return compareAnswers("probe", w.probes, &w.probed, w.probeScan)
}

func (w *queryWorkload) ready(d *daemon, c *http.Client) (bool, error) {
	resp, err := query(c, d, queryRequest{Spec: w.probes[0].Src})
	if err != nil {
		return false, err
	}
	return slices.Equal(resp.Matches, w.probeScan[0]), nil
}

func (w *queryWorkload) verifyRestarted(d *daemon, c *http.Client) error {
	var after answerBook
	for i, q := range w.pool {
		resp, err := query(c, d, queryRequest{Spec: q.Src, NoCache: true})
		w.note(err)
		if err != nil {
			return err
		}
		after.add(i, resp.Matches)
	}
	return compareAnswers("restarted pool", w.pool, &after, w.scan)
}

// offline opens a store on the run's data directory and checks each
// returned contract's Explain witness under the independent lasso
// evaluator: the run satisfies both the contract and the query and
// sets only events the contract cites (Definition 1 (a)-(c)).
func (w *queryWorkload) offline(dataDir string) error {
	if w.b.traceMode {
		// The traced run checks its replayed answers against the scan
		// answers instead; the witnesses are every end-to-end run's.
		return nil
	}
	return explainMatches(w.b.voc, dataDir, w.corpus, w.pool, w.scan)
}

func explainMatches(voc *vocab.Vocabulary, dataDir string, corpus []contractInput, qs []queryInput, answers [][]string) error {
	st, err := store.Open(dataDir, store.Config{Shards: 2, NoMmap: true})
	if err != nil {
		return fmt.Errorf("open store: %w", err)
	}
	defer st.Close()
	router := st.Router()
	if router == nil {
		return fmt.Errorf("store on %s is not sharded", dataDir)
	}
	specs := make(map[string]contractInput, len(corpus))
	for _, c := range corpus {
		specs[c.Name] = c
	}
	check := func(qi int, name string) error {
		q := qs[qi]
		ct, ok := specs[name]
		if !ok {
			return fmt.Errorf("query %d matched unknown contract %q", qi, name)
		}
		cited, err := voc.SetOf(ct.Spec.Atoms()...)
		if err != nil {
			return err
		}
		wit, ok, err := router.Shard(router.ShardFor(name)).Explain(name, q.Spec)
		if err != nil {
			return err
		}
		if !ok {
			return fmt.Errorf("query %d: no witness for returned contract %s", qi, name)
		}
		if !wit.Run.Eval(voc, ct.Spec) {
			return fmt.Errorf("query %d: witness for %s violates the contract", qi, name)
		}
		if !wit.Run.Eval(voc, q.Spec) {
			return fmt.Errorf("query %d: witness for %s violates the query", qi, name)
		}
		for _, s := range append(slices.Clone(wit.Run.Prefix), wit.Run.Cycle...) {
			if !s.SubsetOf(cited) {
				return fmt.Errorf("query %d: witness for %s sets events %s outside the contract's %s", qi, name, s.Format(voc), cited.Format(voc))
			}
		}
		return nil
	}
	// Two workers: the daemon is stopped, so the checks have both CPUs.
	type job struct {
		qi   int
		name string
	}
	jobs := make(chan job)
	errs := make(chan error, 2)
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range jobs {
				if err := check(j.qi, j.name); err != nil {
					errs <- err
					for range jobs {
					}
					return
				}
			}
		}()
	}
	for qi := range qs {
		for _, name := range answers[qi] {
			jobs <- job{qi, name}
		}
	}
	close(jobs)
	wg.Wait()
	close(errs)
	return <-errs
}
