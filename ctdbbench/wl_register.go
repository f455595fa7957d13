package main

import (
	"fmt"
	"net/http"
	"slices"
	"sync"
	"time"
)

type registerRequest struct {
	Name string `json:"name"`
	Spec string `json:"spec"`
}

type contractInfo struct {
	Name string `json:"name"`
}

// registerWorkload: the database starts empty; the main client
// registers a fixed seeded list one POST /v1/contracts each; the probe
// sends cache-enabled queries whose cached results the registrations
// keep invalidating.
type registerWorkload struct {
	b      *bench
	warm   []contractInput
	list   []contractInput
	probes []queryInput

	opCount
	mu sync.Mutex
	// sentAt[i] and ackedAt[i] bracket list[i]'s registration.
	sentAt, ackedAt []time.Time
	latByContract   []time.Duration
	probeLog        []probeRecord
	scan            [][]string // final reference answers of the probe pool
}

type probeRecord struct {
	query      int
	sent, recv time.Time
	matches    []string
	cached     bool
}

func newRegisterWorkload(b *bench, seed int64) *registerWorkload {
	n := b.sz.RegisterPerSec * b.seconds
	return &registerWorkload{
		b:      b,
		warm:   drawContracts(b.voc, 5, seedFor(seed, 5), b.sz.WarmContracts, "w"),
		list:   drawContracts(b.voc, 4, seedFor(seed, 4), n, "r"),
		probes: drawQueries(b.voc, seedFor(seed, 6), b.sz.RegProbePool),
	}
}

func (w *registerWorkload) name() string     { return "register" }
func (w *registerWorkload) probeHz() float64 { return w.b.sz.RegProbeHz }

func register(c *http.Client, d *daemon, ct contractInput) error {
	return call(c, "POST", d.url("/v1/contracts"), registerRequest{Name: ct.Name, Spec: ct.Src}, http.StatusCreated, nil)
}

// load registers the warm-up contracts and runs every probe query once:
// the first registrations and queries of a process pay one-time costs
// the timed phase should not see.
func (w *registerWorkload) load(d *daemon, main, probe *http.Client) error {
	for _, ct := range w.warm {
		if err := register(main, d, ct); err != nil {
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

// run registers the list in one segment: the list's costs are
// heavy-tailed, so a part of it is no sample of the whole.
func (w *registerWorkload) run(d *daemon, c *http.Client, seg *segments) error {
	n := len(w.list)
	w.mu.Lock()
	w.sentAt, w.ackedAt = make([]time.Time, n), make([]time.Time, n)
	w.mu.Unlock()
	w.latByContract = make([]time.Duration, n)
	units := 0
	for i, ct := range w.list {
		t := time.Now()
		w.mu.Lock()
		w.sentAt[i] = t
		w.mu.Unlock()
		err := register(c, d, ct)
		took := time.Since(t)
		w.note(err)
		if err != nil {
			continue
		}
		w.mu.Lock()
		w.ackedAt[i] = time.Now()
		w.mu.Unlock()
		seg.observe(took)
		w.latByContract[i] = took
		units++
	}
	return seg.close(units)
}

func (w *registerWorkload) probe(d *daemon, c *http.Client, i int) error {
	qi := i % len(w.probes)
	sent := time.Now()
	resp, err := query(c, d, queryRequest{Spec: w.probes[qi].Src})
	w.note(err)
	if err == nil {
		w.mu.Lock()
		w.probeLog = append(w.probeLog, probeRecord{query: qi, sent: sent, recv: time.Now(), matches: resp.Matches, cached: resp.Cached})
		w.mu.Unlock()
	}
	return nil
}

// verify checks every probe answer against the final scan answer S of
// its query: a probe must see every contract of S acknowledged before
// it was sent, and no contract of S whose registration had not started
// when it returned.
func (w *registerWorkload) verify(d *daemon, c *http.Client) error {
	var err error
	if w.scan, err = scanAnswers(c, d, w.probes, &w.opCount); err != nil {
		return err
	}
	warm := map[string]bool{}
	for _, ct := range w.warm {
		warm[ct.Name] = true
	}
	index := map[string]int{}
	for i, ct := range w.list {
		index[ct.Name] = i
	}
	for _, p := range w.probeLog {
		got := map[string]bool{}
		for _, m := range p.matches {
			got[m] = true
		}
		for _, name := range w.scan[p.query] {
			i, timed := index[name]
			switch {
			case warm[name] || (timed && !w.ackedAt[i].IsZero() && w.ackedAt[i].Before(p.sent)):
				if !got[name] {
					return fmt.Errorf("probe of %q sent after %s was acknowledged misses it", w.probes[p.query].Src, name)
				}
			case timed && w.sentAt[i].After(p.recv):
				if got[name] {
					return fmt.Errorf("probe of %q returned %s before its registration was sent", w.probes[p.query].Src, name)
				}
			}
		}
		for m := range got {
			if !slices.Contains(w.scan[p.query], m) {
				return fmt.Errorf("probe of %q returned %s, which the scan answer %v does not hold", w.probes[p.query].Src, m, w.scan[p.query])
			}
		}
	}
	return w.probeAnswersMatch(d, c)
}

// probeAnswersMatch checks the cache-enabled answers of the probe
// queries against the scan answers.
func (w *registerWorkload) probeAnswersMatch(d *daemon, c *http.Client) error {
	for i, q := range w.probes {
		resp, err := query(c, d, queryRequest{Spec: q.Src})
		w.note(err)
		if err != nil {
			return err
		}
		if !slices.Equal(resp.Matches, w.scan[i]) {
			return fmt.Errorf("probe query %q answers %v, scan answers %v", q.Src, resp.Matches, w.scan[i])
		}
	}
	return nil
}

func (w *registerWorkload) ready(d *daemon, c *http.Client) (bool, error) {
	resp, err := query(c, d, queryRequest{Spec: w.probes[0].Src})
	if err != nil {
		return false, err
	}
	return slices.Equal(resp.Matches, w.scan[0]), nil
}

// verifyRestarted checks that every acknowledged contract survived the
// restarts and that the probe queries still return the scan answers.
func (w *registerWorkload) verifyRestarted(d *daemon, c *http.Client) error {
	var listed []contractInfo
	err := call(c, "GET", d.url("/v1/contracts"), nil, http.StatusOK, &listed)
	w.note(err)
	if err != nil {
		return err
	}
	have := map[string]bool{}
	for _, ci := range listed {
		have[ci.Name] = true
	}
	for _, ct := range append(slices.Clone(w.warm), w.list...) {
		if !have[ct.Name] {
			return fmt.Errorf("acknowledged contract %s missing after restart", ct.Name)
		}
	}
	return w.probeAnswersMatch(d, c)
}

func (w *registerWorkload) offline(string) error { return nil }

// probeHitShare is the share of timed-phase probes the result cache
// served.
func (w *registerWorkload) probeHitShare() float64 {
	hits := 0
	for _, p := range w.probeLog {
		if p.cached {
			hits++
		}
	}
	return float64(hits) / float64(max(1, len(w.probeLog)))
}
