package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"sort"
	"time"

	"contractdb/internal/buchi"
	"contractdb/internal/ltl"
	"contractdb/internal/ltl2ba"
	"contractdb/internal/monitor"
	"contractdb/internal/vocab"
)

type streamCreateRequest struct {
	Name      string   `json:"name"`
	Contracts []string `json:"contracts"`
}

type streamEventsRequest struct {
	Events [][]string `json:"events"`
}

type streamInfo struct {
	Name   string `json:"name"`
	Events uint64 `json:"events"`
}

type verdict struct {
	Seq        int    `json:"seq"`
	Contract   string `json:"contract"`
	EventIndex uint64 `json:"event_index"`
	From       string `json:"from,omitempty"`
	To         string `json:"to"`
}

type verdictsResponse struct {
	Verdicts []verdict `json:"verdicts"`
}

// streamWorkload: set-up registers a few dozen contracts and creates
// thousands of streams; the main client pushes fixed-size batches
// round-robin up to a fixed event count; the probe pushes a deciding
// event to a fresh probe stream and long-polls for its verdict.
type streamWorkload struct {
	b          *bench
	contracts  []contractInput
	streams    []streamInput
	warmRounds int // batch rounds pushed before the clock starts

	probeContract contractInput
	probeEvent    string
	probeStreams  int

	opCount
	probesUsed int
	verdicts   map[string][]byte // stream name → verdicts body after the timed phase
}

func newStreamWorkload(b *bench, seed int64) *streamWorkload {
	sz := b.sz
	contracts := drawContracts(b.voc, 7, seedFor(seed, 7), sz.StreamContracts, "k")
	// Whole rounds: every stream gets the same number of batches.
	rounds := max(1, int(math.Round(float64(sz.EventsPerSec*b.seconds)/float64(sz.Streams*sz.BatchEvents))))
	w := &streamWorkload{
		b:          b,
		contracts:  contracts,
		warmRounds: 1,
		// Each probe needs its own stream: verdicts are monotone, so an
		// attachment decides once. Twice the nominal count leaves room
		// for a timed phase that runs long.
		probeStreams: int(2 * sz.StreamProbeHz * float64(b.seconds)),
	}
	w.streams = drawStreams(b.voc, seedFor(seed, 8), contracts, sz.Streams, (rounds+w.warmRounds)*sz.Streams, sz.BatchEvents)
	rng := rand.New(rand.NewSource(seedFor(seed, 9)))
	w.probeEvent = b.voc.Names()[rng.Intn(b.voc.Len())]
	spec := ltl.Globally(ltl.Not(ltl.Atom(w.probeEvent)))
	w.probeContract = contractInput{Name: "probe", Spec: spec, Src: spec.String()}
	return w
}

func (w *streamWorkload) name() string     { return "stream" }
func (w *streamWorkload) probeHz() float64 { return w.b.sz.StreamProbeHz }

func (w *streamWorkload) load(d *daemon, main, probe *http.Client) error {
	if err := bulkRegister(main, d, append(w.contracts, w.probeContract)); err != nil {
		return err
	}
	for _, s := range w.streams {
		if err := call(main, "POST", d.url("/v1/streams"), streamCreateRequest{Name: s.Name, Contracts: s.Contracts}, http.StatusCreated, nil); err != nil {
			return err
		}
	}
	for i := 0; i < w.probeStreams; i++ {
		if err := call(probe, "POST", d.url("/v1/streams"), streamCreateRequest{Name: probeStreamName(i), Contracts: []string{w.probeContract.Name}}, http.StatusCreated, nil); err != nil {
			return err
		}
	}
	// Warm-up: the first batch of every stream, applied before the clock.
	for r := 0; r < w.warmRounds; r++ {
		for _, s := range w.streams {
			if err := w.push(main, d, s.Name, s.Batches[r]); err != nil {
				return err
			}
		}
	}
	return w.waitApplied(main, d, w.warmRounds-1, len(w.streams)-1)
}

func probeStreamName(i int) string { return fmt.Sprintf("probe%d", i) }

func (w *streamWorkload) push(c *http.Client, d *daemon, stream string, batch [][]string) error {
	return call(c, "POST", d.url("/v1/streams/"+stream+"/events"), streamEventsRequest{Events: batch}, http.StatusAccepted, nil)
}

// waitApplied waits until every event pushed so far is applied: the
// batches of rounds before round, and of round itself up to stream
// last. It polls stream last, then confirms every stream with one
// listing.
func (w *streamWorkload) waitApplied(c *http.Client, d *daemon, round, last int) error {
	want := func(i int) uint64 {
		n := round
		if i <= last {
			n++
		}
		return uint64(n * w.b.sz.BatchEvents)
	}
	deadline := time.Now().Add(120 * time.Second)
	for {
		var info streamInfo
		if err := call(c, "GET", d.url("/v1/streams/"+w.streams[last].Name), nil, http.StatusOK, &info); err != nil {
			return err
		}
		if info.Events >= want(last) {
			var infos []streamInfo
			if err := call(c, "GET", d.url("/v1/streams"), nil, http.StatusOK, &infos); err != nil {
				return err
			}
			applied := map[string]uint64{}
			for _, in := range infos {
				applied[in.Name] = in.Events
			}
			done := true
			for i, s := range w.streams {
				if applied[s.Name] < want(i) {
					done = false
					break
				}
			}
			if done {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("events not applied within 120s")
		}
		// A tighter poll would compete with the ingest worker it waits on.
		time.Sleep(2 * time.Millisecond)
	}
}

// streamSegment is the number of pushes in one segment of the timed
// phase: under a thousand, so each segment's tail is its p95 rather
// than a p99 set by the odd collection or checkpoint pause.
const streamSegment = 500

// run pushes one batch to every stream per round. Every streamSegment
// pushes close a segment once every event pushed so far is applied.
func (w *streamWorkload) run(d *daemon, c *http.Client, seg *segments) error {
	rounds := len(w.streams[0].Batches)
	events, pushes := 0, 0
	for r := w.warmRounds; r < rounds; r++ {
		for i, s := range w.streams {
			t := time.Now()
			err := w.push(c, d, s.Name, s.Batches[r])
			w.note(err)
			if err == nil {
				seg.observe(time.Since(t))
				events += len(s.Batches[r])
			}
			pushes++
			if pushes%streamSegment == 0 || i == len(w.streams)-1 {
				if err := w.waitApplied(c, d, r, i); err != nil {
					return err
				}
				if err := seg.close(events); err != nil {
					return err
				}
				events = 0
			}
		}
	}
	return nil
}

// probe pushes the probe contract's forbidden event to a fresh probe
// stream and long-polls for the violation verdict.
func (w *streamWorkload) probe(d *daemon, c *http.Client, i int) error {
	if i >= w.probeStreams {
		return errProbesDone
	}
	name := probeStreamName(i)
	err := w.push(c, d, name, [][]string{{w.probeEvent}})
	if err == nil {
		var resp verdictsResponse
		err = call(c, "GET", d.url("/v1/streams/"+name+"/verdicts?after=1&wait=30s"), nil, http.StatusOK, &resp)
		if err == nil && (len(resp.Verdicts) != 1 || resp.Verdicts[0].To != "violated") {
			err = fmt.Errorf("probe stream %s: verdicts %+v, want one violation", name, resp.Verdicts)
		}
	}
	w.note(err)
	w.probesUsed = i + 1
	return nil
}

// verify fetches every stream's verdicts and compares them with a
// replay of the stream's events through internal/monitor.
func (w *streamWorkload) verify(d *daemon, c *http.Client) error {
	w.verdicts = map[string][]byte{}
	autos := map[string]*buchi.BA{}
	for _, ct := range append(w.contracts, w.probeContract) {
		a, err := ltl2ba.Translate(w.b.voc, ct.Spec)
		if err != nil {
			return err
		}
		autos[ct.Name] = a
	}
	check := func(name string, contracts []string, batches [][][]string) error {
		body, err := getRaw(c, d.url("/v1/streams/"+name+"/verdicts"))
		w.note(err)
		if err != nil {
			return err
		}
		w.verdicts[name] = body
		var resp verdictsResponse
		if err := json.Unmarshal(body, &resp); err != nil {
			return err
		}
		want, err := w.replay(autos, contracts, batches)
		if err != nil {
			return err
		}
		return compareVerdicts(name, contracts, resp.Verdicts, want)
	}
	for _, s := range w.streams {
		if err := check(s.Name, s.Contracts, s.Batches); err != nil {
			return err
		}
	}
	for i := 0; i < w.probeStreams; i++ {
		var batches [][][]string
		if i < w.probesUsed {
			batches = [][][]string{{{w.probeEvent}}}
		}
		if err := check(probeStreamName(i), []string{w.probeContract.Name}, batches); err != nil {
			return err
		}
	}
	return nil
}

// replay computes a stream's expected verdicts with one monitor per
// attachment: each attachment's initial status at attach time, then
// every status change, ordered by event index and, within one event,
// by attachment order (the broker's order).
func (w *streamWorkload) replay(autos map[string]*buchi.BA, contracts []string, batches [][][]string) ([]verdict, error) {
	var snaps []vocab.Set
	for _, batch := range batches {
		for _, evs := range batch {
			snap, err := w.b.voc.SetOf(evs...)
			if err != nil {
				return nil, err
			}
			snaps = append(snaps, snap)
		}
	}
	var out, changes []verdict
	for _, name := range contracts {
		m := monitor.New(autos[name])
		st := m.Status()
		out = append(out, verdict{Contract: name, To: st.String()})
		for i, snap := range snaps {
			if st == monitor.Violated {
				break
			}
			if now := m.Step(snap); now != st {
				changes = append(changes, verdict{Contract: name, EventIndex: uint64(i + 1), From: st.String(), To: now.String()})
				st = now
			}
		}
	}
	// Changes were collected attachment by attachment; a stable sort by
	// event index keeps attachment order within one event.
	sort.SliceStable(changes, func(a, b int) bool { return changes[a].EventIndex < changes[b].EventIndex })
	out = append(out, changes...)
	for i := range out {
		out[i].Seq = i + 1
	}
	return out, nil
}

// compareVerdicts checks the daemon's verdicts against the replay and
// their structure: dense sequence numbers, at most three verdicts per
// attachment, monotone compliant → doomed → violated.
func compareVerdicts(stream string, contracts []string, got, want []verdict) error {
	rank := map[string]int{"compliant": 0, "doomed": 1, "violated": 2}
	per := map[string]int{}
	last := map[string]int{}
	for i, v := range got {
		if v.Seq != i+1 {
			return fmt.Errorf("stream %s: verdict %d has seq %d", stream, i+1, v.Seq)
		}
		per[v.Contract]++
		if per[v.Contract] > 3 {
			return fmt.Errorf("stream %s: more than 3 verdicts for %s", stream, v.Contract)
		}
		r, ok := rank[v.To]
		if !ok {
			return fmt.Errorf("stream %s: unknown status %q", stream, v.To)
		}
		if prev, seen := last[v.Contract]; seen && r <= prev {
			return fmt.Errorf("stream %s: %s went %s after rank %d", stream, v.Contract, v.To, prev)
		}
		last[v.Contract] = r
	}
	if len(per) != len(contracts) {
		return fmt.Errorf("stream %s: verdicts cover %d of %d attachments", stream, len(per), len(contracts))
	}
	if len(got) != len(want) {
		return fmt.Errorf("stream %s: %d verdicts, monitor replay gives %d (%+v vs %+v)", stream, len(got), len(want), got, want)
	}
	for i := range got {
		if got[i] != want[i] {
			return fmt.Errorf("stream %s: verdict %d is %+v, monitor replay gives %+v", stream, i+1, got[i], want[i])
		}
	}
	return nil
}

func (w *streamWorkload) ready(d *daemon, c *http.Client) (bool, error) {
	name := w.streams[0].Name
	body, err := getRaw(c, d.url("/v1/streams/"+name+"/verdicts"))
	if err != nil {
		return false, err
	}
	return bytes.Equal(body, w.verdicts[name]), nil
}

// verifyRestarted checks the verdicts are byte-identical after the
// restarts.
func (w *streamWorkload) verifyRestarted(d *daemon, c *http.Client) error {
	for name, before := range w.verdicts {
		body, err := getRaw(c, d.url("/v1/streams/"+name+"/verdicts"))
		w.note(err)
		if err != nil {
			return err
		}
		if !bytes.Equal(body, before) {
			return fmt.Errorf("stream %s: verdicts changed across restart:\n%s\n%s", name, before, body)
		}
	}
	return nil
}

func (w *streamWorkload) offline(string) error { return nil }
