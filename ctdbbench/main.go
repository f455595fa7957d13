// Command ctdbbench is the end-to-end benchmark of ctdbd: it starts the
// daemon built from this tree as its own process, drives it over
// loopback HTTP with one closed-loop main client and one fixed-rate
// probe client, checks every answer against computations made apart
// from the timed path, and prints one JSON result line.
//
//	ctdbbench -workload query|register|stream -seed N -seconds S -trace 0|1
//	ctdbbench -steady 10 -seconds S      # steadiness table, every workload
//
// run.sh builds ctdbd and this command from source and runs it; see
// README.md for the workloads, their inputs and the metrics.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"time"

	"contractdb/internal/datagen"
	"contractdb/internal/vocab"
)

// sizes fixes a run's work. Rates are per second of -seconds: a run
// does the same seeded work whatever the machine, and on the reference
// box each timed phase lasts about -seconds.
type sizes struct {
	Setups   int // set-ups per run; setup_s is their median
	Restarts int // restarts per run; restart_ms is their median

	Corpus        int     // query: Fig 5 corpus size
	MainPool      int     // query: main-client pool (equal thirds)
	ProbePool     int     // query: probe pool
	RegProbePool  int     // register: probe pool
	QueriesPerSec int     // query: main-client queries per second of -seconds
	QueryProbeHz  float64 // query: probe rate

	RegisterPerSec int     // register: registrations per second of -seconds
	WarmContracts  int     // register: warm-up registrations before the clock
	RegProbeHz     float64 // register: probe rate

	StreamContracts int     // stream: contracts registered at set-up
	Streams         int     // stream: main-client streams
	BatchEvents     int     // stream: snapshots per pushed batch
	EventsPerSec    int     // stream: events pushed per second of -seconds
	StreamProbeHz   float64 // stream: probe rate (one probe stream each)
}

var fullSizes = sizes{
	Setups: 3, Restarts: 5,
	Corpus: 48, MainPool: 480, ProbePool: 3, QueriesPerSec: 384, QueryProbeHz: 50,
	RegisterPerSec: 12, WarmContracts: 2, RegProbePool: 3, RegProbeHz: 10,
	StreamContracts: 24, Streams: 2000, BatchEvents: 32, EventsPerSec: 51200, StreamProbeHz: 20,
}

// smokeSizes runs every workload and every check on tiny inputs in
// seconds; the package test uses them.
var smokeSizes = sizes{
	Setups: 2, Restarts: 2,
	Corpus: 10, MainPool: 6, ProbePool: 3, QueriesPerSec: 12, QueryProbeHz: 20,
	RegisterPerSec: 6, WarmContracts: 1, RegProbePool: 6, RegProbeHz: 10,
	StreamContracts: 4, Streams: 12, BatchEvents: 4, EventsPerSec: 200, StreamProbeHz: 10,
}

// metric is one printed figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// bench is the state shared by one invocation's runs.
type bench struct {
	bin     string // ctdbd binary
	work    string // scratch directory for data directories and logs
	seconds int
	sz      sizes
	voc     *vocab.Vocabulary

	generated time.Duration // input generation time of the last run
	dirs      int           // data directories made so far
	traceMode bool          // the traced run is under way
}

func main() {
	workload := flag.String("workload", "", "query | register | stream")
	seed := flag.Int64("seed", 1, "workload seed; every generated input derives from it")
	seconds := flag.Int("seconds", 10, "scales the fixed work of a run: rates in sizes are per second")
	traceFlag := flag.Int("trace", 0, "1 runs the traced per-layer run instead of the end-to-end run")
	size := flag.String("size", "full", "full | smoke")
	steady := flag.Int("steady", 0, "run every workload (or only -workload) this many times on seeds -seed.. and print the steadiness table")
	bin := flag.String("ctdbd", ".bench_build/ctdbd", "ctdbd binary built from this tree")
	work := flag.String("work", ".bench_build/work", "scratch directory for data directories and daemon logs")
	flag.Parse()

	sz := fullSizes
	switch *size {
	case "full":
	case "smoke":
		sz = smokeSizes
	default:
		fail("unknown -size %q", *size)
	}
	if *seconds < 1 {
		fail("-seconds must be at least 1")
	}
	if _, err := os.Stat(*bin); err != nil {
		fail("ctdbd binary: %v", err)
	}
	absBin, err := filepath.Abs(*bin)
	if err != nil {
		fail("%v", err)
	}
	b := &bench{bin: absBin, seconds: *seconds, sz: sz, voc: datagen.NewVocabulary()}
	b.work, err = os.MkdirTemp(mustMkdir(*work), "run-")
	if err != nil {
		fail("%v", err)
	}
	defer os.RemoveAll(b.work)

	if *steady > 0 {
		if err := b.steadiness(*steady, *seed, *workload); err != nil {
			os.RemoveAll(b.work)
			fail("%v", err)
		}
		return
	}
	var res *result
	if *traceFlag == 1 {
		res, err = b.traced(*workload, *seed)
	} else {
		res, err = b.endToEnd(*workload, *seed)
	}
	var ce *checkError
	if errors.As(err, &ce) {
		// A wrong answer still reports, with correct false.
		res = &result{Correct: false, Attempted: max(ce.attempted, 1), Failed: ce.failed, Metrics: map[string]metric{}}
	} else if err != nil {
		os.RemoveAll(b.work)
		fail("%v", err)
	}
	out, merr := json.Marshal(res)
	if merr != nil {
		os.RemoveAll(b.work)
		fail("%v", merr)
	}
	fmt.Println(string(out))
	if ce != nil {
		os.RemoveAll(b.work)
		fail("%v", ce)
	}
}

func mustMkdir(dir string) string {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fail("%v", err)
	}
	return dir
}

func fail(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "ctdbbench: "+format+"\n", args...)
	os.Exit(1)
}

// logf writes a diagnostic line to standard error; standard output
// carries the report lines and the final JSON object.
func logf(format string, args ...any) { fmt.Fprintf(os.Stderr, format+"\n", args...) }

// endToEnd runs one workload against the daemon and reports its
// end-to-end metrics.
func (b *bench) endToEnd(workload string, seed int64) (*result, error) {
	t := time.Now()
	w, err := b.newWorkload(workload, seed)
	if err != nil {
		return nil, err
	}
	b.generated = time.Since(t)
	r, err := b.drive(w, b.sz.Setups, b.sz.Restarts)
	if err != nil {
		return nil, err
	}
	os.RemoveAll(r.dataDir)
	return r.endToEndResult(), nil
}

func (b *bench) newWorkload(name string, seed int64) (workload, error) {
	switch name {
	case "query":
		return newQueryWorkload(b, seed), nil
	case "register":
		return newRegisterWorkload(b, seed), nil
	case "stream":
		return newStreamWorkload(b, seed), nil
	}
	return nil, fmt.Errorf("unknown -workload %q (want query, register or stream)", name)
}

// ---- statistics ----

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t / float64(len(xs))
}

// quantile is the nearest-rank quantile of xs at p in [0,1].
func quantile(xs []float64, p float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(p*float64(len(s)))) - 1
	return s[max(0, min(i, len(s)-1))]
}

// tailPercentiles are the percentiles tail_ms may report, highest
// first.
var tailPercentiles = []float64{99.9, 99, 95, 90, 75, 50}

// tail returns the highest percentile of tailPercentiles with at least
// ten samples beyond it, and that percentile. With fewer than forty
// samples it reports the median: a higher percentile would be no tail.
func tail(xs []float64) (float64, float64) {
	n := float64(len(xs))
	if n >= 40 {
		for _, p := range tailPercentiles {
			if n*(1-p/100) >= 10 {
				return quantile(xs, p/100), p
			}
		}
	}
	return median(xs), 50
}

func durMS(d time.Duration) float64 { return float64(d) / 1e6 }
func durUS(d time.Duration) float64 { return float64(d) / 1e3 }
