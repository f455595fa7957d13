package main

import (
	"errors"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// workload is one traffic mix. The harness owns the daemon's life
// cycle and the timing; a workload supplies the requests and the
// checks.
type workload interface {
	name() string
	// load brings a fresh daemon to the state the timed phase starts
	// from and runs the warm-up pass; it is timed as set-up.
	load(d *daemon, main, probe *http.Client) error
	// run is the main client's timed work. It reports each request's
	// latency to seg and closes a segment with the work units it
	// completed (queries answered, contracts registered, events
	// applied) whenever a round of its work is done.
	run(d *daemon, c *http.Client, seg *segments) error
	// probeHz is the probe rate; probe sends probe number i.
	probeHz() float64
	probe(d *daemon, c *http.Client, i int) error
	// verify checks the daemon's state after the timed phase, before
	// the closing checkpoint.
	verify(d *daemon, c *http.Client) error
	// ready reports whether a restarted daemon gave its first correct
	// answer.
	ready(d *daemon, c *http.Client) (bool, error)
	// verifyRestarted checks the daemon after the restarts; offline
	// checks the stopped daemon's data directory.
	verifyRestarted(d *daemon, c *http.Client) error
	offline(dataDir string) error
	// attempted counts the operations of the timed phase and the
	// checks, failed those that did not succeed.
	ops() (attempted, failed int)
}

// segment is one round of the main client's timed work.
type segment struct {
	dur      time.Duration
	units    int
	lat      []time.Duration
	cpuTicks int64
}

// segments splits the timed phase into rounds, so each run reports the
// median of its rounds and a burst of noise from outside the benchmark
// moves one round instead of the run.
type segments struct {
	d     *daemon
	start time.Time
	cpu   int64
	lat   []time.Duration
	done  []segment
}

func (s *segments) begin() error {
	var err error
	s.start = time.Now()
	s.cpu, err = s.d.cpuTicks()
	return err
}

func (s *segments) observe(lat time.Duration) { s.lat = append(s.lat, lat) }

// close ends the current segment with units of completed work.
func (s *segments) close(units int) error {
	now := time.Now()
	cpu, err := s.d.cpuTicks()
	if err != nil {
		return err
	}
	s.done = append(s.done, segment{dur: now.Sub(s.start), units: units, lat: s.lat, cpuTicks: cpu - s.cpu})
	s.start, s.cpu, s.lat = now, cpu, nil
	return nil
}

// driven is what one end-to-end run measured.
type driven struct {
	setups    []time.Duration
	timed     time.Duration
	segs      []segment
	units     int
	probeLat  []time.Duration
	probeLate time.Duration // how far behind schedule the probe ran at worst
	rssMB     float64
	diskBytes int64
	restarts  []time.Duration
	rtBefore  runtimeStats
	rtAfter   runtimeStats
	attempted int
	failed    int
	workload  workload
	dataDir   string
}

// drive runs w once: setups set-ups (the last one is kept), the timed
// phase with the probe beside it, the checks, the closing checkpoint,
// and restarts restarts.
func (b *bench) drive(w workload, setups, restarts int) (res *driven, err error) {
	res = &driven{workload: w}
	main, probe := newClient(), newClient()
	defer main.CloseIdleConnections()
	defer probe.CloseIdleConnections()

	var d *daemon
	defer func() {
		if d != nil && err != nil {
			d.kill()
		}
	}()
	for i := 0; i < setups; i++ {
		b.dirs++
		dataDir := filepath.Join(b.work, fmt.Sprintf("%s-%d", w.name(), b.dirs))
		d, err = startDaemon(b.bin, dataDir, dataDir+".log")
		if err != nil {
			return nil, err
		}
		if err = d.waitReady(main, 60*time.Second); err != nil {
			return nil, err
		}
		if err = w.load(d, main, probe); err != nil {
			return nil, fmt.Errorf("%s set-up: %w", w.name(), err)
		}
		res.setups = append(res.setups, time.Since(d.started))
		if i < setups-1 {
			d.kill()
			main.CloseIdleConnections()
			probe.CloseIdleConnections()
			os.RemoveAll(dataDir)
			os.Remove(dataDir + ".log")
		}
		res.dataDir = dataDir
	}

	if res.rtBefore, err = d.runtimeStats(main); err != nil {
		return nil, err
	}
	seg := &segments{d: d}
	if err = seg.begin(); err != nil {
		return nil, err
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	var probeErr error
	wg.Add(1)
	go func() {
		defer wg.Done()
		res.probeLat, res.probeLate, probeErr = runProbe(w, d, probe, stop)
	}()
	// The generator collects its garbage before the clock starts and
	// not while it runs, so its collector does not take a CPU from the
	// daemon mid-phase; the timed phase allocates some tens of MB.
	runtime.GC()
	gcPercent := debug.SetGCPercent(-1)
	start := time.Now()
	runErr := w.run(d, main, seg)
	res.timed = time.Since(start)
	debug.SetGCPercent(gcPercent)
	close(stop)
	wg.Wait()
	if runErr != nil {
		return nil, fmt.Errorf("%s timed phase: %w", w.name(), runErr)
	}
	if probeErr != nil {
		return nil, fmt.Errorf("%s probe: %w", w.name(), probeErr)
	}
	res.segs = seg.done
	for _, sg := range res.segs {
		res.units += sg.units
	}
	if res.units == 0 {
		return nil, fmt.Errorf("%s timed phase completed no work", w.name())
	}
	if res.rtAfter, err = d.runtimeStats(main); err != nil {
		return nil, err
	}

	checksStart := time.Now()
	if err = w.verify(d, main); err != nil {
		return nil, checkFailed(w, fmt.Errorf("%s check: %w", w.name(), err))
	}
	verified := time.Now()
	if err = call(main, "POST", d.url("/v1/checkpoint"), nil, http.StatusOK, nil); err != nil {
		return nil, err
	}
	if res.diskBytes, err = dirBytes(d.dataDir); err != nil {
		return nil, err
	}
	if res.rssMB, err = d.peakRSSMB(); err != nil {
		return nil, err
	}

	checkpointed := time.Now()
	var stops time.Duration
	for i := 0; i < restarts; i++ {
		t := time.Now()
		if err = d.stop(); err != nil {
			d = nil
			return nil, err
		}
		stops += time.Since(t)
		main.CloseIdleConnections()
		probe.CloseIdleConnections()
		d, err = startDaemon(b.bin, res.dataDir, res.dataDir+".log")
		if err != nil {
			return nil, err
		}
		var took time.Duration
		for {
			ok, rerr := w.ready(d, main)
			if rerr != nil && time.Since(d.started) > 60*time.Second {
				return nil, fmt.Errorf("%s restart: %w", w.name(), rerr)
			}
			if ok {
				took = time.Since(d.started)
				break
			}
			time.Sleep(200 * time.Microsecond)
		}
		res.restarts = append(res.restarts, took)
	}
	restarted := time.Now()
	if err = w.verifyRestarted(d, main); err != nil {
		return nil, checkFailed(w, fmt.Errorf("%s check after restart: %w", w.name(), err))
	}
	if err = d.stop(); err != nil {
		d = nil
		return nil, err
	}
	offlineStart := time.Now()
	if err = w.offline(res.dataDir); err != nil {
		return nil, checkFailed(w, fmt.Errorf("%s offline check: %w", w.name(), err))
	}
	res.attempted, res.failed = w.ops()
	logf("%s phases: generate %.1fs, set-ups %.1fs, timed %.1fs, checks %.1fs, checkpoint %.1fs, restarts %.1fs (stops %.1fs), checks after restart %.1fs, offline checks %.1fs",
		w.name(), b.generated.Seconds(), sumDur(res.setups).Seconds(), res.timed.Seconds(),
		verified.Sub(checksStart).Seconds(), checkpointed.Sub(verified).Seconds(), restarted.Sub(checkpointed).Seconds(), stops.Seconds(),
		offlineStart.Sub(restarted).Seconds(), time.Since(offlineStart).Seconds())
	return res, nil
}

// checkError is a check that found a wrong answer, as opposed to a run
// that could not be carried out.
type checkError struct {
	err               error
	attempted, failed int
}

func (e *checkError) Error() string { return e.err.Error() }
func (e *checkError) Unwrap() error { return e.err }

func checkFailed(w workload, err error) error {
	a, f := w.ops()
	return &checkError{err: err, attempted: a, failed: f}
}

// errProbesDone ends a probe schedule whose inputs are used up.
var errProbesDone = errors.New("probe inputs used up")

// runProbe sends probes at the workload's fixed rate until stop closes,
// timing each from when it was due, so a stall also charges the
// probes queued behind it.
func runProbe(w workload, d *daemon, c *http.Client, stop <-chan struct{}) ([]time.Duration, time.Duration, error) {
	period := time.Duration(float64(time.Second) / w.probeHz())
	start := time.Now()
	var lat []time.Duration
	var worst time.Duration
	for i := 0; ; i++ {
		due := start.Add(time.Duration(i) * period)
		if wait := time.Until(due); wait > 0 {
			t := time.NewTimer(wait)
			select {
			case <-stop:
				t.Stop()
				return lat, worst, nil
			case <-t.C:
			}
		} else {
			select {
			case <-stop:
				return lat, worst, nil
			default:
			}
		}
		worst = max(worst, time.Since(due))
		if err := w.probe(d, c, i); err == errProbesDone {
			return lat, worst, nil
		} else if err != nil {
			return nil, 0, err
		}
		lat = append(lat, time.Since(due))
	}
}

func formatList(xs []float64) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = strconv.FormatFloat(x, 'f', 1, 64)
	}
	return strings.Join(parts, " ")
}

func sumDur(ds []time.Duration) time.Duration {
	var t time.Duration
	for _, d := range ds {
		t += d
	}
	return t
}

func msList(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = durMS(d)
	}
	return out
}

// endToEndResult turns a run into the printed metrics. The timed
// metrics are medians over the run's segments; tail_ms is each
// segment's tail.
func (r *driven) endToEndResult() *result {
	var ops, p50, tails, cpu []float64
	var tailP float64
	n := 0
	for _, sg := range r.segs {
		lat := msList(sg.lat)
		ops = append(ops, float64(sg.units)/sg.dur.Seconds())
		p50 = append(p50, median(lat))
		var t float64
		t, tailP = tail(lat)
		tails = append(tails, t)
		cpu = append(cpu, float64(sg.cpuTicks)*1e6/clockTicks/float64(sg.units))
		n = len(lat)
	}
	probe := msList(r.probeLat)
	fmt.Printf("%s: %d units in %.3fs over %d segments (ops/s %s); main requests n=%d per segment, tail_ms is p%g; probes n=%d (p25/p50/p75 %.2f/%.2f/%.2f ms), generator at most %.2fms late\n",
		r.workload.name(), r.units, r.timed.Seconds(), len(r.segs), formatList(ops), n, tailP,
		len(probe), quantile(probe, 0.25), quantile(probe, 0.5), quantile(probe, 0.75), durMS(r.probeLate))
	setups := make([]float64, len(r.setups))
	for i, s := range r.setups {
		setups[i] = s.Seconds()
	}
	m := map[string]metric{
		"setup_s":       {median(setups), "s"},
		"ops_per_s":     {median(ops), "1/s"},
		"p50_ms":        {median(p50), "ms"},
		"tail_ms":       {median(tails), "ms"},
		"probe_p50_ms":  {median(probe), "ms"},
		"cpu_us_per_op": {median(cpu), "us"},
		"rss_mb":        {r.rssMB, "MB"},
		"disk_mb":       {float64(r.diskBytes) / (1 << 20), "MB"},
		"restart_ms":    {median(msList(r.restarts)), "ms"},
	}
	return &result{Correct: true, Attempted: r.attempted, Failed: r.failed, Metrics: m}
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
