package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// daemon is one ctdbd process serving a data directory on a loopback
// port. Every flag except -data-dir, -addr, -shards and -events keeps
// its default: fsync always, synchronous registration, tracing and the
// query log off.
type daemon struct {
	dataDir string
	addr    string
	cmd     *exec.Cmd
	logFile *os.File
	started time.Time
	exited  chan error
}

var daemonEvents = func() string {
	names := make([]string, 20)
	for i := range names {
		names[i] = fmt.Sprintf("p%d", i+1)
	}
	return strings.Join(names, ",")
}()

func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer l.Close()
	return l.Addr().String(), nil
}

// startDaemon execs ctdbd on dataDir and returns once the process runs;
// waitReady then polls until it answers.
func startDaemon(bin, dataDir, logPath string) (*daemon, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, fmt.Errorf("pick port: %w", err)
	}
	lf, err := os.OpenFile(logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, "-data-dir", dataDir, "-addr", addr, "-shards", "2", "-events", daemonEvents)
	cmd.Stdout, cmd.Stderr = lf, lf
	// The daemon dies with the benchmark, whatever ends it.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	d := &daemon{dataDir: dataDir, addr: addr, cmd: cmd, logFile: lf, exited: make(chan error, 1)}
	d.started = time.Now()
	if err := cmd.Start(); err != nil {
		lf.Close()
		return nil, fmt.Errorf("start ctdbd: %w", err)
	}
	go func() { d.exited <- cmd.Wait() }()
	return d, nil
}

func (d *daemon) url(path string) string { return "http://" + d.addr + path }

// waitReady polls /v1/health until the daemon answers, for at most
// timeout.
func (d *daemon) waitReady(c *http.Client, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		select {
		case err := <-d.exited:
			d.exited <- err
			return fmt.Errorf("ctdbd exited during start: %v (log %s)", err, d.logFile.Name())
		default:
		}
		resp, err := c.Get(d.url("/v1/health"))
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("ctdbd not ready after %s (log %s)", timeout, d.logFile.Name())
		}
		time.Sleep(500 * time.Microsecond)
	}
}

// stop sends SIGTERM (graceful: final checkpoint) and waits for exit.
func (d *daemon) stop() error {
	defer d.logFile.Close()
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil && !errors.Is(err, os.ErrProcessDone) {
		return err
	}
	select {
	case err := <-d.exited:
		if err != nil {
			return fmt.Errorf("ctdbd exit: %w (log %s)", err, d.logFile.Name())
		}
		return nil
	case <-time.After(60 * time.Second):
		d.cmd.Process.Kill()
		<-d.exited
		return fmt.Errorf("ctdbd did not stop within 60s")
	}
}

// kill ends the process without a graceful shutdown; used on error
// paths so no daemon outlives the benchmark.
func (d *daemon) kill() {
	select {
	case err := <-d.exited:
		d.exited <- err
		return
	default:
	}
	d.cmd.Process.Kill()
	err := <-d.exited
	d.exited <- err
	d.logFile.Close()
}

// cpuTicks reads the daemon's user+system CPU in clock ticks from
// /proc/<pid>/stat.
func (d *daemon) cpuTicks() (int64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	s := string(b)
	// Fields after the parenthesized command name; utime and stime are
	// fields 14 and 15 of the whole line.
	i := strings.LastIndexByte(s, ')')
	f := strings.Fields(s[i+2:])
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc stat line")
	}
	u, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("parse /proc stat: %v %v", err1, err2)
	}
	return u + st, nil
}

// clockTicks is USER_HZ, 100 on every Linux ABI Go supports.
const clockTicks = 100

// peakRSSMB reads VmHWM from /proc/<pid>/status.
func (d *daemon) peakRSSMB() (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in status")
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var n int64
	err := filepath.WalkDir(dir, func(_ string, e os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if e.Type().IsRegular() {
			info, err := e.Info()
			if err != nil {
				return err
			}
			n += info.Size()
		}
		return nil
	})
	return n, err
}

// runtimeStats are the Go runtime families of the daemon's Prometheus
// exposition.
type runtimeStats struct {
	GCCycles   float64
	GCPauseSec float64
	HeapBytes  float64
}

func (d *daemon) runtimeStats(c *http.Client) (runtimeStats, error) {
	resp, err := c.Get(d.url("/metrics"))
	if err != nil {
		return runtimeStats{}, err
	}
	defer resp.Body.Close()
	var rs runtimeStats
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<16), 1<<20)
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) != 2 {
			continue
		}
		v, err := strconv.ParseFloat(f[1], 64)
		if err != nil {
			continue
		}
		switch f[0] {
		case "go_gc_cycles_total":
			rs.GCCycles = v
		case "go_gc_pause_total_seconds":
			rs.GCPauseSec = v
		case "go_memstats_heap_alloc_bytes":
			rs.HeapBytes = v
		}
	}
	return rs, sc.Err()
}

// newClient returns an HTTP client that holds at most one connection,
// so the main and probe clients are the two connections of the
// generator.
func newClient() *http.Client {
	return &http.Client{
		Transport: &http.Transport{
			MaxConnsPerHost:     1,
			MaxIdleConnsPerHost: 1,
			DisableCompression:  true,
		},
		Timeout: 120 * time.Second,
	}
}

// call sends one JSON request and decodes a JSON answer; a status other
// than want is an error carrying the body.
func call(c *http.Client, method, url string, body any, want int, out any) error {
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			return err
		}
		rd = bytes.NewReader(b)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		return err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != want {
		return fmt.Errorf("%s %s: status %d: %s", method, url, resp.StatusCode, strings.TrimSpace(string(data)))
	}
	if out != nil {
		return json.Unmarshal(data, out)
	}
	return nil
}

// getRaw fetches a body verbatim (byte-identity checks).
func getRaw(c *http.Client, url string) ([]byte, error) {
	resp, err := c.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: status %d: %s", url, resp.StatusCode, strings.TrimSpace(string(data)))
	}
	return data, nil
}
