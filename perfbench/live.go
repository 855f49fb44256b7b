package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// clockTicks is USER_HZ, the unit of utime/stime in /proc/<pid>/stat
// (100 on every Linux architecture Go supports).
const clockTicks = 100

// server is one live mdmd process.
type server struct {
	cmd  *exec.Cmd
	base string
	log  *os.File
	done chan struct{}
}

// startServer launches mdmd on a free loopback port with a fresh data
// directory. The process dies with the benchmark (Pdeathsig) even if
// the benchmark is killed.
func startServer(bin, dataDir string, flags []string) (*server, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	addr := ln.Addr().String()
	ln.Close()
	if err := os.MkdirAll(dataDir, 0o755); err != nil {
		return nil, err
	}
	logf, err := os.Create(dataDir + ".log")
	if err != nil {
		return nil, err
	}
	args := append([]string{"-addr", addr, "-data", dataDir}, flags...)
	cmd := exec.Command(bin, args...)
	cmd.Stdout, cmd.Stderr = logf, logf
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, err
	}
	s := &server{cmd: cmd, base: "http://" + addr, log: logf, done: make(chan struct{})}
	go func() { cmd.Wait(); close(s.done) }()
	return s, nil
}

// stop terminates the process (SIGTERM, then SIGKILL after a grace
// period) and waits until it has exited.
func (s *server) stop() {
	_ = s.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-s.done:
	case <-time.After(20 * time.Second):
		_ = s.cmd.Process.Kill()
		<-s.done
	}
	s.log.Close()
}

// waitReady polls GET /api/stats every millisecond until the server
// answers, so readiness adds at most a millisecond to setup_s.
func (s *server) waitReady(c *http.Client, patience time.Duration) error {
	deadline := time.Now().Add(patience)
	for {
		resp, err := c.Get(s.base + "/api/stats")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		select {
		case <-s.done:
			return fmt.Errorf("mdmd exited during start-up (see %s)", s.log.Name())
		default:
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("mdmd not ready after %v: %v", patience, err)
		}
		time.Sleep(time.Millisecond)
	}
}

// cpu returns the process's user+system CPU time so far.
func (s *server) cpu() (time.Duration, error) { return procCPU(s.cmd.Process.Pid) }

// procCPU reads a process's user+system CPU time from /proc/<pid>/stat.
func procCPU(pid int) (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// fields 14 and 15 of the whole line.
	f := strings.Fields(string(b[bytes.LastIndexByte(b, ')')+1:]))
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc stat line")
	}
	u, _ := strconv.ParseInt(f[11], 10, 64)
	st, _ := strconv.ParseInt(f[12], 10, 64)
	return time.Duration(u+st) * time.Second / clockTicks, nil
}

// hwm returns the process's peak resident set size (VmHWM) in bytes.
func (s *server) hwm() (int64, error) {
	return procStatusKB(fmt.Sprintf("/proc/%d/status", s.cmd.Process.Pid), "VmHWM:")
}

func procStatusKB(path, key string) (int64, error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if strings.HasPrefix(sc.Text(), key) {
			fs := strings.Fields(sc.Text())
			kb, err := strconv.ParseInt(fs[1], 10, 64)
			return kb * 1024, err
		}
	}
	return 0, fmt.Errorf("%s: no %s", path, key)
}

// --- requests ---------------------------------------------------------------

// sample is one completed request of the measured window.
type sample struct {
	class string
	label string // template name (reads) or step kind (governance)
	lat   time.Duration
	err   error
}

func newClient() *http.Client {
	return &http.Client{Timeout: 60 * time.Second, Transport: &http.Transport{
		MaxIdleConnsPerHost: 16, DisableCompression: true,
	}}
}

// do sends one request and reads the whole body; the latency runs from
// send to the last body byte.
func do(c *http.Client, base, method, path string, body []byte) (int, []byte, time.Duration, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, base+path, rd)
	if err != nil {
		return 0, nil, 0, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	t0 := time.Now()
	resp, err := c.Do(req)
	if err != nil {
		return 0, nil, time.Since(t0), err
	}
	out, err := io.ReadAll(resp.Body)
	lat := time.Since(t0)
	resp.Body.Close()
	return resp.StatusCode, out, lat, err
}

// runGov sends a steward step and checks the answer.
func runGov(c *http.Client, base, purl string, op *govOp) sample {
	m, p, b := op.request(purl)
	status, body, lat, err := do(c, base, m, p, b)
	if err == nil {
		err = op.check(status, body)
	}
	if err == nil && op.done != nil {
		op.done()
	}
	return sample{class: classGovern, label: govLabels[op.kind], lat: lat, err: err}
}

// runRead sends an analyst request and checks the answer.
func runRead(c *http.Client, base string, op *readOp) sample {
	m, p, b := op.request()
	status, body, lat, err := do(c, base, m, p, b)
	if err == nil {
		err = op.verify(status, body)
	}
	return sample{class: op.class, label: op.template(), lat: lat, err: err}
}

// setup launches mdmd and builds the workload's fixture through the
// steward REST API, then answers the probe request. The elapsed time
// runs from launching the process to the probe's answer.
func setup(bin, dataDir string, w *workload, prov *provider, c *http.Client) (*server, time.Duration, error) {
	t0 := time.Now()
	srv, err := startServer(bin, dataDir, w.cfg.flags())
	if err != nil {
		return nil, 0, err
	}
	fail := func(err error) (*server, time.Duration, error) { srv.stop(); return nil, 0, err }
	if err := srv.waitReady(c, 60*time.Second); err != nil {
		return fail(err)
	}
	for _, op := range w.setup {
		if s := runGov(c, srv.base, prov.URL(), op); s.err != nil {
			return fail(fmt.Errorf("setup step: %w", s.err))
		}
	}
	if s := runRead(c, srv.base, w.probe()); s.err != nil {
		return fail(fmt.Errorf("probe: %w", s.err))
	}
	return srv, time.Since(t0), nil
}

// window runs the workload's closed-loop clients against base for d:
// the analysts send their next request as soon as the previous answer
// is checked, each from the start of its seeded stream, and finish the
// block of requests they are in when the deadline passes; the
// governance steward registers releases [from, to) at its pace. The
// window ends when the last client stops.
func window(w *workload, seed uint64, base string, prov *provider, d time.Duration, from, to int) ([]sample, time.Duration) {
	start := time.Now()
	deadline := start.Add(d)
	var mu sync.Mutex
	var all []sample
	var wg sync.WaitGroup
	record := func(out []sample) {
		mu.Lock()
		all = append(all, out...)
		mu.Unlock()
	}
	for i := 0; i < w.readers; i++ {
		wg.Add(1)
		go func(client int) {
			defer wg.Done()
			c := newClient()
			next := w.reader(client, seed)
			var out []sample
			// Whole blocks only: every part holds the workload's exact mix.
			for last := false; !last || time.Now().Before(deadline); {
				var op *readOp
				op, last = next()
				out = append(out, runRead(c, base, op))
			}
			record(out)
		}(i)
	}
	if from < to {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := newClient()
			var out []sample
			for i := from; i < to; i++ {
				due := start.Add(time.Duration(i-from) * stewardPeriod)
				if due.After(deadline) || time.Now().After(deadline) {
					break
				}
				time.Sleep(time.Until(due))
				path, ops := w.steward(i)
				prov.publish(path)
				for _, op := range ops {
					out = append(out, runGov(c, base, prov.URL(), op))
				}
			}
			record(out)
		}()
	}
	wg.Wait()
	return all, time.Since(start)
}

// --- /metrics -----------------------------------------------------------------

// scrape reads the server's Prometheus text exposition into
// "name{labels}" -> value.
func scrape(c *http.Client, base string) (map[string]float64, error) {
	status, body, _, err := do(c, base, http.MethodGet, "/metrics", nil)
	if err != nil {
		return nil, err
	}
	if status != http.StatusOK {
		return nil, fmt.Errorf("/metrics: status %d", status)
	}
	out := map[string]float64{}
	for _, line := range strings.Split(string(body), "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err == nil {
			out[line[:i]] = v
		}
	}
	return out, nil
}

// family sums a metric family's series whose labels contain match
// ("" = all). ok is false when the family is absent, so a renamed
// family shows as a missing metric rather than a zero.
func family(m map[string]float64, name, match string) (sum float64, ok bool) {
	for k, v := range m {
		n, labels := k, ""
		if i := strings.IndexByte(k, '{'); i >= 0 {
			n, labels = k[:i], k[i:]
		}
		if n == name {
			ok = true
			if strings.Contains(labels, match) {
				sum += v
			}
		}
	}
	return sum, ok
}

// runDir returns a fresh scratch directory for one run, inside the
// build directory of the checkout.
func runDir(buildDir, workload string, seed uint64) (string, error) {
	d := filepath.Join(buildDir, "runs", fmt.Sprintf("%s-%d-%d", workload, seed, os.Getpid()))
	os.RemoveAll(d)
	return d, os.MkdirAll(d, 0o755)
}

// parts is the number of consecutive parts the measured window is cut
// into. The analysts restart their seeded streams in every part, so on
// walk-evolution and metadata-sparql every part does the same work; the
// governance steward carries on with its sequence. End-to-end metrics
// are computed per part and reported as the median over the parts, so a
// stall of the machine that spoils one part does not move them.
const parts = 4

// part is one measured part of the window.
type part struct {
	samples []sample
	elapsed time.Duration
	cpu     time.Duration // mdmd user+system CPU over the part
	own     time.Duration // the benchmark's own CPU over the part
}

// liveRun is what the live run measured.
type liveRun struct {
	setups []time.Duration
	parts  []part
	hwm    int64
	before map[string]float64
	after  map[string]float64
}

// samples returns the samples of every part.
func (lr *liveRun) samples() []sample {
	var out []sample
	for _, p := range lr.parts {
		out = append(out, p.samples...)
	}
	return out
}

// cheapSetups is the set-up time below which a run keeps building its
// fixture, up to five times nsetup, so that a fast set-up is the median
// of more samples.
const cheapSetups = 5 * time.Second

// runLive builds the fixture nsetup times (each on a fresh mdmd), keeps
// the last server for a warm-up and the measured window, and samples
// its CPU, peak RSS and /metrics around the window.
func runLive(bin, dir string, w *workload, seed uint64, prov *provider, seconds, nsetup int) (*liveRun, error) {
	c := newClient()
	lr := &liveRun{}
	var srv *server
	total := time.Duration(0)
	for i := 0; i < nsetup || (i < 5*nsetup && total < cheapSetups); i++ {
		if srv != nil {
			srv.stop()
		}
		prov.reset(w.initialPaths())
		var took time.Duration
		var err error
		srv, took, err = setup(bin, filepath.Join(dir, fmt.Sprintf("data%d", i)), w, prov, c)
		if err != nil {
			return nil, err
		}
		lr.setups = append(lr.setups, took)
		total += took
	}
	defer srv.stop()
	// Warm-up: analysts only, so the steward's sequence starts with the
	// measured window.
	window(w, seed^0x5eed, srv.base, prov, time.Second, 0, 0)

	var err error
	if lr.before, err = scrape(c, srv.base); err != nil {
		return nil, err
	}
	d := time.Duration(seconds) * time.Second / parts
	for k := 0; k < parts; k++ {
		cpu0, err := srv.cpu()
		if err != nil {
			return nil, err
		}
		own0, _ := procCPU(os.Getpid())
		var p part
		p.samples, p.elapsed = window(w, seed, srv.base, prov, d, w.releases*k/parts, w.releases*(k+1)/parts)
		cpu1, err := srv.cpu()
		if err != nil {
			return nil, err
		}
		own1, _ := procCPU(os.Getpid())
		p.cpu, p.own = cpu1-cpu0, own1-own0
		lr.parts = append(lr.parts, p)
	}
	if lr.after, err = scrape(c, srv.base); err != nil {
		return nil, err
	}
	if lr.hwm, err = srv.hwm(); err != nil {
		return nil, err
	}
	return lr, nil
}
