package main

import (
	"bufio"
	"context"
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

	"bpi"
	"bpi/perfbench/stats"
)

// daemonBoots is how many times setup is measured for serve and batch: bpid
// boots this many times, each over a fresh copy of the fixture: once to
// serve the run, then as probes spread over the run. setup_s is the median
// exec-to-/healthz time.
const daemonBoots = 7

// daemon is a running bpid.
type daemon struct {
	c      *child
	url    string
	ledger string // the daemon's copy of the fixture
	client *bpi.Client
}

// bootDaemon copies the fixture, execs bpid with only -addr and -ledger set,
// and polls /healthz; it returns the exec-to-healthy time.
func bootDaemon(r *run, fixture string, i, conns int) (*daemon, float64, error) {
	led := filepath.Join(r.dir, fmt.Sprintf("ledger-%d", i))
	if err := copyDir(fixture, led); err != nil {
		return nil, 0, err
	}
	port, err := freePort()
	if err != nil {
		return nil, 0, err
	}
	addr := "127.0.0.1:" + strconv.Itoa(port)
	logf, err := os.Create(filepath.Join(r.dir, fmt.Sprintf("bpid-%d.log", i)))
	if err != nil {
		return nil, 0, err
	}
	defer logf.Close()
	cmd := exec.Command(filepath.Join(r.bin, "bpid"), "-addr", addr, "-ledger", led)
	cmd.Stdout, cmd.Stderr = logf, logf
	probe := &http.Client{Timeout: time.Second, Transport: &http.Transport{DisableKeepAlives: true}}
	url := "http://" + addr
	t0 := time.Now()
	c, err := startChild(cmd)
	if err != nil {
		return nil, 0, err
	}
	for {
		resp, err := probe.Get(url + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				break
			}
		}
		select {
		case <-c.exited:
			return nil, 0, fmt.Errorf("bpid exited during boot: %v (log %s)", c.err, logf.Name())
		case <-time.After(time.Millisecond):
		}
		if time.Since(t0) > time.Minute {
			c.stop(syscall.SIGKILL, 0)
			return nil, 0, fmt.Errorf("bpid not healthy after a minute")
		}
	}
	setup := time.Since(t0).Seconds()
	tr := &http.Transport{MaxIdleConnsPerHost: conns, MaxConnsPerHost: conns, DisableCompression: true}
	cl := bpi.NewClient(url)
	cl.HTTP = &http.Client{Transport: tr}
	return &daemon{c: c, url: url, ledger: led, client: cl}, setup, nil
}

// stop drains bpid with SIGTERM, as an operator would.
func (d *daemon) stop() {
	_ = d.c.stop(syscall.SIGTERM, 15*time.Second)
}

// boots times bpid's set-up over one fixture.
type boots struct {
	r       *run
	fixture string
	n       int // boots so far; numbers each ledger copy and log
	setups  []float64
}

// boot starts a bpid and records its exec-to-healthy time. A boot that
// fails (the free port was taken before bpid bound it) is retried once.
func (b *boots) boot(conns int) (*daemon, error) {
	d, s, err := bootDaemon(b.r, b.fixture, b.n, conns)
	b.n++
	if err != nil {
		fmt.Printf("%-7s boot %d failed, retrying: %v\n", b.r.workload, b.n-1, err)
		d, s, err = bootDaemon(b.r, b.fixture, b.n, conns)
		b.n++
	}
	if err != nil {
		return nil, err
	}
	b.setups = append(b.setups, s)
	return d, nil
}

// probe boots a bpid only to time its set-up, then stops it and removes
// its ledger copy.
func (b *boots) probe() error {
	d, err := b.boot(1)
	if err != nil {
		return err
	}
	d.stop()
	return os.RemoveAll(d.ledger)
}

// set reports setup_s, the median of the boots.
func (b *boots) set() {
	b.r.setE2E("setup_s", stats.Median(b.setups), "s")
	fmt.Printf("%-7s setup boots_s=%v\n", b.r.workload, fmtList(b.setups))
}

func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// copyDir copies the regular files of src into a new directory dst.
func copyDir(src, dst string) error {
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	ents, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, e := range ents {
		if !e.Type().IsRegular() {
			continue
		}
		data, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), data, 0o644); err != nil {
			return err
		}
	}
	return nil
}

// scrape reads bpid's Prometheus text into series → value.
func (d *daemon) scrape(ctx context.Context) (promText, error) {
	txt, err := d.client.Metrics(ctx)
	if err != nil {
		return nil, err
	}
	return parseProm(txt), nil
}

// promText maps each series ("name" or "name{labels}") to its value.
type promText map[string]float64

func parseProm(txt string) promText {
	out := promText{}
	sc := bufio.NewScanner(strings.NewReader(txt))
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		out[line[:i]] = v
	}
	return out
}

// sum adds every series of one metric name.
func (p promText) sum(name string) float64 {
	var t float64
	for k, v := range p {
		if k == name || strings.HasPrefix(k, name+"{") {
			t += v
		}
	}
	return t
}

// memStats reads the runtime.MemStats section of /debug/pprof/heap?debug=1.
func (d *daemon) memStats(ctx context.Context) (map[string]float64, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, d.url+"/debug/pprof/heap?debug=1", nil)
	if err != nil {
		return nil, err
	}
	resp, err := d.client.HTTP.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64<<10), 16<<20)
	for sc.Scan() {
		k, v, ok := strings.Cut(strings.TrimPrefix(sc.Text(), "# "), " = ")
		if !ok {
			continue
		}
		if f, err := strconv.ParseFloat(strings.TrimSpace(v), 64); err == nil {
			out[k] = f
		}
	}
	return out, sc.Err()
}

// profile fetches a CPU profile of bpid covering the next secs seconds.
func (d *daemon) profile(ctx context.Context, secs int) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet,
		fmt.Sprintf("%s/debug/pprof/profile?seconds=%d", d.url, secs), nil)
	if err != nil {
		return nil, err
	}
	// A connection of its own, so the profile request never waits for the
	// load's connections.
	resp, err := (&http.Client{Transport: &http.Transport{DisableKeepAlives: true}}).Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("profile: HTTP %d", resp.StatusCode)
	}
	return io.ReadAll(resp.Body)
}

func fmtList(xs []float64) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = strconv.FormatFloat(x, 'f', 4, 64)
	}
	return "[" + strings.Join(parts, " ") + "]"
}
