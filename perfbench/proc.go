package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"

	"bpi/perfbench/stats"
)

// cpuSeconds is the user+system CPU time of process pid, summed over its
// threads from /proc/<pid>/task/*/schedstat (nanosecond resolution, unlike
// the 10 ms ticks of /proc/<pid>/stat, which serve only kernels without
// schedstat). Go runtimes keep their threads, so no CPU time leaves the sum
// between two reads.
func cpuSeconds(pid int) (float64, error) {
	tasks, err := filepath.Glob(fmt.Sprintf("/proc/%d/task/*/schedstat", pid))
	if err != nil || len(tasks) == 0 {
		return statCPUSeconds(pid)
	}
	var ns int64
	for _, t := range tasks {
		data, err := os.ReadFile(t)
		if err != nil {
			continue // the thread exited between the glob and the read
		}
		f := strings.Fields(string(data))
		if len(f) == 0 {
			continue
		}
		v, err := strconv.ParseInt(f[0], 10, 64)
		if err != nil {
			return 0, fmt.Errorf("cpu time of pid %d: %v", pid, err)
		}
		ns += v
	}
	return float64(ns) / 1e9, nil
}

// statCPUSeconds reads utime+stime of pid from /proc/<pid>/stat, in the
// kernel's fixed 100 Hz user ticks.
func statCPUSeconds(pid int) (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, fmt.Errorf("cpu time of pid %d: %w", pid, err)
	}
	// Fields after the parenthesised command name: state is field 3, utime
	// and stime are fields 14 and 15.
	i := strings.LastIndexByte(string(data), ')')
	if i < 0 {
		return 0, fmt.Errorf("cpu time of pid %d: malformed stat", pid)
	}
	f := strings.Fields(string(data[i+1:]))
	if len(f) < 13 {
		return 0, fmt.Errorf("cpu time of pid %d: malformed stat", pid)
	}
	ut, err1 := strconv.ParseFloat(f[11], 64)
	st, err2 := strconv.ParseFloat(f[12], 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("cpu time of pid %d: malformed stat", pid)
	}
	return (ut + st) / 100, nil
}

// peakRSSMB is VmHWM of process pid in MiB.
func peakRSSMB(pid int) (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "VmHWM:") {
			fs := strings.Fields(line)
			if len(fs) < 2 {
				break
			}
			kb, err := strconv.ParseFloat(fs[1], 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM for pid %d", pid)
}

// resetPeakRSS restarts the VmHWM high-water mark of process pid at its
// current RSS, so the next reading is the peak of what ran in between.
// Where the kernel refuses, the mark keeps covering the process lifetime,
// and the run says so once.
func resetPeakRSS(pid int) {
	if err := os.WriteFile(fmt.Sprintf("/proc/%d/clear_refs", pid), []byte("5"), 0); err != nil && !warnedRSS {
		warnedRSS = true
		fmt.Printf("note: cannot reset VmHWM (%v); peak_rss_mb covers the process lifetime\n", err)
	}
}

var warnedRSS bool

// passSample is what one timed pass cost the program process.
type passSample struct {
	wall, cpu, rss, steal float64
}

// timePass runs one pass and measures program process pid around it: wall
// time, CPU time, peak RSS (the high-water mark is reset first) and the
// host's steal time.
func timePass(pid int, pass func() error) (passSample, error) {
	c0, err := cpuSeconds(pid)
	if err != nil {
		return passSample{}, err
	}
	resetPeakRSS(pid)
	h0 := readHostCPU()
	t0 := time.Now()
	if err := pass(); err != nil {
		return passSample{}, err
	}
	s := passSample{wall: time.Since(t0).Seconds()}
	h1 := readHostCPU()
	c1, err := cpuSeconds(pid)
	if err != nil {
		return passSample{}, err
	}
	if s.rss, err = peakRSSMB(pid); err != nil {
		return passSample{}, err
	}
	s.cpu, s.steal = c1-c0, stealFrac(h0, h1)
	return s, nil
}

// stealMax is the share of host CPU time the hypervisor may steal during a
// pass before the pass is repeated. On a shared VM, neighbours' load shows
// as steal and stretches wall time; a pass run under it says more about the
// neighbours than about the program.
const stealMax = 0.03

// extraPasses is how many passes a run that reports n may add to replace
// passes run above stealMax.
func extraPasses(n int) int { return n / 2 }

// extraBudget is how long, as a multiple of --seconds, a run's passes may
// take before it stops adding passes: under lasting steal the extra passes
// would not be quieter, and the run must still end in time.
const extraBudget = 1.25

// passStats collects a run's pass samples in run order.
type passStats struct {
	samples []passSample
}

// add records pass i and prints it, with the host steal time over it.
func (p *passStats) add(workload string, i int, s passSample, extra string) {
	p.samples = append(p.samples, s)
	fmt.Printf("%-7s pass %-3d pass_s=%.4f cpu_s=%.4f peak_rss_mb=%.1f steal=%.4f %s\n",
		workload, i, s.wall, s.cpu, s.rss, s.steal, extra)
}

// quiet is the number of passes run at most stealMax.
func (p *passStats) quiet() int {
	n := 0
	for _, s := range p.samples {
		if s.steal <= stealMax {
			n++
		}
	}
	return n
}

// wall is the median wall time of the n passes with the least steal.
func (p *passStats) wall(n int) float64 {
	return stats.Median(p.least(n, func(s passSample) float64 { return s.wall }))
}

// least returns f of the n passes with the least steal, ties in run order.
func (p *passStats) least(n int, f func(passSample) float64) []float64 {
	s := append([]passSample(nil), p.samples...)
	sort.SliceStable(s, func(i, j int) bool { return s[i].steal < s[j].steal })
	out := make([]float64, 0, n)
	for _, x := range s[:min(n, len(s))] {
		out = append(out, f(x))
	}
	return out
}

// set reports the end-to-end pass metrics of a run that reports n passes:
// wall and CPU time are medians over the n passes with the least steal;
// peak RSS, which steal does not change but the run's growing heap does, is
// the median over the first n passes.
func (p *passStats) set(r *run, n int) {
	r.setE2E("pass_s", p.wall(n), "s")
	r.setE2E("cpu_s", stats.Median(p.least(n, func(s passSample) float64 { return s.cpu })), "s")
	var rss []float64
	for _, s := range p.samples[:min(n, len(p.samples))] {
		rss = append(rss, s.rss)
	}
	r.setE2E("peak_rss_mb", stats.Median(rss), "MB")
	fmt.Printf("%-7s passes=%d reported=%d above_steal_max=%d\n", r.workload, len(p.samples), n, len(p.samples)-p.quiet())
}

// runPasses runs the timed passes of a run that reports n of them, calling
// pass(k) for k = 1, 2, …: until n passes ran at most stealMax, or n plus
// extraPasses(n) ran in all, or, once n ran, the passes took extraBudget
// times --seconds. Before each of the first n passes it runs its share of
// the run's set-up probes, so set-up is sampled across the whole run rather
// than in one burst at its start.
func (r *run) runPasses(n, probes int, probe func() error, pass func(k int) (passSample, string, error)) (*passStats, error) {
	ps := &passStats{}
	t0 := time.Now()
	budget := time.Duration(extraBudget * float64(r.seconds))
	for k := 1; ps.quiet() < n && (k <= n || k <= n+extraPasses(n) && time.Since(t0) < budget); k++ {
		if k <= n {
			for j := (k - 1) * probes / n; j < k*probes/n; j++ {
				if err := probe(); err != nil {
					return nil, err
				}
			}
		}
		s, extra, err := pass(k)
		if err != nil {
			return nil, err
		}
		ps.add(r.workload, k, s, extra)
	}
	ps.set(r, n)
	return ps, nil
}

// hostCPU is one sample of the aggregate "cpu" line of /proc/stat.
type hostCPU struct {
	total, steal float64
}

func readHostCPU() hostCPU {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return hostCPU{}
	}
	line, _, _ := strings.Cut(string(data), "\n")
	f := strings.Fields(line)
	var h hostCPU
	for i, s := range f[1:] {
		v, _ := strconv.ParseFloat(s, 64)
		if i >= 8 { // guest time is already counted in user time
			break
		}
		h.total += v
		if i == 7 {
			h.steal = v
		}
	}
	return h
}

// ratio is num/den, or 0 when den is 0.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// stealFrac is the share of host CPU time stolen by the hypervisor between
// two samples: a pass that ran while neighbours took the CPU shows it here.
func stealFrac(a, b hostCPU) float64 {
	return ratio(b.steal-a.steal, b.total-a.total)
}
