// Command spread runs every workload of the benchmark on one commit with
// several seeds and prints, per workload and end-to-end metric, the median,
// the quartiles (as Python's statistics.quantiles(n=4) computes them) and
// the spread — the distance between the quartiles as a share of the median
// — beside the metric's bound from BENCHMARK.json.
//
// Run it from the perfbench directory:
//
//	go run ./spread -root .. -runs 10 -first-seed 1
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"

	"bpi/perfbench/stats"
)

type benchmark struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

var stealRE = regexp.MustCompile(`(?m)^\S+\s+pass \d+ .* steal=([0-9.]+)`)

type result struct {
	Correct bool `json:"correct"`
	Metrics map[string]struct {
		Value float64 `json:"value"`
	} `json:"metrics"`
}

func main() {
	root := flag.String("root", "..", "repository root (holds BENCHMARK.json)")
	runs := flag.Int("runs", 10, "runs per workload, seeds first..first+runs-1")
	first := flag.Int("first-seed", 1, "first seed")
	flag.Parse()

	data, err := os.ReadFile(filepath.Join(*root, "BENCHMARK.json"))
	if err != nil {
		fatal(err)
	}
	var b benchmark
	if err := json.Unmarshal(data, &b); err != nil {
		fatal(err)
	}
	for _, wl := range b.Workloads {
		w := wl.Name
		vals := map[string][]float64{}
		for s := *first; s < *first+*runs; s++ {
			cmd := exec.Command("bash", "perfbench/run.sh", "--workload", w, "--seed", strconv.Itoa(s),
				"--seconds", strconv.Itoa(b.RunSeconds), "--trace", "0")
			cmd.Dir = *root
			cmd.Stderr = os.Stderr
			stdout, err := cmd.Output()
			if err != nil {
				fatal(fmt.Errorf("%s seed %d: %v", w, s, err))
			}
			lines := strings.Split(strings.TrimSpace(string(stdout)), "\n")
			var res result
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil || !res.Correct {
				fatal(fmt.Errorf("%s seed %d: bad result line %q", w, s, lines[len(lines)-1]))
			}
			var line bytes.Buffer
			fmt.Fprintf(&line, "%-7s seed %-3d", w, s)
			for _, m := range b.EndToEnd {
				v := res.Metrics[m.Name].Value
				vals[m.Name] = append(vals[m.Name], v)
				fmt.Fprintf(&line, " %s=%.6g", m.Name, v)
			}
			// The host steal of the run's passes, so a noisy run shows.
			var steal []float64
			for _, m := range stealRE.FindAllSubmatch(stdout, -1) {
				if v, err := strconv.ParseFloat(string(m[1]), 64); err == nil {
					steal = append(steal, v)
				}
			}
			fmt.Fprintf(&line, " passes=%d steal_median=%.3f", len(steal), stats.Median(steal))
			fmt.Println(line.String())
		}
		for _, m := range b.EndToEnd {
			xs := vals[m.Name]
			med := stats.Median(xs)
			q1, q3 := stats.Quartiles(xs)
			sp := (q3 - q1) / med
			flag := "ok"
			if sp > m.Bound/3 {
				flag = "ABOVE bound/3"
			}
			fmt.Printf("%-7s %-12s median=%-12.6g q1=%-12.6g q3=%-12.6g spread=%.4f bound=%.2f %s\n",
				w, m.Name, med, q1, q3, sp, m.Bound, flag)
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "spread:", err)
	os.Exit(1)
}
