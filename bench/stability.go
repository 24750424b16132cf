package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"syscall"
)

// spec is BENCHMARK.json, the benchmark's definition.
type spec struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readSpec(path string) (*spec, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s spec
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// lastLine returns the final non-empty line of out.
func lastLine(out []byte) []byte {
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	return lines[len(lines)-1]
}

// setSummary is one metric's quartiles over one set of invocations.
type setSummary struct {
	P25    float64 `json:"p25"`
	Median float64 `json:"median"`
	P75    float64 `json:"p75"`
	// Spread is the quartile distance as a share of the median.
	Spread float64 `json:"spread"`
}

func summarize(vals []float64) setSummary {
	q1, med, q3 := quartiles(vals)
	return setSummary{q1, med, q3, (q3 - q1) / med}
}

// stabilitySeeds are the seeds of each stability set: ten, the default seed
// first, so the pins are checked in both sets. Both sets run the same
// seeds, so the spread within a set includes the seeds' different inputs
// while the difference between the sets does not.
var stabilitySeeds = []uint64{defaultSeed, 1, 2, 3, 4, 5, 6, 7, 8, 9}

// stabilityMain runs every workload once per stability seed, each
// invocation its own process, and then again in reverse workload order. For
// every end-to-end metric it prints each set's median and quartiles and
// whether the spreads (setup_s excepted) and the second median's worsening
// stay within the metric's bound. It returns the exit code: nonzero when an
// invocation failed or a metric left its bound.
func stabilityMain(specPath string) int {
	sp, err := readSpec(specPath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 2
	}
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 2
	}
	// vals[set][workload][metric] holds one value per invocation.
	var vals [2]map[string]map[string][]float64
	code := 0
	for set := range vals {
		vals[set] = map[string]map[string][]float64{}
		order := append([]*workload(nil), workloads...)
		if set == 1 {
			for i, j := 0, len(order)-1; i < j; i, j = i+1, j-1 {
				order[i], order[j] = order[j], order[i]
			}
		}
		for _, w := range order {
			vals[set][w.name] = map[string][]float64{}
			for _, seed := range stabilitySeeds {
				cmd := exec.Command(exe, "--workload", w.name, "--seed", strconv.FormatUint(seed, 10),
					"--seconds", strconv.Itoa(sp.RunSeconds), "--trace", "0")
				cmd.Stderr = os.Stderr
				// The invocation dies with this process, so stopping a
				// stability run leaves nothing running.
				cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
				out, err := cmd.Output()
				var res result
				if err == nil {
					err = json.Unmarshal(lastLine(out), &res)
				}
				if err != nil || !res.Correct {
					fmt.Fprintf(os.Stderr, "bench: stability: %s seed %d failed: %v\n", w.name, seed, err)
					code = 1
					continue
				}
				line := fmt.Sprintf("stability: set %d %s seed %d:", set+1, w.name, seed)
				for _, m := range sp.EndToEnd {
					v := res.Metrics[m.Name].Value
					vals[set][w.name][m.Name] = append(vals[set][w.name][m.Name], v)
					line += fmt.Sprintf(" %s=%.4g", m.Name, v)
				}
				fmt.Fprintln(os.Stderr, line)
			}
		}
	}

	fmt.Printf("%-17s %-12s %6s  %-32s %-32s %7s  %s\n", "workload", "metric", "bound",
		"set 1 median [p25, p75] spread", "set 2 median [p25, p75] spread", "worse", "verdict")
	for _, w := range workloads {
		for _, m := range sp.EndToEnd {
			a := summarize(vals[0][w.name][m.Name])
			b := summarize(vals[1][w.name][m.Name])
			worse := (b.Median - a.Median) / a.Median
			if m.Better == "higher" {
				worse = -worse
			}
			ok := worse <= m.Bound
			steady := true
			if m.Name != "setup_s" {
				ok = ok && a.Spread <= m.Bound && b.Spread <= m.Bound
				steady = a.Spread < m.Bound/3 && b.Spread < m.Bound/3
			}
			verdict := "ok"
			switch {
			case !ok:
				verdict = "OUT OF BOUND"
				code = 1
			case !steady:
				verdict = "ok, spread above a third of the bound"
			}
			cell := func(s setSummary) string {
				return fmt.Sprintf("%.4g [%.4g, %.4g] %.3f", s.Median, s.P25, s.P75, s.Spread)
			}
			fmt.Printf("%-17s %-12s %6.2f  %-32s %-32s %+7.3f  %s\n", w.name, m.Name, m.Bound,
				cell(a), cell(b), worse, verdict)
		}
	}
	return code
}
