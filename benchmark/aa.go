package main

import (
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"sort"
	"strings"
)

// manifest is the part of BENCHMARK.json the A/A mode and the tests need.
type manifest struct {
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
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

// quartiles returns the first, second and third quartile the way Python's
// statistics.quantiles(values, n=4) does (the "exclusive" method) — the
// rule the acceptance check states its spread in.
func quartiles(values []float64) [3]float64 {
	data := append([]float64(nil), values...)
	sort.Float64s(data)
	m := len(data)
	var q [3]float64
	for i := 1; i <= 3; i++ {
		j := i * (m + 1) / 4
		j = min(max(j, 1), m-1)
		delta := float64(i*(m+1) - j*4)
		q[i-1] = (data[j-1]*(4-delta) + data[j]*delta) / 4
	}
	return q
}

// spreadOf is the interquartile distance as a share of the median.
func spreadOf(values []float64) float64 {
	q := quartiles(values)
	return (q[2] - q[0]) / q[1]
}

// runChild runs this binary once on one workload and parses its result.
func runChild(workload string, seed int64, seconds int) (*result, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(self, "--workload", workload, "--seed", fmt.Sprint(seed),
		"--seconds", fmt.Sprint(seconds), "--trace", "0")
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("%s seed %d: %w", workload, seed, err)
	}
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		return nil, fmt.Errorf("%s seed %d: result line: %w", workload, seed, err)
	}
	if !res.Correct {
		return nil, fmt.Errorf("%s seed %d: %d of %d ops failed", workload, seed, res.Failed, res.Attempted)
	}
	return &res, nil
}

// runAA is `benchmark -aa N`: two interleaved sets of N full runs of this
// same binary — set A on seeds 1..N, set B on seeds N+1..2N, alternating
// which set goes first — judged the way the acceptance check judges a
// benchmark: within each set the interquartile spread of every end-to-end
// metric except setup_s must stay within the metric's bound, and set B's
// median must not be worse than set A's by more than the bound. Returns
// whether every pair held.
func runAA(n int, manifestPath string) (bool, error) {
	raw, err := os.ReadFile(manifestPath)
	if err != nil {
		return false, fmt.Errorf("A/A needs the bounds in %s: %w", manifestPath, err)
	}
	var mf manifest
	if err := json.Unmarshal(raw, &mf); err != nil {
		return false, fmt.Errorf("%s: %w", manifestPath, err)
	}
	if n < 2 {
		return false, fmt.Errorf("A/A needs at least 2 runs per set for a quartile, got %d", n)
	}

	// values[workload][metric][set] are the set's n run values.
	values := make(map[string]map[string]*[2][]float64)
	for i := 0; i < n; i++ {
		for k := 0; k < 2; k++ {
			set := (i + k) % 2 // alternate which set goes first
			seed := int64(i + 1 + set*n)
			for _, w := range mf.Workloads {
				res, err := runChild(w.Name, seed, mf.RunSeconds)
				if err != nil {
					return false, err
				}
				if values[w.Name] == nil {
					values[w.Name] = make(map[string]*[2][]float64)
				}
				for name, m := range res.Metrics {
					if values[w.Name][name] == nil {
						values[w.Name][name] = new([2][]float64)
					}
					values[w.Name][name][set] = append(values[w.Name][name][set], m.Value)
				}
			}
			fmt.Fprintf(os.Stderr, "A/A: run %d/%d of set %c done\n", i+1, n, 'A'+rune(set))
		}
	}

	ok := true
	fmt.Printf("| workload | metric | median A | median B | B worse by | spread A | spread B | bound | |\n")
	fmt.Printf("|---|---|---|---|---|---|---|---|---|\n")
	for _, w := range mf.Workloads {
		for _, m := range mf.EndToEnd {
			v := values[w.Name][m.Name]
			if v == nil {
				return false, fmt.Errorf("%s did not report %s", w.Name, m.Name)
			}
			a, b := quartiles(v[0])[1], quartiles(v[1])[1]
			worse := (b - a) / a
			if m.Better == "higher" {
				worse = (a - b) / a
			}
			sa, sb := spreadOf(v[0]), spreadOf(v[1])
			verdict := "ok"
			if worse > m.Bound || (m.Name != "setup_s" && (sa > m.Bound || sb > m.Bound)) {
				verdict, ok = "BREACH", false
			}
			fmt.Printf("| %s | %s | %.4g %s | %.4g %s | %+.2f%% | %.2f%% | %.2f%% | %.0f%% | %s |\n",
				w.Name, m.Name, a, m.Unit, b, m.Unit, 100*worse, 100*sa, 100*sb, 100*m.Bound, verdict)
		}
	}
	return ok, nil
}
