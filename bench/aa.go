package main

import (
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strings"
)

// aaRow compares one end-to-end metric on one workload between two sets
// of runs of the same build.
type aaRow struct {
	Workload string  `json:"workload"`
	Metric   string  `json:"metric"`
	Unit     string  `json:"unit"`
	MedianA  float64 `json:"median_a"`
	MedianB  float64 `json:"median_b"`
	// DiffPct is how much worse (positive) or better (negative) set B's
	// median is than set A's, in percent of A's.
	DiffPct  float64 `json:"diff_pct"`
	BoundPct float64 `json:"bound_pct"`
	Breach   bool    `json:"breach"`
}

// aaReport is what -aa-out stores: the table and the machine it is from.
type aaReport struct {
	K          int     `json:"k"`
	Seeds      []int64 `json:"seeds"`
	Seconds    float64 `json:"run_seconds"`
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	// OpScale is the one factor by which the ISSUE's op sizes were
	// scaled to fit the run-time cap (kernelIters / 80000).
	OpScale float64 `json:"op_scale"`
	Rows    []aaRow `json:"rows"`
}

// runAA runs k alternating pairs of sets, A B A B ...: pair i runs every
// workload once for side A and once for side B, with seed i. Both sides
// are this build, so a difference beyond a metric's bound means the
// bound is tighter than the benchmark's own noise.
func runAA(k int, seconds float64, outPath string) error {
	values := map[string][2][]float64{} // workload/metric -> per-side values
	rep := aaReport{K: k, Seconds: seconds, NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: goVersion(), OpScale: float64(kernelIters) / 80000}
	for i := 1; i <= k; i++ {
		rep.Seeds = append(rep.Seeds, int64(i))
		for side := 0; side < 2; side++ {
			for _, name := range workloadNames {
				res, err := child(name, int64(i), seconds, false)
				if err != nil {
					return err
				}
				if !res.Correct {
					return fmt.Errorf("%s, seed %d: the run was not correct", name, i)
				}
				for _, d := range endToEnd {
					key := name + "/" + d.name
					v := values[key]
					v[side] = append(v[side], res.Metrics[d.name].Value)
					values[key] = v
				}
				fmt.Fprintf(os.Stderr, "aa: pair %d/%d side %c %s done\n", i, k, 'A'+side, name)
			}
		}
	}
	breaches := 0
	fmt.Printf("%-12s %-18s %14s %14s %9s %8s\n", "workload", "metric", "median A", "median B", "diff %", "bound %")
	for _, name := range workloadNames {
		for _, d := range endToEnd {
			if !d.definedOn(name) {
				continue
			}
			v := values[name+"/"+d.name]
			a, b := median(v[0]), median(v[1])
			diff := pct(b-a, a)
			if d.better == "higher" {
				diff = -diff
			}
			// The two sides are interchangeable, so either being worse than
			// the other by more than the bound is a breach.
			row := aaRow{name, d.name, d.unit, a, b, diff, 100 * d.bound, diff > 100*d.bound || -diff > 100*d.bound}
			if row.Breach {
				breaches++
			}
			rep.Rows = append(rep.Rows, row)
			mark := ""
			if row.Breach {
				mark = "  BREACH"
			}
			fmt.Printf("%-12s %-18s %14.4f %14.4f %+9.2f %8.2f%s\n", name, d.name, a, b, diff, row.BoundPct, mark)
		}
	}
	if outPath != "" {
		data, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(outPath, append(data, '\n'), 0o644); err != nil {
			return err
		}
	}
	if breaches > 0 {
		return fmt.Errorf("%d metrics differ between the two sets by more than their bound", breaches)
	}
	return nil
}

// goVersion asks the toolchain that builds e9tool, not the one this
// binary happens to embed.
func goVersion() string {
	out, err := exec.Command("go", "version").Output()
	if err != nil {
		return runtime.Version()
	}
	return strings.TrimSpace(string(out))
}
