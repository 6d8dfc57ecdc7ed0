package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"strings"
)

// record is a benchcheck run as BENCH_<PR>.json keeps it: the committed
// trajectory of the benchmark, one file per measured change.
type record struct {
	// Parent and Change are the compared commits. Change ends in
	// "-dirty" when the tree had uncommitted changes.
	Parent string `json:"parent"`
	Change string `json:"change"`
	Nproc  int    `json:"nproc"`
	// CPU is the host's processor model, and CPUFamily, CPUModel and
	// CPUStepping its family, model and stepping numbers (hostCPU),
	// each empty when it could not be read. The model name alone does
	// not tell two generations of one product line apart. Files written
	// before a field existed lack it.
	CPU         string `json:"cpu"`
	CPUFamily   string `json:"cpu_family,omitempty"`
	CPUModel    string `json:"cpu_model,omitempty"`
	CPUStepping string `json:"cpu_stepping,omitempty"`
	Go          string `json:"go"`
	Date        string `json:"date"` // RFC 3339, UTC
	Pairs       int    `json:"pairs"`
	Rows        []row  `json:"rows"`
	// Layers are the per-layer metrics of one traced run of each side
	// per workload (seed 1), beside the pairs: the attribution of the
	// end-to-end rows, not a verdict.
	Layers []layerRow `json:"layers"`
}

// layerRow is one workload × per-layer metric of the traced runs.
type layerRow struct {
	Workload string  `json:"workload"`
	Metric   string  `json:"metric"`
	Unit     string  `json:"unit"`
	Better   string  `json:"better"`
	Parent   float64 `json:"parent"`
	Change   float64 `json:"change"`
}

// row is one workload × end-to-end metric, as benchcheck's table prints
// it, plus the change's per-pair wins.
type row struct {
	Workload string `json:"workload"`
	Metric   string `json:"metric"`
	Unit     string `json:"unit"`
	Better   string `json:"better"`
	// Parent and Change are the medians over the pairs.
	Parent float64 `json:"parent_median"`
	Change float64 `json:"change_median"`
	// WorsePct is how much worse the change's median is, in percent of
	// the parent's (negative: better).
	WorsePct float64 `json:"worse_pct"`
	// SpreadPct is the parent's interquartile range, in percent of its
	// median.
	SpreadPct float64 `json:"spread_pct"`
	BoundPct  float64 `json:"bound_pct"`
	// Wins counts the pairs in which the change's run was strictly
	// better than the parent's run of the same seed.
	Wins    int    `json:"wins"`
	Pairs   int    `json:"pairs"`
	Verdict string `json:"verdict"`
}

// String renders the row as benchcheck's table prints it, the form in
// which a change's notes quote it.
func (r row) String() string {
	return fmt.Sprintf("%-12s %-18s %12.4f %12.4f %+9.2f %9.2f %8.2f  %s",
		r.Workload, r.Metric, r.Parent, r.Change, r.WorsePct, r.SpreadPct, r.BoundPct, r.Verdict)
}

// wins counts the pairs, parent runs[0][i] against change runs[1][i],
// in which the change is strictly better.
func wins(runs *[2][]float64, better string) int {
	n := 0
	for i, p := range runs[0] {
		c := runs[1][i]
		if better == "higher" && c > p || better == "lower" && c < p {
			n++
		}
	}
	return n
}

// cpuID is what /proc/cpuinfo says of the host's processor.
type cpuID struct{ name, family, model, stepping string }

// hostCPU reads the host's processor from /proc/cpuinfo, all fields
// empty when it cannot be read: files from hosts of different speeds
// must not be read as one trajectory.
func hostCPU() cpuID {
	info, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return cpuID{}
	}
	return parseCPUInfo(info)
}

// parseCPUInfo returns the `model name`, `cpu family`, `model` and
// `stepping` values of the first processor a /proc/cpuinfo text lists,
// each "" when that processor has no such line.
func parseCPUInfo(cpuinfo []byte) cpuID {
	var id cpuID
	sc := bufio.NewScanner(bytes.NewReader(cpuinfo))
	for seen := false; sc.Scan(); {
		key, value, ok := strings.Cut(sc.Text(), ":")
		if !ok {
			if seen && strings.TrimSpace(sc.Text()) == "" {
				break // the first processor's block has ended
			}
			continue
		}
		seen = true
		value = strings.TrimSpace(value)
		switch strings.TrimSpace(key) {
		case "model name":
			id.name = value
		case "cpu family":
			id.family = value
		case "model":
			id.model = value
		case "stepping":
			id.stepping = value
		}
	}
	return id
}

// changeCommit names the tree being measured: HEAD, marked dirty when
// the tree has uncommitted changes.
func changeCommit() (string, error) {
	head, err := output("", "git", "rev-parse", "HEAD")
	if err != nil {
		return "", err
	}
	dirty, err := output("", "git", "status", "--porcelain")
	if dirty != "" {
		head += "-dirty"
	}
	return head, err
}

// write stores the record as indented JSON.
func (r *record) write(name string) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(name, append(data, '\n'), 0o644)
}

// layers runs each workload traced once on each tree and keeps the
// per-layer metrics either side measured (bench reports the ones a
// workload does not measure as the placeholder 1).
func layers(c contract, trees [2]string) ([]layerRow, error) {
	var rows []layerRow
	for _, w := range c.Workloads {
		var res [2]result
		for side, tree := range trees {
			var err error
			if res[side], err = runBench(tree, w.Name, 1, true); err != nil {
				return nil, err
			}
		}
		for _, m := range c.PerLayer {
			p, ch := res[0].Metrics[m.Name].Value, res[1].Metrics[m.Name].Value
			if p == 1 && ch == 1 {
				continue
			}
			rows = append(rows, layerRow{Workload: w.Name, Metric: m.Name, Unit: m.Unit, Better: m.Better, Parent: p, Change: ch})
		}
	}
	return rows, nil
}
