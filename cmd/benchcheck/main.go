// Command benchcheck is the regression gate over the repository's
// benchmark: it runs `go run ./bench` workload by workload on a build of
// the parent commit and on a build of this tree, in alternating order,
// and judges every end-to-end metric against its BENCHMARK.json bound.
//
//	go run ./cmd/benchcheck [-pr N] [PAIRS]   (make benchcheck PAIRS=3 [PR=N])
//
// With -pr it also records the run as BENCH_<N>.json in the module root
// (record.go): per workload and end-to-end metric the two medians, the
// parent's spread, the change's per-pair wins and the verdict; the
// per-layer metrics of one traced run of each side per workload; both
// commits, nproc, the host's processor (model name, family, model and
// stepping), the Go version and the date.
//
// The parent is `git merge-base HEAD main`; on main itself it is HEAD
// when the tree has uncommitted changes and HEAD~1 otherwise. It is
// unpacked under .bench_build/parent, and each binary runs with its own
// tree as working directory, because the cli-120mb set-up builds e9tool
// from there. Exit status 1 means a metric regressed, a run was not
// correct, or a larger share of operations failed.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// contract is the part of BENCHMARK.json the gate reads.
type contract struct {
	Workloads []struct{ Name string } `json:"workloads"`
	EndToEnd  []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

// result is the last line a `bench -workload` run prints.
type result struct {
	Correct bool
	Metrics map[string]struct{ Value float64 }
}

// output runs a command in dir and returns its trimmed standard output.
func output(dir, name string, args ...string) (string, error) {
	cmd := exec.Command(name, args...)
	cmd.Dir = dir
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return "", fmt.Errorf("%s %s: %w", name, strings.Join(args, " "), err)
	}
	return strings.TrimSpace(string(out)), nil
}

func parentCommit() (string, error) {
	head, err := output("", "git", "rev-parse", "HEAD")
	if err != nil {
		return "", err
	}
	base, err := output("", "git", "merge-base", "HEAD", "main")
	if err != nil || base != head {
		return base, err
	}
	if dirty, err := output("", "git", "status", "--porcelain"); err != nil || dirty != "" {
		return head, err
	}
	return output("", "git", "rev-parse", "HEAD~1")
}

// unpack writes the files of a commit into an empty dir. An archive, not
// a worktree: nothing is registered in .git, so an interrupted run leaves
// only an ignored directory behind. tar fails on the empty stream of a
// failed git archive.
func unpack(commit, dir string) error {
	if err := os.RemoveAll(dir); err != nil {
		return err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	_, err := output("", "sh", "-c", `git archive "$0" | tar -x -C "$1"`, commit, dir)
	return err
}

// quantile interpolates linearly in a sorted sample.
func quantile(sorted []float64, q float64) float64 {
	pos := q * float64(len(sorted)-1)
	lo := int(pos)
	if lo+1 >= len(sorted) {
		return sorted[lo]
	}
	return sorted[lo] + (pos-float64(lo))*(sorted[lo+1]-sorted[lo])
}

// runBench runs the bench binary built in tree on one workload and
// returns the result its last line prints.
func runBench(tree, workload string, seed int, trace bool) (res result, err error) {
	traceArg := "0"
	if trace {
		traceArg = "1"
	}
	out, err := output(tree, filepath.Join(tree, ".bench_build", "bench"),
		"-workload", workload, "-seed", strconv.Itoa(seed), "-trace", traceArg)
	if err != nil {
		return res, err
	}
	if err := json.Unmarshal([]byte(out[strings.LastIndexByte(out, '\n')+1:]), &res); err != nil {
		return res, fmt.Errorf("%s seed %d: last line is not a result: %w", workload, seed, err)
	}
	return res, nil
}

func check() (failed bool, err error) {
	pr := flag.Int("pr", 0, "record the run as BENCH_<pr>.json")
	flag.Parse()
	pairs := 3
	if flag.NArg() > 0 {
		if pairs, err = strconv.Atoi(flag.Arg(0)); err != nil || pairs < 1 || flag.NArg() > 1 || *pr < 0 {
			return false, fmt.Errorf("usage: benchcheck [-pr N] [PAIRS]")
		}
	}
	data, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return false, fmt.Errorf("run from the module root: %w", err)
	}
	var c contract
	if err := json.Unmarshal(data, &c); err != nil {
		return false, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	commit, err := parentCommit()
	if err != nil {
		return false, err
	}
	cpu := hostCPU()
	rec := record{Parent: commit, Nproc: runtime.NumCPU(), CPU: cpu.name, CPUFamily: cpu.family,
		CPUModel: cpu.model, CPUStepping: cpu.stepping, Go: runtime.Version(),
		Date: time.Now().UTC().Format(time.RFC3339), Pairs: pairs}
	if rec.Change, err = changeCommit(); err != nil {
		return false, err
	}
	root, err := os.Getwd()
	if err != nil {
		return false, err
	}
	names := [2]string{"parent", "change"}
	trees := [2]string{filepath.Join(root, ".bench_build", "parent"), root}
	if err := unpack(commit, trees[0]); err != nil {
		return false, err
	}
	defer os.RemoveAll(trees[0]) // with the 120 MB files its cli-120mb runs leave
	for _, tree := range trees {
		if _, err := output(tree, "go", "build", "-o", filepath.Join(".bench_build", "bench"), "./bench"); err != nil {
			return false, err
		}
	}
	fmt.Printf("benchcheck: parent %.12s, %d pairs\n", commit, pairs)

	values := map[string]*[2][]float64{} // workload/metric -> runs of parent, of change
	for i := 1; i <= pairs; i++ {
		for _, w := range c.Workloads {
			for k := 0; k < 2; k++ {
				side := (k + i + 1) % 2 // parent first on odd pairs, change first on even
				res, err := runBench(trees[side], w.Name, i, false)
				if err != nil {
					return false, fmt.Errorf("%s: %w", names[side], err)
				}
				if !res.Correct {
					fmt.Printf("%s: the %s run with seed %d is not correct\n", w.Name, names[side], i)
					failed = true
				}
				for _, m := range c.EndToEnd {
					key := w.Name + "/" + m.Name
					if values[key] == nil {
						values[key] = new([2][]float64)
					}
					values[key][side] = append(values[key][side], res.Metrics[m.Name].Value)
				}
				fmt.Fprintf(os.Stderr, "benchcheck: pair %d/%d %s %s\n", i, pairs, w.Name, names[side])
			}
		}
	}

	fmt.Printf("%-12s %-18s %12s %12s %9s %9s %8s  %s\n", "workload", "metric", "parent", "change", "worse %", "spread %", "bound %", "verdict")
	for _, w := range c.Workloads {
		for _, m := range c.EndToEnd {
			won := wins(values[w.Name+"/"+m.Name], m.Better) // before the sort breaks the pairs
			parent, change := values[w.Name+"/"+m.Name][0], values[w.Name+"/"+m.Name][1]
			sort.Float64s(parent)
			sort.Float64s(change)
			if parent[0] == 1 && parent[pairs-1] == 1 && change[0] == 1 && change[pairs-1] == 1 {
				continue // bench's placeholder: the workload does not define this metric
			}
			pm, cm := quantile(parent, 0.5), quantile(change, 0.5)
			worse := 100 * (cm - pm) / pm
			allBetter := change[pairs-1] < parent[0]
			if m.Better == "higher" {
				worse, allBetter = 100*(pm-cm)/pm, change[0] > parent[pairs-1]
			}
			// spread is the parent's interquartile range against its median.
			spread := 100 * (quantile(parent, 0.75) - quantile(parent, 0.25)) / pm
			verdict := "ok"
			switch {
			case worse > 100*m.Bound, m.Name == "ok_ops_pct" && cm < pm:
				verdict, failed = "regressed", true
			case spread > 100*m.Bound && !allBetter:
				verdict = "unresolved"
			}
			r := row{Workload: w.Name, Metric: m.Name, Unit: m.Unit, Better: m.Better,
				Parent: pm, Change: cm, WorsePct: worse, SpreadPct: spread, BoundPct: 100 * m.Bound,
				Wins: won, Pairs: pairs, Verdict: verdict}
			fmt.Println(r)
			rec.Rows = append(rec.Rows, r)
		}
	}
	if *pr > 0 {
		if rec.Layers, err = layers(c, trees); err != nil {
			return failed, err
		}
		name := fmt.Sprintf("BENCH_%d.json", *pr)
		if err := rec.write(name); err != nil {
			return failed, err
		}
		fmt.Printf("benchcheck: recorded %s\n", name)
	}
	return failed, nil
}

func main() {
	failed, err := check()
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchcheck:", err)
		os.Exit(2)
	}
	if failed {
		os.Exit(1)
	}
}
