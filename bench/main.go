// Command bench is the repository's one benchmark: five workloads, the
// end-to-end metrics a caller of the system sees, and a traced run that
// attributes them to layers. README.md is the glossary.
//
//	go run ./bench                          every workload, untraced and traced
//	go run ./bench -workload W [-seed N] [-seconds S] [-trace 0|1]
//	go run ./bench -aa K                    K alternating pairs of run sets, same build
//
// With -workload, the last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics"}.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"time"
)

// defaultSeconds is BENCHMARK.json's run_seconds.
const defaultSeconds = 10

// result is the contract's output object.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func newWorkload(name string) (benchWorkload, int, error) {
	switch name {
	case wlPatchDense:
		return newPatchDense(), len(patchDenseSpecs), nil
	case wlRecoverCET:
		return newRecoverCET(), len(recoverCETSpecs), nil
	case wlCLI:
		w, err := newCLI()
		return w, 1, err
	case wlServed:
		return &servedWorkload{}, numClasses, nil
	case wlEmu:
		return &emuWorkload{}, len(kernelSpecs), nil
	}
	return nil, 0, fmt.Errorf("unknown workload %q (want one of %s)", name, strings.Join(workloadNames, ", "))
}

// runOne is one invocation under the output contract: set up (several
// times, for a median), measure, verify, and when traced run the traced
// ops. It returns the result and the lines of information to print.
func runOne(name string, seed int64, seconds float64, traced bool, traceOut string) (*result, []string, error) {
	w, nClasses, err := newWorkload(name)
	if err != nil {
		return nil, nil, err
	}
	defer w.close()
	// The calibration ring is allocated in every run, probed only in a
	// traced one: 32 MB of live heap sets how often the collector runs
	// during an op, and the two kinds of run must not differ in that.
	cal := newCalib()

	var setups []float64
	for i := 0; i < setupRepeats; i++ {
		start := time.Now()
		if err := w.setup(seed); err != nil {
			return nil, nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	m, err := w.measure(seconds)
	if err != nil {
		return nil, nil, fmt.Errorf("measure: %w", err)
	}
	got, failed, err := endToEndMetrics(m, median(setups), nClasses)
	if err != nil {
		return nil, nil, err
	}
	res := &result{Attempted: len(m.ops), Failed: failed}
	info := w.info()
	for _, op := range m.ops {
		if !op.ok {
			info = append(info, "FAILED op: "+op.why)
			break
		}
	}
	verr := w.verify()
	if verr != nil {
		info = append(info, "FAILED verification: "+verr.Error())
	}
	res.Correct = failed == 0 && verr == nil

	if traced {
		tr := newTracer()
		if got, err = w.trace(tr, cal, m); err != nil {
			return nil, nil, fmt.Errorf("traced ops: %w", err)
		}
		if err := os.MkdirAll(filepath.Dir(traceOut), 0o755); err != nil {
			return nil, nil, err
		}
		if err := tr.write(traceOut, name, seed); err != nil {
			return nil, nil, err
		}
		info = append(info, fmt.Sprintf("trace: %d spans in %s", tr.len(), traceOut))
	}
	if res.Metrics, err = fill(registry(traced), name, got); err != nil {
		return nil, nil, err
	}
	return res, info, nil
}

// registry returns the metrics a run of the given kind prints.
func registry(traced bool) []metricDef {
	if traced {
		return perLayer
	}
	return endToEnd
}

// printMetrics writes the metrics by name with their units, in registry
// order; a metric the workload does not define prints as "-".
func printMetrics(defs []metricDef, workload string, metrics map[string]metricValue) {
	for _, d := range defs {
		if !d.definedOn(workload) {
			fmt.Printf("  %-30s %14s %s\n", d.name, "-", d.unit)
			continue
		}
		fmt.Printf("  %-30s %14.4f %s\n", d.name, metrics[d.name].Value, d.unit)
	}
}

// child re-runs this binary under the output contract and parses the
// last line it prints. Each run gets a process of its own, as under the
// driver: peak RSS is a per-process high-water mark.
func child(workload string, seed int64, seconds float64, traced bool) (*result, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	trace := "0"
	if traced {
		trace = "1"
	}
	cmd := exec.Command(exe, "-workload", workload, "-seed", fmt.Sprint(seed),
		"-seconds", fmt.Sprint(seconds), "-trace", trace)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("%s: %w", workload, err)
	}
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		return nil, fmt.Errorf("%s: last line is not a result: %w", workload, err)
	}
	return &res, nil
}

// runAll is the one command that prints everything: each workload,
// untraced then traced.
func runAll(seed int64, seconds float64) error {
	bad := 0
	for _, name := range workloadNames {
		for _, traced := range []bool{false, true} {
			res, err := child(name, seed, seconds, traced)
			if err != nil {
				return err
			}
			kind := "end-to-end"
			if traced {
				kind = "per-layer (traced run)"
			}
			fmt.Printf("%s, %s: correct=%v attempted=%d failed=%d\n", name, kind, res.Correct, res.Attempted, res.Failed)
			printMetrics(registry(traced), name, res.Metrics)
			if !res.Correct {
				bad++
			}
		}
	}
	if bad > 0 {
		return fmt.Errorf("%d runs were not correct", bad)
	}
	return nil
}

// normalizeArgs lets -trace stand alone: the driver passes "--trace 0|1",
// a person types "-trace".
func normalizeArgs(args []string) []string {
	var out []string
	for i, a := range args {
		out = append(out, a)
		if a == "-trace" || a == "--trace" {
			if i+1 == len(args) || (args[i+1] != "0" && args[i+1] != "1") {
				out = append(out, "1")
			}
		}
	}
	return out
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "-launch" {
		if err := launchMain(os.Args[2:], os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "bench -launch:", err)
			os.Exit(1)
		}
		return
	}
	fs := flag.NewFlagSet("bench", flag.ExitOnError)
	workload := fs.String("workload", "", "run one workload under the output contract: "+strings.Join(workloadNames, " | "))
	seed := fs.Int64("seed", 1, "input seed")
	seconds := fs.Float64("seconds", defaultSeconds, "how long the timed section runs")
	trace := fs.Int("trace", 0, "1: also run the traced ops and print the per-layer metrics")
	traceOut := fs.String("trace-out", "", "where the traced run writes its spans (default "+buildDir+"/trace-<workload>.json)")
	aa := fs.Int("aa", 0, "run K alternating pairs of run sets (A B A B ...) of this build and compare their medians")
	aaOut := fs.String("aa-out", "", "with -aa: also write the comparison as JSON to this file")
	fs.Parse(normalizeArgs(os.Args[1:]))

	err := func() error {
		switch {
		case fs.NArg() > 0:
			return fmt.Errorf("unexpected argument %q", fs.Arg(0))
		case *aa > 0:
			return runAA(*aa, *seconds, *aaOut)
		case *workload == "":
			return runAll(*seed, *seconds)
		}
		if *traceOut == "" {
			*traceOut = filepath.Join(buildDir, "trace-"+*workload+".json")
		}
		res, info, err := runOne(*workload, *seed, *seconds, *trace == 1, *traceOut)
		if err != nil {
			return err
		}
		for _, line := range info {
			fmt.Println("#", line)
		}
		printMetrics(registry(*trace == 1), *workload, res.Metrics)
		line, err := json.Marshal(res)
		if err != nil {
			return err
		}
		// The result says whether the run was correct; the exit code only
		// says whether there is a result.
		fmt.Println(string(line))
		return nil
	}()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}
