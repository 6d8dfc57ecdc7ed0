package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestBenchRecordsMatchRegistry parses every BENCH_*.json in the module
// root: each must decode as a record with no unknown field, and every
// row must name a workload and an end-to-end metric of BENCHMARK.json
// (a layer row a per-layer metric), so a renamed metric cannot leave a
// recorded trajectory unreadable.
func TestBenchRecordsMatchRegistry(t *testing.T) {
	data, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var c contract
	if err := json.Unmarshal(data, &c); err != nil {
		t.Fatal(err)
	}
	workloads, metrics, layerMetrics := map[string]bool{}, map[string]bool{}, map[string]bool{}
	for _, w := range c.Workloads {
		workloads[w.Name] = true
	}
	for _, m := range c.EndToEnd {
		metrics[m.Name] = true
	}
	for _, m := range c.PerLayer {
		layerMetrics[m.Name] = true
	}
	files, err := filepath.Glob("../../BENCH_*.json")
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		raw, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		dec := json.NewDecoder(bytes.NewReader(raw))
		dec.DisallowUnknownFields()
		var r record
		if err := dec.Decode(&r); err != nil {
			t.Errorf("%s: %v", f, err)
			continue
		}
		if r.Parent == "" || r.Change == "" || r.Nproc < 1 || r.Go == "" || r.Date == "" || r.Pairs < 1 || len(r.Rows) == 0 {
			t.Errorf("%s: incomplete header or no rows", f)
		}
		for _, row := range r.Rows {
			if !workloads[row.Workload] {
				t.Errorf("%s: workload %q is not in BENCHMARK.json", f, row.Workload)
			}
			if !metrics[row.Metric] {
				t.Errorf("%s: %q is not an end-to-end metric of BENCHMARK.json", f, row.Metric)
			}
			if row.Pairs != r.Pairs || row.Wins < 0 || row.Wins > row.Pairs {
				t.Errorf("%s: %s/%s: %d wins of %d pairs (record: %d pairs)", f, row.Workload, row.Metric, row.Wins, row.Pairs, r.Pairs)
			}
		}
		for _, row := range r.Layers {
			if !workloads[row.Workload] || !layerMetrics[row.Metric] {
				t.Errorf("%s: layer row %s/%s is not a workload and per-layer metric of BENCHMARK.json", f, row.Workload, row.Metric)
			}
		}
	}
	t.Logf("%d BENCH files", len(files))
}

// TestCPUModel reads the host's processor from a /proc/cpuinfo text:
// the first processor's `model name`, `cpu family`, `model` and
// `stepping` values, each "" when that processor has no such line.
func TestCPUModel(t *testing.T) {
	for _, c := range []struct {
		in   string
		want cpuID
	}{
		{"processor\t: 0\nvendor_id\t: AuthenticAMD\ncpu family\t: 26\nmodel\t\t: 2\nmodel name\t: AMD EPYC 7B13\nstepping\t: 1\n\nprocessor\t: 1\ncpu family\t: 25\nmodel\t\t: 9\nmodel name\t: other\nstepping\t: 0\n",
			cpuID{"AMD EPYC 7B13", "26", "2", "1"}},
		// The first processor lacks a field the second has.
		{"processor\t: 0\nmodel\t\t: 85\n\nprocessor\t: 1\nmodel name\t: other\nstepping\t: 4\n", cpuID{model: "85"}},
		{"processor\t: 0\nmodel\t\t: 85\n", cpuID{model: "85"}}, // no model name line (some arm64 kernels)
		{"\nprocessor\t: 0\nmodel name\t: leading blank\n", cpuID{name: "leading blank"}},
		{"", cpuID{}},
	} {
		if got := parseCPUInfo([]byte(c.in)); got != c.want {
			t.Errorf("parseCPUInfo(%q) = %+v, want %+v", c.in, got, c.want)
		}
	}
}

// TestRecordsWithoutCPULoad: the files written before records named
// the host lack the cpu field, and those written before they gave its
// family, model and stepping lack those; all of them still decode,
// with the missing fields empty.
func TestRecordsWithoutCPULoad(t *testing.T) {
	for _, f := range []string{"../../BENCH_48.json", "../../BENCH_49.json", "../../BENCH_50.json"} {
		raw, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		named := !strings.HasSuffix(f, "48.json") && !strings.HasSuffix(f, "49.json")
		if bytes.Contains(raw, []byte(`"cpu"`)) != named || bytes.Contains(raw, []byte(`"cpu_family"`)) {
			t.Fatalf("%s: unexpected cpu fields", f)
		}
		dec := json.NewDecoder(bytes.NewReader(raw))
		dec.DisallowUnknownFields()
		var r record
		if err := dec.Decode(&r); err != nil {
			t.Fatalf("%s: %v", f, err)
		}
		if (r.CPU != "") != named || r.CPUFamily != "" || r.CPUModel != "" || r.CPUStepping != "" || len(r.Rows) == 0 {
			t.Errorf("%s: cpu %q family %q model %q stepping %q, %d rows", f, r.CPU, r.CPUFamily, r.CPUModel, r.CPUStepping, len(r.Rows))
		}
	}
}

// TestWinsCountsPairs: a win is a pair in which the change beat the
// parent run of the same seed, strictly, in the metric's direction.
func TestWinsCountsPairs(t *testing.T) {
	runs := &[2][]float64{{10, 10, 10, 10}, {9, 11, 10, 8}}
	if got := wins(runs, "lower"); got != 2 {
		t.Errorf("lower: %d wins, want 2", got)
	}
	if got := wins(runs, "higher"); got != 1 {
		t.Errorf("higher: %d wins, want 1", got)
	}
}

// TestChangesQuoteBenchRows keeps CHANGES.md to the recorded runs: every
// backticked benchcheck table row in a `PR N` entry must be a row of
// BENCH_<N>.json rendered as the table prints it, so a quoted figure
// cannot drift from the file it claims to come from.
func TestChangesQuoteBenchRows(t *testing.T) {
	doc, err := os.ReadFile("../../CHANGES.md")
	if err != nil {
		t.Fatal(err)
	}
	rendered := map[string]map[string]bool{} // PR number -> its rows
	files, err := filepath.Glob("../../BENCH_*.json")
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		raw, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		var r record
		if err := json.Unmarshal(raw, &r); err != nil {
			t.Fatalf("%s: %v", f, err)
		}
		n := strings.TrimSuffix(strings.TrimPrefix(filepath.Base(f), "BENCH_"), ".json")
		rendered[n] = map[string]bool{}
		for _, row := range r.Rows {
			rendered[n][row.String()] = true
		}
	}
	entry := regexp.MustCompile(`^- (?:\*\*)?PR (\d+)\b`)
	quote := regexp.MustCompile("`([a-z0-9-]+ +[a-z0-9_]+(?: +[-+]?[0-9.]+){5}  [a-z]+)`")
	pr, quoted := "", 0
	for n, line := range strings.Split(string(doc), "\n") {
		if m := entry.FindStringSubmatch(line); m != nil {
			pr = m[1]
		}
		for _, m := range quote.FindAllStringSubmatch(line, -1) {
			quoted++
			switch rows, ok := rendered[pr]; {
			case !ok:
				t.Errorf("CHANGES.md:%d quotes a benchcheck row in the entry of PR %q, which has no BENCH_%s.json:\n%s", n+1, pr, pr, m[1])
			case !rows[m[1]]:
				t.Errorf("CHANGES.md:%d quotes a row that BENCH_%s.json does not render:\n%s", n+1, pr, m[1])
			}
		}
	}
	if quoted == 0 {
		t.Fatal("CHANGES.md quotes no benchcheck row")
	}
	t.Logf("%d quoted rows", quoted)
}
