package main

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"runtime/debug"
	"strconv"
	"time"

	"e9patch"
	"e9patch/internal/workload"
)

// buildDir holds everything the benchmark writes: the e9tool binary and
// the cli workload's input and output files. It is relative to the
// working directory, which `go run ./bench` leaves at the module root.
const buildDir = ".bench_build"

// The stream profile: a 120 MB binary with 16 MB of Chrome-mix text,
// the ROADMAP's named end-to-end case. BuildStream takes no seed, so
// this workload's input is the same for every seed.
const (
	cliTargetMB = 120
	cliTextMB   = 16
	// cliMinOps is the floor on timed child runs. An op takes two seconds
	// or more, so in a run of ten the floor is also the count: an odd one,
	// so that the median is an op's time and not the mean of two.
	cliMinOps = 15
)

// cliWorkload is cli-120mb: each op is a child process,
// `e9tool -M jump -skip N -o OUT IN`, timed from fork to exit with the
// kernel's rusage for that child.
type cliWorkload struct {
	tool    string  // path of the built e9tool
	buildS  float64 // how long `go build` took (before the set-up clock)
	in, out string
	input   []byte
	skip    uint64
	ref     []byte // the warm-up child's output
	sites   int
}

var matchedRE = regexp.MustCompile(`matched (\d+) of \d+ instructions; patched (\d+)`)

// newCLI builds e9tool from source. That is compilation, not set-up: it
// is timed on its own and reported as harness.build_s.
func newCLI() (*cliWorkload, error) {
	dir := filepath.Join(buildDir, "cli")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	w := &cliWorkload{
		tool: filepath.Join(buildDir, "e9tool"),
		in:   filepath.Join(dir, "in.bin"),
		out:  filepath.Join(dir, "out.bin"),
		skip: workload.StreamSkipPrefix(cliTextMB),
	}
	start := time.Now()
	build := exec.Command("go", "build", "-o", w.tool, "./cmd/e9tool")
	if out, err := build.CombinedOutput(); err != nil {
		return nil, fmt.Errorf("go build ./cmd/e9tool: %v\n%s", err, out)
	}
	w.buildS = time.Since(start).Seconds()
	return w, nil
}

// toolRun is one e9tool run: what its launcher saw and the site counts
// the tool printed.
type toolRun struct {
	childRun
	matched, patched int
}

// runTool runs e9tool on in, writing out, through the launcher (see
// launch.go).
func (w *cliWorkload) runTool(in, out string, skip uint64) (toolRun, error) {
	var r toolRun
	var err error
	r.childRun, err = launch(w.tool, "-M", "jump", "-skip", strconv.FormatUint(skip, 10), "-o", out, in)
	if err != nil {
		return r, err
	}
	m := matchedRE.FindStringSubmatch(r.Stdout)
	if m == nil {
		return r, fmt.Errorf("e9tool printed no summary: %q", r.Stdout)
	}
	r.matched, _ = strconv.Atoi(m[1])
	r.patched, _ = strconv.Atoi(m[2])
	return r, nil
}

func (w *cliWorkload) setup(int64) error {
	prog, err := workload.BuildStream(cliTargetMB, cliTextMB)
	if err != nil {
		return err
	}
	w.input = prog.ELF
	if err := os.WriteFile(w.in, w.input, 0o644); err != nil {
		return err
	}
	r, err := w.runTool(w.in, w.out, w.skip)
	if err != nil {
		return fmt.Errorf("warm-up: %w", err)
	}
	if w.ref, err = os.ReadFile(w.out); err != nil {
		return err
	}
	if err := checkLayout(w.input, w.ref); err != nil {
		return err
	}
	if r.matched == 0 {
		return errors.New("nothing was selected")
	}
	w.sites = r.matched
	return nil
}

func (w *cliWorkload) measure(seconds float64) (*measurement, error) {
	m := &measurement{extra: map[string]float64{}}
	err := rounds(seconds, cliMinOps, func(int) error {
		if err := os.Remove(w.out); err != nil {
			return err
		}
		s := opSample{inBytes: len(w.input)}
		r, err := w.runTool(w.in, w.out, w.skip)
		s.ms = r.WallMs
		// The measured wall is the children's: what the harness does between
		// them (reading and comparing 127 MB) is not the tool's throughput.
		m.wallS += r.WallMs / 1e3
		m.cpuMs += r.UserMs + r.SysMs
		m.peakMB = max(m.peakMB, r.PeakMB)
		var out []byte
		if err == nil {
			out, err = os.ReadFile(w.out)
		}
		switch {
		case err != nil:
			s.why = err.Error()
		case !bytes.Equal(out, w.ref):
			s.why = "the same input gave different bytes"
		case r.matched != w.sites:
			s.why = fmt.Sprintf("%d sites, %d on the warm-up pass", r.matched, w.sites)
		default:
			s.ok = true
			s.outBytes, s.sites, s.patched = len(out), r.matched, r.patched
		}
		m.ops = append(m.ops, s)
		return nil
	})
	return m, err
}

// verify compares the tool's output with the library's on the same
// bytes and the equivalent configuration.
func (w *cliWorkload) verify() error {
	cfg, err := cliConfig(w.skip)
	if err != nil {
		return err
	}
	res, err := e9patch.Rewrite(w.input, cfg)
	if err != nil {
		return fmt.Errorf("library rewrite: %w", err)
	}
	same, total := bytes.Equal(res.Output, w.ref), res.Stats.Total
	// Hand the gigabytes this rewrite took back before any further child
	// runs beside them.
	res = nil
	debug.FreeOSMemory()
	if !same {
		return errors.New("e9tool's output differs from the library's")
	}
	if total != w.sites {
		return fmt.Errorf("e9tool matched %d sites, the library %d", w.sites, total)
	}
	return nil
}

func (w *cliWorkload) info() []string {
	return []string{fmt.Sprintf("stream-%dMB: input %d B sha256 %s, output %d B sha256 %s, %d sites (seed-independent)",
		cliTargetMB, len(w.input), shaHex(w.input), len(w.ref), shaHex(w.ref), w.sites)}
}

func (w *cliWorkload) close() {
	os.Remove(w.in)
	os.Remove(w.out)
}

// startupProbes is how often the 4 KB start-up probe runs.
const startupProbes = 9

func (w *cliWorkload) trace(tr *tracer, cal *calib, m *measurement) (map[string]float64, error) {
	// One more child, under a span, with the kernel's account of it.
	cal.probe()
	id := tr.begin("e9tool.run", -1, 0)
	r, err := w.runTool(w.in, w.out, w.skip)
	tr.endWith(id, map[string]any{"user_ms": r.UserMs, "sys_ms": r.SysMs, "minflt": r.Minflt, "peak_rss_mb": r.PeakMB})
	if err != nil {
		return nil, err
	}

	// Process start on its own: the same binary on the smallest input.
	p, err := workload.ProfileByName("mcf")
	if err != nil {
		return nil, err
	}
	tiny, err := workload.BuildStatic(p, 4096/(p.SizeMB*1e6))
	if err != nil {
		return nil, err
	}
	tinyIn, tinyOut := filepath.Join(buildDir, "cli", "tiny.bin"), filepath.Join(buildDir, "cli", "tiny.out")
	defer os.Remove(tinyIn)
	defer os.Remove(tinyOut)
	if err := os.WriteFile(tinyIn, tiny.ELF, 0o644); err != nil {
		return nil, err
	}
	var startup []float64
	for i := 0; i < startupProbes; i++ {
		id := tr.begin("e9tool.startup", -1, 0)
		sr, err := w.runTool(tinyIn, tinyOut, 0)
		tr.end(id)
		if err != nil {
			return nil, fmt.Errorf("start-up probe: %w", err)
		}
		startup = append(startup, sr.WallMs)
	}

	// The phases of the same rewrite, in process.
	cfg, err := cliConfig(w.skip)
	if err != nil {
		return nil, err
	}
	cal.probe()
	acc := &layerAcc{}
	if err := acc.tracedRewrite(tr, 0, w.input, cfg, w.ref); err != nil {
		return nil, err
	}
	cal.probe()

	got := acc.metrics(tr)
	got["e9tool.user_ms"], got["e9tool.sys_ms"] = r.UserMs, r.SysMs
	got["e9tool.minflt"] = float64(r.Minflt)
	got["e9tool.startup_ms"] = median(startup)
	got["e9tool.out_mb_s"] = float64(len(w.ref)) / 1e6 / (r.WallMs / 1e3)
	got["harness.build_s"] = w.buildS
	return got, harnessMetrics(got, cal, m, r.WallMs, false)
}
