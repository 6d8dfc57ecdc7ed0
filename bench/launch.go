package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"syscall"
	"time"
)

// The cli workload runs e9tool through a launcher, this binary under
//
//	bench -launch TOOL ARGS...
//
// which starts TOOL, times it from fork to exit and prints its rusage and
// output as JSON. It exists because Linux folds the *starting* process's
// peak RSS into a child's ru_maxrss at exec: started from the harness,
// which holds the 120 MB input and its reference output, e9tool could
// never report a peak below the harness's own. The launcher's peak is a
// few megabytes.

// childRun is one e9tool invocation as its launcher saw it.
type childRun struct {
	WallMs float64 `json:"wall_ms"`
	UserMs float64 `json:"user_ms"`
	SysMs  float64 `json:"sys_ms"`
	PeakMB float64 `json:"peak_mb"`
	Minflt int64   `json:"minflt"`
	Stdout string  `json:"stdout"`
	Err    string  `json:"err,omitempty"`
}

// launchMain is the launcher: it runs args and writes a childRun to w.
func launchMain(args []string, w io.Writer) error {
	if len(args) == 0 {
		return fmt.Errorf("usage: -launch TOOL ARGS...")
	}
	var r childRun
	cmd := exec.Command(args[0], args[1:]...)
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	start := time.Now()
	err := cmd.Run()
	r.WallMs = msOf(time.Since(start))
	r.Stdout = stdout.String()
	if err != nil {
		r.Err = fmt.Sprintf("%v: %s", err, stderr.Bytes())
	} else if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		r.UserMs, r.SysMs = tvMs(ru.Utime), tvMs(ru.Stime)
		r.PeakMB, r.Minflt = float64(ru.Maxrss)/1024, ru.Minflt
	} else {
		r.Err = "no rusage for the child on this platform"
	}
	return json.NewEncoder(w).Encode(r)
}

// launch runs tool through the launcher.
func launch(tool string, args ...string) (childRun, error) {
	var r childRun
	exe, err := os.Executable()
	if err != nil {
		return r, err
	}
	cmd := exec.Command(exe, append([]string{"-launch", tool}, args...)...)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return r, fmt.Errorf("launcher: %w", err)
	}
	if err := json.Unmarshal(out, &r); err != nil {
		return r, fmt.Errorf("the launcher printed %q: %w", out, err)
	}
	if r.Err != "" {
		return r, fmt.Errorf("%s: %s", tool, r.Err)
	}
	return r, nil
}
