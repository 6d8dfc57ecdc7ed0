package main

import (
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
)

// launcherEnv marks the test binary re-executed as peakRSS's launcher
// (rss_linux_test.go), which runs a tool it is given and needs no build.
const launcherEnv = "E9TOOL_TEST_RSS_LAUNCHER"

// tool is the e9tool binary every test here runs, built once by TestMain.
var tool string

func TestMain(m *testing.M) {
	if os.Getenv(launcherEnv) != "" {
		os.Exit(m.Run())
	}
	dir, err := os.MkdirTemp("", "e9tool-test-")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	tool = filepath.Join(dir, "e9tool")
	code := 1
	if out, err := exec.Command("go", "build", "-o", tool, ".").CombinedOutput(); err != nil {
		fmt.Fprintf(os.Stderr, "go build e9tool: %v\n%s", err, out)
	} else {
		code = m.Run()
	}
	os.RemoveAll(dir)
	os.Exit(code)
}
