package main

import (
	"bufio"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"syscall"
	"testing"
	"time"
)

// TestInterruptLeavesNoAgenpd interrupts a serve run once agenpd is up
// and checks that the benchmark exits non-zero without a result and
// that no agenpd survives it.
func TestInterruptLeavesNoAgenpd(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs agenpd")
	}
	root, err := filepath.Abs("..")
	if err != nil {
		t.Fatal(err)
	}
	bin := filepath.Join(t.TempDir(), "perfbench")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("building the benchmark: %v\n%s", err, out)
	}
	for _, sig := range []syscall.Signal{syscall.SIGINT, syscall.SIGTERM} {
		t.Run(sig.String(), func(t *testing.T) {
			cmd := exec.Command(bin, "-root", root, "--workload", "serve", "--seed", "1", "--seconds", "30")
			stderr, err := cmd.StderrPipe()
			if err != nil {
				t.Fatal(err)
			}
			var stdout strings.Builder
			cmd.Stdout = &stdout
			if err := cmd.Start(); err != nil {
				t.Fatal(err)
			}
			// Wait until the run is measuring against its last agenpd.
			ready := regexp.MustCompile(`agenpd pid (\d+) ready`)
			var pids []int
			sc := bufio.NewScanner(stderr)
			for len(pids) < 3 && sc.Scan() {
				if m := ready.FindStringSubmatch(sc.Text()); m != nil {
					pid, _ := strconv.Atoi(m[1])
					pids = append(pids, pid)
				}
			}
			if len(pids) < 3 {
				_ = cmd.Process.Kill()
				_ = cmd.Wait()
				t.Fatalf("benchmark started %d agenpd before its output ended", len(pids))
			}
			time.Sleep(300 * time.Millisecond)
			if err := cmd.Process.Signal(sig); err != nil {
				t.Fatal(err)
			}
			go func() { _, _ = io.Copy(io.Discard, stderr) }()
			waited := make(chan error, 1)
			go func() { waited <- cmd.Wait() }()
			select {
			case err = <-waited:
			case <-time.After(30 * time.Second):
				_ = cmd.Process.Kill()
				t.Fatal("benchmark did not exit within 30s of the signal")
			}
			if err == nil {
				t.Error("interrupted run exited 0")
			}
			if strings.Contains(stdout.String(), `"correct"`) {
				t.Errorf("interrupted run printed a result:\n%s", stdout.String())
			}
			for _, pid := range pids {
				if alive := aliveInGroup(pid); len(alive) > 0 {
					t.Errorf("agenpd group %d still has processes %v", pid, alive)
				}
				if data, err := os.ReadFile("/proc/" + strconv.Itoa(pid) + "/stat"); err == nil && !strings.Contains(string(data), ") Z ") {
					t.Errorf("agenpd %d still running: %s", pid, data)
				}
			}
		})
	}
}

// TestOutsideCheckoutFails runs the benchmark where the module it
// measures is absent: it must fail without printing a result.
func TestOutsideCheckoutFails(t *testing.T) {
	var stdout, stderr strings.Builder
	code := mainCode([]string{"-root", t.TempDir(), "--workload", "learn", "--seconds", "1"}, &stdout, &stderr)
	if code == 0 {
		t.Error("run outside a checkout exited 0")
	}
	if stdout.Len() != 0 {
		t.Errorf("run outside a checkout printed %q", stdout.String())
	}
}
