package main

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// buildAgenpd compiles cmd/agenpd into a fresh temporary directory under
// the checkout's .bench_build. The caller removes the directory. The
// build runs in its own process group, so cancelling it stops the
// compiler and linker children too.
func buildAgenpd(ctx context.Context, root string) (bin, dir string, err error) {
	base := filepath.Join(root, ".bench_build")
	if err := os.MkdirAll(base, 0o755); err != nil {
		return "", "", err
	}
	dir, err = os.MkdirTemp(base, "agenpd-")
	if err != nil {
		return "", "", err
	}
	bin = filepath.Join(dir, "agenpd")
	cmd := exec.CommandContext(ctx, "go", "build", "-o", bin, "./cmd/agenpd")
	cmd.Dir = root
	cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true, Pdeathsig: syscall.SIGKILL}
	cmd.Cancel = func() error { return syscall.Kill(-cmd.Process.Pid, syscall.SIGKILL) }
	var out bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &out
	if err := cmd.Run(); err != nil {
		os.RemoveAll(dir)
		return "", "", fmt.Errorf("building agenpd: %w\n%s", err, out.String())
	}
	return bin, dir, nil
}

// daemon is a running agenpd in its own process group. Pdeathsig kills
// it if the benchmark dies without running its clean-up; every other
// exit path calls stop.
type daemon struct {
	pgid int
	addr string // metrics/decide listener, host:port
	// done is closed once the process has been waited for.
	done    chan struct{}
	stopped bool
}

// readyTimeout bounds agenpd's start-up round (coalition set-up, policy
// sharing and one adaptation).
const readyTimeout = 30 * time.Second

// startDaemon starts agenpd serving /decide on a loopback port and
// waits until its start-up round is complete.
func startDaemon(ctx context.Context, bin string) (*daemon, error) {
	cmd := exec.Command(bin, "-metrics", "127.0.0.1:0")
	cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true, Pdeathsig: syscall.SIGKILL}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	// agenpd inherits the mask of the thread that starts it: all of its
	// threads run on one CPU, which the closed-loop client shares.
	runtime.LockOSThread()
	unpin := pinThread()
	err = cmd.Start()
	unpin()
	runtime.UnlockOSThread()
	if err != nil {
		return nil, fmt.Errorf("starting agenpd: %w", err)
	}
	d := &daemon{pgid: cmd.Process.Pid, done: make(chan struct{})}
	addrc := make(chan string, 1)
	readyc := make(chan struct{})
	go func() {
		// Drain stdout until agenpd exits, then reap it; Wait must
		// follow the last read from the pipe.
		sc := bufio.NewScanner(stdout)
		ready := false
		for sc.Scan() {
			line := sc.Text()
			if a, ok := strings.CutPrefix(line, "metrics listening on http://"); ok {
				select {
				case addrc <- strings.TrimSuffix(a, "/metrics"):
				default:
				}
			}
			if !ready && strings.HasPrefix(line, "round complete") {
				ready = true
				close(readyc)
			}
		}
		_ = cmd.Wait()
		close(d.done)
	}()
	timer := time.NewTimer(readyTimeout)
	defer timer.Stop()
	for {
		select {
		case a := <-addrc:
			d.addr = a
		case <-readyc:
			if d.addr == "" {
				d.stop()
				return nil, errors.New("agenpd ready without a metrics address")
			}
			return d, nil
		case <-d.done:
			return nil, fmt.Errorf("agenpd exited during start-up: %s", strings.TrimSpace(stderr.String()))
		case <-timer.C:
			d.stop()
			return nil, errors.New("agenpd not ready within " + readyTimeout.String())
		case <-ctx.Done():
			d.stop()
			return nil, ctx.Err()
		}
	}
}

// stop signals agenpd's process group, waits for agenpd to exit, and
// fails if any process of the group is still alive afterwards.
func (d *daemon) stop() error {
	if d.stopped {
		return nil
	}
	d.stopped = true
	_ = syscall.Kill(-d.pgid, syscall.SIGTERM)
	select {
	case <-d.done:
	case <-time.After(5 * time.Second):
		_ = syscall.Kill(-d.pgid, syscall.SIGKILL)
		<-d.done
	}
	return groupGone(d.pgid)
}

// groupGone reports an error while any process of the group survives.
// A process that has exited but not yet been reaped by its parent is
// gone for this purpose.
func groupGone(pgid int) error {
	deadline := time.Now().Add(2 * time.Second)
	for {
		alive := aliveInGroup(pgid)
		if len(alive) == 0 {
			return nil
		}
		if time.Now().After(deadline) {
			_ = syscall.Kill(-pgid, syscall.SIGKILL)
			return fmt.Errorf("processes %v of agenpd's group %d survived shutdown", alive, pgid)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// aliveInGroup lists the live (non-zombie) processes of a process group.
func aliveInGroup(pgid int) []int {
	entries, err := os.ReadDir("/proc")
	if err != nil {
		return nil
	}
	var pids []int
	for _, e := range entries {
		pid, err := strconv.Atoi(e.Name())
		if err != nil {
			continue
		}
		data, err := os.ReadFile(filepath.Join("/proc", e.Name(), "stat"))
		if err != nil {
			continue
		}
		s := string(data)
		i := strings.LastIndexByte(s, ')')
		if i < 0 {
			continue
		}
		// After the command name: state, ppid, pgrp.
		f := strings.Fields(s[i+1:])
		if len(f) < 3 || f[0] == "Z" {
			continue
		}
		if g, err := strconv.Atoi(f[2]); err == nil && g == pgid {
			pids = append(pids, pid)
		}
	}
	return pids
}
