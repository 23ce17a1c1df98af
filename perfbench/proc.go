package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"time"
)

// usage is what one child process cost, from its rusage.
type usage struct {
	wall   time.Duration
	cpu    time.Duration // user + system
	rssMiB float64       // peak resident set size
}

// fromState fills the CPU and peak-RSS fields from an exited process.
func (u *usage) fromState(cmd *exec.Cmd) {
	ps := cmd.ProcessState
	if ps == nil {
		return
	}
	u.cpu = ps.UserTime() + ps.SystemTime()
	if ru, ok := ps.SysUsage().(*syscall.Rusage); ok {
		u.rssMiB = float64(ru.Maxrss) / 1024 // Linux reports KiB
	}
}

// newCmd prepares a child that is killed when ctx ends and reaped
// within a bounded time after that, with its standard error captured
// for the failure message.
func newCmd(ctx context.Context, bin string, args []string, stdout io.Writer, stderr *bytes.Buffer) *exec.Cmd {
	cmd := exec.CommandContext(ctx, bin, args...)
	cmd.Stdout = stdout
	cmd.Stderr = stderr
	cmd.WaitDelay = 5 * time.Second
	return cmd
}

// runCmd runs bin to completion, writing its standard output to stdout,
// and returns its wall time, CPU time and peak RSS.
func runCmd(ctx context.Context, bin string, args []string, stdout io.Writer) (usage, error) {
	var stderr bytes.Buffer
	cmd := newCmd(ctx, bin, args, stdout, &stderr)
	start := time.Now()
	err := cmd.Run()
	u := usage{wall: time.Since(start)}
	u.fromState(cmd)
	if err != nil {
		return u, cmdError(bin, err, &stderr)
	}
	return u, nil
}

// cmdError names the failed command and quotes the last line it wrote
// to standard error.
func cmdError(bin string, err error, stderr *bytes.Buffer) error {
	last := strings.TrimSpace(stderr.String())
	if i := strings.LastIndexByte(last, '\n'); i >= 0 {
		last = last[i+1:]
	}
	return fmt.Errorf("%s: %v: %s", filepath.Base(bin), err, last)
}
