package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

const (
	// readyTimeout bounds the wait for a launched daemon to answer; the
	// fixture dataset generates in well under a second.
	readyTimeout = 30 * time.Second
	// stopGrace is how long a daemon may take to drain after SIGTERM before
	// it is killed and the run is failed.
	stopGrace = 10 * time.Second
	// pollEvery is the readiness and status polling period.
	pollEvery = 5 * time.Millisecond
)

// buildDaemon compiles ./cmd/deepsketchd from the checkout in the current
// directory into dir and returns the binary's path and the compile time,
// which is reported beside setup_s, never inside it.
func buildDaemon(ctx context.Context, dir string) (string, time.Duration, error) {
	if _, err := os.Stat(filepath.Join("cmd", "deepsketchd")); err != nil {
		return "", 0, fmt.Errorf("run from the root of the deepsketch checkout: %w", err)
	}
	bin := filepath.Join(dir, "deepsketchd")
	start := time.Now()
	cmd := exec.CommandContext(ctx, "go", "build", "-o", bin, "./cmd/deepsketchd")
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", 0, fmt.Errorf("go build ./cmd/deepsketchd: %w\n%s", err, out)
	}
	return bin, time.Since(start), nil
}

// freePort asks the kernel for an unused loopback port by binding :0 and
// releasing it. The daemon logs its -addr flag, not the address it bound,
// so the port has to be chosen before launch.
func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	port := l.Addr().(*net.TCPAddr).Port
	if err := l.Close(); err != nil {
		return 0, err
	}
	return port, nil
}

// daemon is one deepsketchd subprocess.
type daemon struct {
	cmd     *exec.Cmd
	stop    context.CancelFunc
	base    string // http://127.0.0.1:<port>
	logPath string
	started time.Time
}

// startDaemon launches bin on a free loopback port with the extra flags and
// returns once it answers HTTP. A daemon that exits first, or a port that
// does not come up, is an error: nothing is retried.
func startDaemon(ctx context.Context, bin, dir string, extra []string) (*daemon, error) {
	port, err := freePort()
	if err != nil {
		return nil, fmt.Errorf("picking a loopback port: %w", err)
	}
	logPath := filepath.Join(dir, fmt.Sprintf("deepsketchd-%d.log", port))
	logFile, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	defer logFile.Close()

	dctx, stop := context.WithCancel(ctx)
	args := append([]string{"-addr", "127.0.0.1:" + strconv.Itoa(port)}, extra...)
	cmd := exec.CommandContext(dctx, bin, args...)
	cmd.Stdout, cmd.Stderr = logFile, logFile
	// Cancelling the context asks for the daemon's graceful shutdown; it is
	// killed only when it has not exited stopGrace later.
	cmd.Cancel = func() error { return cmd.Process.Signal(syscall.SIGTERM) }
	cmd.WaitDelay = stopGrace
	started := time.Now()
	if err := cmd.Start(); err != nil {
		stop()
		return nil, fmt.Errorf("starting %s: %w", bin, err)
	}
	d := &daemon{cmd: cmd, stop: stop, base: "http://127.0.0.1:" + strconv.Itoa(port), logPath: logPath, started: started}
	if err := d.waitReady(ctx); err != nil {
		return nil, errors.Join(err, d.Stop())
	}
	return d, nil
}

// waitReady polls the daemon's sketch list until it answers.
func (d *daemon) waitReady(ctx context.Context) error {
	c := newClient(d.base)
	defer c.close()
	deadline := time.Now().Add(readyTimeout)
	for {
		if status, _, err := c.do(ctx, "GET", "/api/sketches", nil); err == nil && status == 200 {
			return nil
		}
		if state, err := d.procState(); err != nil || state == "Z" {
			return fmt.Errorf("deepsketchd exited before it listened on %s:\n%s", d.base, d.logTail())
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("deepsketchd did not answer on %s within %v:\n%s", d.base, readyTimeout, d.logTail())
		}
		if err := sleepCtx(ctx, pollEvery); err != nil {
			return err
		}
	}
}

// Stop sends SIGTERM, waits for the daemon to exit and reports anything
// but a clean shutdown: a daemon that had to be killed, or that exited
// non-zero, fails the run.
func (d *daemon) Stop() error {
	d.stop()
	// After a cancel Wait returns the context's error even for a clean exit;
	// the process state is what tells a drained daemon from a killed one.
	_ = d.cmd.Wait()
	ps := d.cmd.ProcessState
	if ps == nil || !ps.Success() {
		return fmt.Errorf("deepsketchd did not shut down cleanly (%v):\n%s", ps, d.logTail())
	}
	return nil
}

func (d *daemon) pid() int { return d.cmd.Process.Pid }

// procState returns the process state letter from /proc/<pid>/stat.
func (d *daemon) procState() (string, error) {
	fields, err := d.statFields()
	if err != nil {
		return "", err
	}
	return fields[0], nil
}

// statFields returns /proc/<pid>/stat split after the parenthesised
// command name, so index 0 is field 3 (state) of proc(5).
func (d *daemon) statFields() ([]string, error) {
	blob, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", d.pid()))
	if err != nil {
		return nil, err
	}
	i := bytes.LastIndexByte(blob, ')')
	if i < 0 {
		return nil, fmt.Errorf("malformed /proc/%d/stat", d.pid())
	}
	fields := strings.Fields(string(blob[i+1:]))
	if len(fields) < 13 {
		return nil, fmt.Errorf("short /proc/%d/stat", d.pid())
	}
	return fields, nil
}

// cpuSeconds returns the daemon's user+system CPU time so far.
func (d *daemon) cpuSeconds() (float64, error) {
	fields, err := d.statFields()
	if err != nil {
		return 0, err
	}
	// utime and stime are fields 14 and 15 of proc(5), in clock ticks;
	// Linux fixes USER_HZ at 100 for every architecture Go supports.
	utime, err1 := strconv.ParseFloat(fields[11], 64)
	stime, err2 := strconv.ParseFloat(fields[12], 64)
	if err := errors.Join(err1, err2); err != nil {
		return 0, err
	}
	return (utime + stime) / 100, nil
}

// peakRSSMB returns the daemon's resident-set high-water mark (VmHWM).
func (d *daemon) peakRSSMB() (float64, error) {
	blob, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", d.pid()))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(blob), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parsing %q: %w", line, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", d.pid())
}

// logTail returns the end of the daemon's log, for error messages.
func (d *daemon) logTail() string {
	blob, err := os.ReadFile(d.logPath)
	if err != nil {
		return err.Error()
	}
	const keep = 2000
	if len(blob) > keep {
		blob = blob[len(blob)-keep:]
	}
	return string(blob)
}

// sleepCtx waits for d or for ctx to end.
func sleepCtx(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}
