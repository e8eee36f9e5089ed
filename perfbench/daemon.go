package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// daemon is one efdd child process serving on a loopback port.
type daemon struct {
	cmd     *exec.Cmd
	base    string // http://127.0.0.1:port
	dataDir string // "" when memory-only
	done    chan struct{}
	waitErr error

	logMu sync.Mutex
	log   []string // last lines of efdd's output, for failure messages

	stopped bool
}

const (
	daemonStartTimeout = 30 * time.Second
	daemonLogLines     = 40
)

// startDaemon starts efdd on 127.0.0.1:0, waits for the main
// listener's "listening" line, then for GET /v1/health to answer 200.
func startDaemon(ctx context.Context, bin, dictPath, dataDir string) (*daemon, error) {
	args := []string{"-dict", dictPath, "-addr", "127.0.0.1:0", "-log-format", "text"}
	if dataDir != "" {
		args = append(args, "-data-dir", dataDir)
	}
	cmd := exec.Command(bin, args...)
	// If the benchmark dies, the kernel kills efdd with it.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	d := &daemon{cmd: cmd, dataDir: dataDir, done: make(chan struct{})}
	addrc := make(chan string, 1)
	lw := &logWriter{d: d, addrc: addrc}
	cmd.Stdout, cmd.Stderr = lw, lw
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start efdd: %w", err)
	}
	go func() {
		d.waitErr = cmd.Wait()
		close(d.done)
	}()

	fail := func(err error) (*daemon, error) {
		d.stop()
		return nil, fmt.Errorf("%w\nefdd output:\n%s", err, d.logTail())
	}
	timer := time.NewTimer(daemonStartTimeout)
	defer timer.Stop()
	select {
	case addr := <-addrc:
		d.base = "http://" + addr
	case <-d.done:
		return fail(fmt.Errorf("efdd exited before listening: %v", d.waitErr))
	case <-timer.C:
		return fail(errors.New("efdd did not log its listening address"))
	case <-ctx.Done():
		return fail(ctx.Err())
	}
	hc := &http.Client{Timeout: time.Second}
	for {
		resp, err := hc.Get(d.base + "/v1/health")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				hc.CloseIdleConnections()
				return d, nil
			}
		}
		select {
		case <-d.done:
			return fail(fmt.Errorf("efdd exited before /v1/health answered: %v", d.waitErr))
		case <-timer.C:
			return fail(errors.New("efdd /v1/health did not answer 200"))
		case <-ctx.Done():
			return fail(ctx.Err())
		case <-time.After(2 * time.Millisecond):
		}
	}
}

// logWriter receives efdd's output (os/exec copies it from one
// goroutine, and Wait waits for the copy), keeps its tail and reports
// the main listener's address from its "listening" line — never the
// "ops listening" one.
type logWriter struct {
	d       *daemon
	addrc   chan<- string
	partial []byte
	found   bool
}

func (lw *logWriter) Write(p []byte) (int, error) {
	lw.partial = append(lw.partial, p...)
	for {
		i := bytes.IndexByte(lw.partial, '\n')
		if i < 0 {
			return len(p), nil
		}
		line := string(lw.partial[:i])
		lw.partial = lw.partial[i+1:]
		lw.d.logMu.Lock()
		lw.d.log = append(lw.d.log, line)
		if len(lw.d.log) > daemonLogLines {
			lw.d.log = lw.d.log[len(lw.d.log)-daemonLogLines:]
		}
		lw.d.logMu.Unlock()
		if !lw.found && strings.Contains(line, " msg=listening ") {
			if j := strings.Index(line, " addr="); j >= 0 {
				lw.found = true
				lw.addrc <- strings.Fields(line[j+len(" addr="):])[0]
			}
		}
	}
}

func (d *daemon) logTail() string {
	d.logMu.Lock()
	defer d.logMu.Unlock()
	return strings.Join(d.log, "\n")
}

// stop kills efdd, waits for it to exit, checks that it is gone and
// removes its data directory. Safe to call more than once.
func (d *daemon) stop() error {
	if d.stopped {
		return nil
	}
	d.stopped = true
	d.cmd.Process.Kill()
	select {
	case <-d.done:
	case <-time.After(10 * time.Second):
		return fmt.Errorf("efdd (pid %d) did not exit after SIGKILL", d.cmd.Process.Pid)
	}
	// The process was reaped by Wait; a live PID now would be a
	// survivor.
	if err := syscall.Kill(d.cmd.Process.Pid, 0); !errors.Is(err, syscall.ESRCH) {
		return fmt.Errorf("efdd (pid %d) still exists after stop", d.cmd.Process.Pid)
	}
	if d.dataDir != "" {
		return os.RemoveAll(d.dataDir)
	}
	return nil
}

// cpuSeconds reads efdd's user+system CPU time from /proc.
func (d *daemon) cpuSeconds() float64 {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", d.cmd.Process.Pid))
	if err != nil {
		return 0
	}
	return procStatCPU(string(raw))
}

// procStatCPU parses utime+stime (fields 14 and 15) of a
// /proc/<pid>/stat line, in seconds at the usual 100 ticks/s.
func procStatCPU(stat string) float64 {
	// The command name (field 2) may contain spaces; fields resume
	// after its closing parenthesis.
	i := strings.LastIndexByte(stat, ')')
	if i < 0 {
		return 0
	}
	f := strings.Fields(stat[i+1:])
	if len(f) < 13 {
		return 0
	}
	ut, _ := strconv.ParseFloat(f[11], 64)
	st, _ := strconv.ParseFloat(f[12], 64)
	return (ut + st) / 100
}

// vmHWM is efdd's peak resident set size, mapped files included.
func (d *daemon) vmHWM() (float64, error) {
	return procStatusMiB(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid), "VmHWM:")
}

// sampleAnonRSS polls efdd's anonymous resident memory (heap, stacks:
// what a deployment provisions) every period until the returned stop
// function is called; stop returns the peak in MiB. VmHWM would also
// count the segment files efdd maps, which grow with every execution
// stored.
func (d *daemon) sampleAnonRSS(period time.Duration) (stop func() float64) {
	path := fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid)
	quit := make(chan struct{})
	peak := make(chan float64)
	go func() {
		max := 0.0
		tick := time.NewTicker(period)
		defer tick.Stop()
		for {
			if v, err := procStatusMiB(path, "RssAnon:"); err == nil && v > max {
				max = v
			}
			select {
			case <-quit:
				peak <- max
				return
			case <-tick.C:
			}
		}
	}()
	return func() float64 {
		close(quit)
		return <-peak
	}
}

// procStatusMiB reads one "<field> <n> kB" line of a /proc status file.
func procStatusMiB(path, field string) (float64, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if rest, ok := strings.CutPrefix(line, field); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parse %s %q: %w", field, rest, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no %s in %s", field, path)
}

// hostSteal reads the machine's stolen and total CPU ticks from the
// first line of /proc/stat (zeros when it cannot be read).
func hostSteal() (steal, total float64) {
	raw, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(raw), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0
	}
	for i, v := range f[1:] {
		x, _ := strconv.ParseFloat(v, 64)
		if i < 8 { // guest time is already counted in user time
			total += x
		}
		if i == 7 {
			steal = x
		}
	}
	return steal, total
}
