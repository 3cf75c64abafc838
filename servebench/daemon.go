package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
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

	"repro/internal/obs"
)

// daemon is one ninecd child process with default flags, listening on
// a kernel-chosen loopback port.
type daemon struct {
	cmd    *exec.Cmd
	base   string // http://host:port
	stderr *lockedBuffer
	done   chan struct{} // closed once the process has been reaped
}

// lockedBuffer collects the child's stderr for error reports.
type lockedBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (l *lockedBuffer) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.Write(p)
}

func (l *lockedBuffer) String() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.String()
}

// startDaemon execs bin and waits until /healthz answers. The child is
// killed if this process dies first.
func startDaemon(ctx context.Context, bin string) (*daemon, error) {
	cmd := exec.Command(bin, "-addr", "127.0.0.1:0")
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	pipe, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start ninecd: %w", err)
	}
	d := &daemon{cmd: cmd, stderr: &lockedBuffer{}, done: make(chan struct{})}
	addr := make(chan string, 1)
	go func() {
		// The daemon logs its listen address on stderr; the rest of its
		// stderr is kept for error reports until the pipe closes.
		sc := bufio.NewScanner(pipe)
		for sc.Scan() {
			line := sc.Text()
			d.stderr.Write([]byte(line + "\n"))
			if i := strings.Index(line, "listening on "); i >= 0 {
				select {
				case addr <- strings.TrimSpace(line[i+len("listening on "):]):
				default:
				}
			}
		}
		io.Copy(io.Discard, pipe)
		cmd.Wait()
		close(d.done)
	}()
	select {
	case a := <-addr:
		d.base = "http://" + a
	case <-d.done:
		return nil, fmt.Errorf("ninecd exited before listening: %s", d.stderr.String())
	case <-time.After(30 * time.Second):
		d.stop()
		return nil, fmt.Errorf("ninecd did not report a listen address: %s", d.stderr.String())
	case <-ctx.Done():
		d.stop()
		return nil, ctx.Err()
	}
	for {
		resp, err := http.Get(d.base + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, nil
			}
		}
		select {
		case <-d.done:
			return nil, fmt.Errorf("ninecd exited before ready: %s", d.stderr.String())
		case <-ctx.Done():
			d.stop()
			return nil, ctx.Err()
		case <-time.After(2 * time.Millisecond):
		}
	}
}

// stop sends SIGTERM, and SIGKILL if the drain outlasts 20s, and
// returns once the process has been reaped.
func (d *daemon) stop() {
	d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.done:
	case <-time.After(20 * time.Second):
		d.cmd.Process.Kill()
		<-d.done
	}
}

// cpuTicks returns the daemon's utime+stime in clock ticks.
func (d *daemon) cpuTicks() (int64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesized command name; utime and stime are
	// fields 14 and 15 of the whole line.
	rest := string(data[bytes.LastIndexByte(data, ')')+1:])
	f := strings.Fields(rest)
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc stat line")
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("parse /proc stat: %v %v", err1, err2)
	}
	return ut + st, nil
}

// clockTick is USER_HZ, the unit of /proc/<pid>/stat CPU times; it is
// 100 on every Linux architecture Go supports.
const clockTick = 10 * time.Millisecond

// peakRSSMB returns VmHWM, the daemon's peak resident set, in MiB.
func (d *daemon) peakRSSMB() (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(f[1], 64)
			return kb / 1024, err
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc status")
}

// scrape fetches the daemon's /metrics.json snapshot.
func (d *daemon) scrape(hc *http.Client) (*obs.Snapshot, error) {
	resp, err := hc.Get(d.base + "/metrics.json")
	if err != nil {
		return nil, fmt.Errorf("scrape: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("scrape: status %d", resp.StatusCode)
	}
	var s obs.Snapshot
	if err := json.NewDecoder(resp.Body).Decode(&s); err != nil {
		return nil, fmt.Errorf("scrape: %w", err)
	}
	return &s, nil
}
