package main

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// server is one cmd/minserve process listening on loopback.
type server struct {
	cmd  *exec.Cmd
	base string // "http://127.0.0.1:port"
	done chan struct{}
}

// startServer launches minserve on an ephemeral loopback port with its
// job plane checkpointing under jobsDir, and returns once GET
// /v1/healthz first answers 200. The returned duration runs from the
// spawn to that answer: the server's set-up time as a client sees it.
func startServer(bin, jobsDir string) (*server, time.Duration, error) {
	t0 := time.Now()
	cmd := exec.Command(bin, "-addr", "127.0.0.1:0", "-jobs-dir", jobsDir, "-grace", "5s")
	cmd.Stderr = os.Stderr
	// Should the benchmark die without stopping it, the server dies too.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, 0, err
	}
	if err := cmd.Start(); err != nil {
		return nil, 0, fmt.Errorf("start %s: %w", bin, err)
	}
	s := &server{cmd: cmd, done: make(chan struct{})}
	lines := bufio.NewReader(out)
	addr := make(chan string, 1)
	go func() {
		defer close(s.done)
		// A read error leaves line short of the listen prefix, which the
		// caller reports; the exit status of a server we stop is moot.
		line, _ := lines.ReadString('\n')
		addr <- line
		_, _ = io.Copy(io.Discard, lines)
		_ = cmd.Wait()
	}()
	var line string
	select {
	case line = <-addr:
	case <-time.After(30 * time.Second):
		s.stop()
		return nil, 0, errors.New("minserve printed no listen address within 30s")
	}
	const prefix = "minserve listening on "
	if !strings.HasPrefix(line, prefix) {
		s.stop()
		return nil, 0, fmt.Errorf("minserve did not start: %q", line)
	}
	s.base = strings.TrimSpace(strings.TrimPrefix(line, prefix))
	client := &http.Client{Timeout: time.Second}
	for deadline := t0.Add(30 * time.Second); ; {
		resp, err := client.Get(s.base + "/v1/healthz")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				break
			}
		}
		if time.Now().After(deadline) {
			s.stop()
			return nil, 0, fmt.Errorf("minserve at %s never became healthy: %v", s.base, err)
		}
		sleepUntil(time.Now().Add(100 * time.Microsecond))
	}
	client.CloseIdleConnections()
	return s, time.Since(t0), nil
}

// stop asks the server to drain and exit, kills it if it has not
// exited after 15s, and waits until the process is gone.
func (s *server) stop() {
	_ = s.cmd.Process.Signal(syscall.SIGTERM) // fails only if it already exited
	select {
	case <-s.done:
	case <-time.After(15 * time.Second):
		_ = s.cmd.Process.Kill()
		<-s.done
	}
}

// peakRSSMiB reads the server's resident-set high-water mark (VmHWM)
// from /proc, so caches and work moved into set-up show up as memory
// without the generator's own footprint.
func (s *server) peakRSSMiB() (float64, error) {
	data, err := os.ReadFile(filepath.Join("/proc", strconv.Itoa(s.cmd.Process.Pid), "status"))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parse VmHWM %q: %w", line, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("no VmHWM line in /proc status")
}

// scrape reads GET /metrics into sample name (labels included, as
// exposed) → value.
func (s *server) scrape(ctx context.Context) (map[string]float64, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, s.base+"/metrics", nil)
	if err != nil {
		return nil, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return nil, fmt.Errorf("scrape /metrics: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("scrape /metrics: status %d", resp.StatusCode)
	}
	m := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
			m[line[:i]] = v
		}
	}
	return m, sc.Err()
}

// setUp spawns the server `spawns` times from scratch, each with a
// fresh job directory, and keeps the last one running. It returns the
// kept server and the median set-up time in seconds.
func setUp(bin, scratch string, spawns int) (*server, float64, error) {
	var times []float64
	for i := 0; ; i++ {
		dir := filepath.Join(scratch, fmt.Sprintf("jobs-%d", i))
		s, d, err := startServer(bin, dir)
		if err != nil {
			return nil, 0, err
		}
		times = append(times, d.Seconds())
		if i == spawns-1 {
			return s, median(times), nil
		}
		s.stop()
	}
}
