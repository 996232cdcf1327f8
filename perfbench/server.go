package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// Deployment shape shared by the subprocess server and the in-process
// traced stack: two API-key tenants weighted 2:1, an HTEX over the process
// provider with the real worker binary, and a queue deep enough that the
// saturate phase is never shed.
const (
	serviceWorkers = 16     // concurrent runs (serve -workers)
	workersPerNode = 8      // concurrent tasks per worker process
	queueDepth     = 100000 // serve -queue
	// resultCache is serve's default -result-cache capacity, which the
	// subprocess server keeps by not passing the flag.
	resultCache = 1024
)

var (
	tenantNames = [2]string{"acme", "globex"}
	tenantKeys  = [2]string{"acme-bench-key", "globex-bench-key"}
	tenantWts   = [2]int{2, 1}
)

func tenantYAML() string {
	var b strings.Builder
	b.WriteString("tenants:\n")
	for i := range tenantNames {
		fmt.Fprintf(&b, "  - name: %s\n    key: %s\n    weight: %d\n", tenantNames[i], tenantKeys[i], tenantWts[i])
	}
	return b.String()
}

func executorYAML(workerBin string) string {
	return fmt.Sprintf("executor: htex\nprovider: process\nworker-cmd: %s\nworkers-per-node: %d\nnodes: 1\n", workerBin, workersPerNode)
}

// server is one parsl-cwl-serve subprocess with its own fresh data and work
// directories under dir.
type server struct {
	cmd    *exec.Cmd
	dir    string
	base   string
	setup  time.Duration
	stderr *tailBuffer
	exited chan struct{}
}

// startServer execs parsl-cwl-serve and returns once /healthz reports a
// connected manager; setup is the time from exec to that point.
func startServer(binDir, dir string) (*server, error) {
	for _, d := range []string{"data", "work", "tmp"} {
		if err := os.MkdirAll(filepath.Join(dir, d), 0o755); err != nil {
			return nil, err
		}
	}
	tenants := filepath.Join(dir, "tenants.yml")
	config := filepath.Join(dir, "executor.yml")
	if err := os.WriteFile(tenants, []byte(tenantYAML()), 0o644); err != nil {
		return nil, err
	}
	if err := os.WriteFile(config, []byte(executorYAML(filepath.Join(binDir, "parsl-cwl-worker"))), 0o644); err != nil {
		return nil, err
	}
	cmd := exec.Command(filepath.Join(binDir, "parsl-cwl-serve"),
		"-addr", "127.0.0.1:0",
		"-config", config,
		"-tenant-config", tenants,
		"-data-dir", filepath.Join(dir, "data"),
		"-work-dir", filepath.Join(dir, "work"),
		"-workers", strconv.Itoa(serviceWorkers),
		"-queue", strconv.Itoa(queueDepth),
	)
	cmd.Env = serverEnv(binDir, filepath.Join(dir, "tmp"))
	cmd.Dir = dir
	s := &server{cmd: cmd, dir: dir, stderr: &tailBuffer{max: 8 << 10}, exited: make(chan struct{})}
	cmd.Stderr = s.stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting parsl-cwl-serve: %w", err)
	}
	addr := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			line := sc.Text()
			if i := strings.Index(line, "listening on http://"); i >= 0 {
				f := strings.Fields(line[i+len("listening on http://"):])
				if len(f) > 0 {
					select {
					case addr <- f[0]:
					default:
					}
				}
			}
		}
		_, _ = io.Copy(io.Discard, stdout)
	}()
	go func() {
		_ = cmd.Wait()
		close(s.exited)
	}()
	select {
	case a := <-addr:
		s.base = "http://" + a
	case <-s.exited:
		return nil, fmt.Errorf("parsl-cwl-serve exited during start-up: %s", s.stderr.String())
	case <-time.After(60 * time.Second):
		s.kill()
		return nil, fmt.Errorf("parsl-cwl-serve did not report its address: %s", s.stderr.String())
	}
	probe := newClient(s.base, tenantKeys, 1)
	defer probe.close()
	if err := waitHealthy(probe, time.Now().Add(60*time.Second)); err != nil {
		s.kill()
		return nil, err
	}
	s.setup = time.Since(start)
	return s, nil
}

// serverEnv puts the benchmark's binaries (imgtool) first on PATH and keeps
// temporary files inside the checkout.
func serverEnv(binDir, tmp string) []string {
	env := []string{"PATH=" + binDir + string(os.PathListSeparator) + os.Getenv("PATH"), "TMPDIR=" + tmp}
	for _, kv := range os.Environ() {
		if !strings.HasPrefix(kv, "PATH=") && !strings.HasPrefix(kv, "TMPDIR=") {
			env = append(env, kv)
		}
	}
	return env
}

// peakRSSMiB reads the server's VmHWM (peak resident set) in MiB.
func (s *server) peakRSSMiB() (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) >= 1 {
				kb, err := strconv.ParseFloat(f[0], 64)
				return kb / 1024, err
			}
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", s.cmd.Process.Pid)
}

// stop drains the server with SIGTERM and waits for it to exit, killing it
// if the drain overruns.
func (s *server) stop() {
	_ = s.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-s.exited:
	case <-time.After(45 * time.Second):
		s.kill()
	}
}

func (s *server) kill() {
	_ = s.cmd.Process.Kill()
	<-s.exited
}

// tailBuffer keeps the last max bytes written to it (server stderr, for
// error reports).
type tailBuffer struct {
	mu  sync.Mutex
	max int
	buf bytes.Buffer
}

func (t *tailBuffer) Write(p []byte) (int, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.buf.Write(p)
	if over := t.buf.Len() - t.max; over > 0 {
		t.buf.Next(over)
	}
	return len(p), nil
}

func (t *tailBuffer) String() string {
	t.mu.Lock()
	defer t.mu.Unlock()
	return strings.TrimSpace(t.buf.String())
}
