package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// uhmd is one server process the benchmark started.  Its standard output and
// error go to <name>.log in the run directory.
type uhmd struct {
	name    string
	addr    string
	logPath string
	cmd     *exec.Cmd
	log     *os.File
	exited  chan struct{}
}

// startUHMD launches bin with -addr on a free local port and -workers 2 in
// front of args, and waits until ready accepts its /healthz body.  A server
// that exits before answering (its port was taken in between) is retried on
// another port.
func startUHMD(bin, runDir, name string, env []string, ready func([]byte) bool, args ...string) (*uhmd, error) {
	var lastErr error
	for range 3 {
		addr, err := freeAddr()
		if err != nil {
			return nil, err
		}
		s, err := spawn(bin, runDir, name, env, addr, args)
		if err != nil {
			return nil, err
		}
		if lastErr = s.awaitHealthy(ready, 20*time.Second); lastErr == nil {
			return s, nil
		}
		exitedEarly := s.hasExited()
		s.stop()
		if !exitedEarly {
			break
		}
	}
	return nil, fmt.Errorf("starting %s: %w", name, lastErr)
}

func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer l.Close()
	return l.Addr().String(), nil
}

func spawn(bin, runDir, name string, env []string, addr string, args []string) (*uhmd, error) {
	logPath := filepath.Join(runDir, name+".log")
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, append([]string{"-addr", addr, "-workers", "2"}, args...)...)
	cmd.Stdout, cmd.Stderr, cmd.Env = logf, logf, env
	// The kernel kills the server if the benchmark dies without stopping it.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("starting %s: %w", name, err)
	}
	s := &uhmd{name: name, addr: addr, logPath: logPath, cmd: cmd, log: logf, exited: make(chan struct{})}
	go func() {
		_ = cmd.Wait() // the exit status of a server the benchmark stops is not interesting
		close(s.exited)
	}()
	return s, nil
}

func (s *uhmd) url(path string) string { return "http://" + s.addr + path }

func (s *uhmd) pid() int { return s.cmd.Process.Pid }

func (s *uhmd) hasExited() bool {
	select {
	case <-s.exited:
		return true
	default:
		return false
	}
}

// awaitHealthy polls /healthz until ready accepts the body.
func (s *uhmd) awaitHealthy(ready func([]byte) bool, timeout time.Duration) error {
	c := &http.Client{Timeout: time.Second}
	defer c.CloseIdleConnections()
	deadline := time.Now().Add(timeout)
	var buf bytes.Buffer
	for time.Now().Before(deadline) {
		if s.hasExited() {
			return fmt.Errorf("%s exited; see %s", s.name, s.logPath)
		}
		if status, err := get(c, s.url("/healthz"), &buf); err == nil && status == http.StatusOK && ready(buf.Bytes()) {
			return nil
		}
		time.Sleep(2 * time.Millisecond)
	}
	return fmt.Errorf("%s not healthy after %s", s.name, timeout)
}

// stop ends the server with SIGTERM, or SIGKILL when it has not drained in
// ten seconds, and waits for it to exit.
func (s *uhmd) stop() {
	if !s.hasExited() {
		_ = s.cmd.Process.Signal(syscall.SIGTERM) // fails only if it already exited
		select {
		case <-s.exited:
		case <-time.After(10 * time.Second):
			_ = s.cmd.Process.Kill()
			<-s.exited
		}
	}
	s.log.Close()
}

// anyHealth accepts any 200 /healthz answer.
func anyHealth([]byte) bool { return true }

// routerHealth accepts a router /healthz answer once n backends are members.
func routerHealth(n int) func([]byte) bool {
	return func(body []byte) bool {
		var h struct {
			Healthy int `json:"healthy"`
		}
		return json.Unmarshal(body, &h) == nil && h.Healthy == n
	}
}

// fleet is the set of servers one workload runs against: one uhmd, or a
// router in front of backends.
type fleet struct {
	front    *uhmd   // the server clients talk to
	backends []*uhmd // the servers that simulate; front itself when single
	router   *uhmd   // nil when single
}

// launch starts one uhmd (backends == 0) or a router over that many
// backends, each with the given registry budget (0 keeps uhmd's default).
func launch(bin, runDir string, env []string, cacheBytes int64, backends int) (*fleet, error) {
	var extra []string
	if cacheBytes > 0 {
		extra = []string{"-cache-bytes", strconv.FormatInt(cacheBytes, 10)}
	}
	f := &fleet{}
	if backends == 0 {
		s, err := startUHMD(bin, runDir, "uhmd", env, anyHealth, extra...)
		if err != nil {
			return nil, err
		}
		f.front, f.backends = s, []*uhmd{s}
		return f, nil
	}
	var addrs []string
	for i := range backends {
		s, err := startUHMD(bin, runDir, fmt.Sprintf("backend%d", i+1), env, anyHealth, extra...)
		if err != nil {
			f.stop()
			return nil, err
		}
		f.backends = append(f.backends, s)
		addrs = append(addrs, s.addr)
	}
	rt, err := startUHMD(bin, runDir, "router", env, routerHealth(backends),
		"-router", "-backends", strings.Join(addrs, ","))
	if err != nil {
		f.stop()
		return nil, err
	}
	f.front, f.router = rt, rt
	return f, nil
}

// servers lists every process of the fleet.
func (f *fleet) servers() []*uhmd {
	if f.router == nil {
		return f.backends
	}
	return append([]*uhmd{f.router}, f.backends...)
}

func pids(ss []*uhmd) []int {
	var out []int
	for _, s := range ss {
		out = append(out, s.pid())
	}
	return out
}

// stop stops the router first, so it never sees a backend vanish.
func (f *fleet) stop() {
	for _, s := range f.servers() {
		s.stop()
	}
}

// counters are the service counters the benchmark reads from uhmd's
// /v1/stats.
type counters struct {
	Registry struct{ Builds, Bytes, Hits, Misses, Evictions int64 }
	Pool     struct{ Hits, Misses, Discards, Invalidated int64 }
}

// counters sums the backends' counters.
func (f *fleet) counters(c *http.Client) (counters, error) {
	var sum counters
	var buf bytes.Buffer
	for _, s := range f.backends {
		status, err := get(c, s.url("/v1/stats"), &buf)
		if err != nil {
			return sum, err
		}
		if status != http.StatusOK {
			return sum, fmt.Errorf("%s /v1/stats: status %d", s.name, status)
		}
		var st struct{ Stats counters }
		if err := json.Unmarshal(buf.Bytes(), &st); err != nil {
			return sum, fmt.Errorf("%s /v1/stats: %w", s.name, err)
		}
		r, p := &st.Stats.Registry, &st.Stats.Pool
		sum.Registry.Builds += r.Builds
		sum.Registry.Bytes += r.Bytes
		sum.Registry.Hits += r.Hits
		sum.Registry.Misses += r.Misses
		sum.Registry.Evictions += r.Evictions
		sum.Pool.Hits += p.Hits
		sum.Pool.Misses += p.Misses
		sum.Pool.Discards += p.Discards
		sum.Pool.Invalidated += p.Invalidated
	}
	return sum, nil
}

// newClient is an HTTP client that opens at most conns connections to each
// server.
func newClient(conns int) *http.Client {
	return &http.Client{
		Timeout: time.Minute,
		Transport: &http.Transport{
			MaxConnsPerHost:     conns,
			MaxIdleConnsPerHost: conns,
			DisableCompression:  true,
		},
	}
}

// post sends a JSON body and reads the whole answer into buf.
func post(c *http.Client, url string, body []byte, buf *bytes.Buffer) (int, error) {
	resp, err := c.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	buf.Reset()
	_, err = buf.ReadFrom(resp.Body)
	return resp.StatusCode, err
}

func get(c *http.Client, url string, buf *bytes.Buffer) (int, error) {
	resp, err := c.Get(url)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	buf.Reset()
	_, err = buf.ReadFrom(resp.Body)
	return resp.StatusCode, err
}
