package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
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

// client is one keep-alive HTTP connection to the daemon: its
// transport allows a single connection, so the generator's two clients
// (submits, reads) never open more than two.
type client struct {
	base string
	hc   *http.Client
}

func newClient(base string) *client {
	tr := &http.Transport{
		MaxConnsPerHost:     1,
		MaxIdleConnsPerHost: 1,
		IdleConnTimeout:     time.Minute,
		DisableCompression:  true,
	}
	return &client{base: base, hc: &http.Client{Transport: tr, Timeout: 60 * time.Second}}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// do sends one request and returns the status, body and client-timed
// latency (request start to body fully read).
func (c *client) do(method, path, key, idem string, body []byte) (int, []byte, time.Duration, error) {
	req, err := http.NewRequest(method, c.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, 0, err
	}
	if key != "" {
		req.Header.Set("Authorization", "Bearer "+key)
	}
	if idem != "" {
		req.Header.Set("Idempotency-Key", idem)
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	start := time.Now()
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, nil, time.Since(start), err
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	return resp.StatusCode, data, time.Since(start), err
}

func (c *client) getJSON(path, key string, v any) (time.Duration, error) {
	status, data, lat, err := c.do(http.MethodGet, path, key, "", nil)
	if err != nil {
		return lat, err
	}
	if status != http.StatusOK {
		return lat, fmt.Errorf("GET %s: status %d: %s", path, status, bytes.TrimSpace(data))
	}
	return lat, json.Unmarshal(data, v)
}

// jobRecord is the subset of the daemon's JobRecord the benchmark reads.
type jobRecord struct {
	ID             string    `json:"id"`
	Seq            int       `json:"seq"`
	State          string    `json:"state"`
	Backend        string    `json:"backend"`
	SubmittedAt    time.Time `json:"submitted_at"`
	WaitSeconds    float64   `json:"wait_seconds"`
	ServiceSeconds float64   `json:"service_seconds"`
	PST            float64   `json:"pst"`
	Error          string    `json:"error"`
}

func (r jobRecord) terminal() bool { return r.State == "done" || r.State == "failed" }

// finished is the daemon-side instant the job reached its terminal
// state: admission plus its queue wait plus its service time.
func (r jobRecord) finished() time.Time {
	return r.SubmittedAt.Add(time.Duration((r.WaitSeconds + r.ServiceSeconds) * float64(time.Second)))
}

type histSnap struct {
	Count int64   `json:"count"`
	Mean  float64 `json:"mean"`
	P50   float64 `json:"p50"`
}

// histSum is the total of a histogram's samples.
func histSum(h histSnap) float64 { return h.Mean * float64(h.Count) }

// metricsDoc is the subset of GET /metrics the benchmark reads.
type metricsDoc struct {
	Jobs struct {
		Accepted  int64 `json:"accepted"`
		Completed int64 `json:"completed"`
		Failed    int64 `json:"failed"`
	} `json:"jobs"`
	Batches struct {
		Executed      int64 `json:"executed"`
		ColocatedJobs int64 `json:"colocated_jobs"`
	} `json:"batches"`
	Queue struct {
		Depth    int64 `json:"depth"`
		InFlight int64 `json:"in_flight"`
	} `json:"queue"`
	Robustness struct {
		FallbackBatches int64 `json:"fallback_batches"`
	} `json:"robustness"`
	Cache struct {
		Hits      int64 `json:"hits"`
		Misses    int64 `json:"misses"`
		Coalesced int64 `json:"coalesced"`
	} `json:"cache"`
	LatencySeconds struct {
		Compile histSnap `json:"compile"`
		Execute histSnap `json:"execute"`
	} `json:"latency_seconds"`
	WAL struct {
		Appends int64 `json:"appends"`
	} `json:"wal"`
}

// fleetDoc is the subset of GET /v1/fleet the benchmark samples.
type fleetDoc struct {
	Devices []struct {
		Name       string `json:"name"`
		QueueDepth int    `json:"queue_depth"`
	} `json:"devices"`
}

type backendDoc struct {
	Name          string `json:"name"`
	JobsCompleted int64  `json:"jobs_completed"`
}

// daemon is one running qucloudd process.
type daemon struct {
	cmd  *exec.Cmd
	base string
	exit chan struct{} // closed once the process has been waited for
}

// freePort asks the kernel for an unused loopback port.
func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// daemonArgs is the workload's qucloudd command line: paper defaults,
// a queue no workload fills, no history eviction (every record stays
// readable through paged GET /v1/jobs), and the workload's trial count,
// tenants and WAL directory.
func daemonArgs(w *workload, port int, dir string) []string {
	args := []string{
		"-addr", "127.0.0.1:" + strconv.Itoa(port),
		"-backends", backends,
		"-policy", "static",
		"-eps", strconv.FormatFloat(epsilon, 'g', -1, 64),
		"-lookahead", strconv.Itoa(lookahead),
		"-max-colocate", strconv.Itoa(maxColocate),
		"-queue", strconv.Itoa(queueSize),
		"-history", "-1",
		"-trials", strconv.Itoa(w.Trials),
	}
	if len(w.Tenants) > 0 {
		args = append(args, "-tenants", filepath.Join(dir, "tenants.json"))
	}
	if w.WAL {
		args = append(args, "-data-dir", filepath.Join(dir, "data"))
	}
	return args
}

// startDaemon execs qucloudd in a fresh directory dir (tenant file and
// WAL live there, its log goes to dir/qucloudd.log).
func startDaemon(bin string, w *workload, dir string) (*daemon, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	if len(w.Tenants) > 0 {
		data, err := json.Marshal(w.Tenants)
		if err != nil {
			return nil, err
		}
		if err := os.WriteFile(filepath.Join(dir, "tenants.json"), data, 0o644); err != nil {
			return nil, err
		}
	}
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	logf, err := os.Create(filepath.Join(dir, "qucloudd.log"))
	if err != nil {
		return nil, err
	}
	defer logf.Close() // the child holds its own descriptor
	cmd := exec.Command(bin, daemonArgs(w, port, dir)...)
	cmd.Stdout, cmd.Stderr = logf, logf
	// The daemon must not outlive the benchmark, even if the benchmark
	// itself is killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start qucloudd: %w", err)
	}
	d := &daemon{cmd: cmd, base: "http://127.0.0.1:" + strconv.Itoa(port), exit: make(chan struct{})}
	go func() {
		_ = cmd.Wait()
		close(d.exit)
	}()
	return d, nil
}

// cpuSeconds is the CPU time (user + system) the daemon process has
// used so far, from its /proc stat line. The kernel does not charge a
// task for time its vCPU was stolen by the hypervisor, so unlike wall
// time this does not stretch when other guests load the host.
func (d *daemon) cpuSeconds() (float64, error) {
	data, err := os.ReadFile("/proc/" + strconv.Itoa(d.cmd.Process.Pid) + "/stat")
	if err != nil {
		return 0, err
	}
	// The command name (field 2) may hold spaces; the fields after its
	// closing parenthesis start at field 3, so utime and stime (fields
	// 14 and 15) are the 12th and 13th.
	f := strings.Fields(string(data[bytes.LastIndexByte(data, ')')+1:]))
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc stat line for pid %d", d.cmd.Process.Pid)
	}
	var ticks float64
	for _, s := range f[11:13] {
		n, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			return 0, err
		}
		ticks += float64(n)
	}
	// Linux reports these in USER_HZ, 100 per second on every
	// architecture Go supports.
	return ticks / 100, nil
}

// waitHealthy polls /healthz until the daemon answers.
func (d *daemon) waitHealthy(c *client, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		select {
		case <-d.exit:
			return errors.New("qucloudd exited during start-up")
		default:
		}
		if status, _, _, err := c.do(http.MethodGet, "/healthz", "", "", nil); err == nil && status == http.StatusOK {
			return nil
		}
		time.Sleep(2 * time.Millisecond)
	}
	return fmt.Errorf("qucloudd not healthy after %s", timeout)
}

// stop terminates the daemon and waits for it to exit: SIGTERM first
// (an idle daemon drains at once), SIGKILL when the drain would take
// longer than grace (a collapsed step leaves a long backlog).
func (d *daemon) stop(grace time.Duration) {
	_ = d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.exit:
		return
	case <-time.After(grace):
	}
	_ = d.cmd.Process.Kill()
	<-d.exit
}
