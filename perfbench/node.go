package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/telemetry"
)

// nodeProc is one running cmd/auroranode process.
type nodeProc struct {
	cmd     *exec.Cmd
	spawned time.Time

	mu       sync.Mutex
	stderr   bytes.Buffer
	httpAddr string
	httpc    chan struct{} // closed once the telemetry address is known

	exited  chan struct{} // closed once the process has been reaped
	waitErr error
}

// startNode spawns the node. Its stderr is kept for failure reports and
// scanned for the telemetry address it logs at start-up.
func startNode(bin string, args []string) (*nodeProc, error) {
	cmd := exec.Command(bin, args...)
	cmd.Stdout = io.Discard
	// The node must not outlive the benchmark, whatever ends it.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	pipe, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	n := &nodeProc{cmd: cmd, httpc: make(chan struct{}), exited: make(chan struct{})}
	n.spawned = time.Now()
	if err := onNodeCPU(cmd.Start); err != nil {
		return nil, fmt.Errorf("spawn node: %w", err)
	}
	scanned := make(chan struct{})
	go func() {
		defer close(scanned)
		sc := bufio.NewScanner(pipe)
		for sc.Scan() {
			line := sc.Text()
			n.mu.Lock()
			n.stderr.WriteString(line)
			n.stderr.WriteByte('\n')
			if n.httpAddr == "" {
				if _, rest, ok := strings.Cut(line, "telemetry on http://"); ok {
					n.httpAddr, _, _ = strings.Cut(rest, " ")
					close(n.httpc)
				}
			}
			n.mu.Unlock()
		}
	}()
	go func() {
		<-scanned // Wait closes the pipe; read it to the end first
		n.waitErr = cmd.Wait()
		close(n.exited)
	}()
	return n, nil
}

func (n *nodeProc) pid() int { return n.cmd.Process.Pid }

// alive reports whether the process is still running.
func (n *nodeProc) alive() bool {
	select {
	case <-n.exited:
		return false
	default:
		return true
	}
}

// stop kills the process and waits until it has been reaped.
func (n *nodeProc) stop() {
	if n.alive() {
		_ = n.cmd.Process.Kill() // already exiting is fine
	}
	<-n.exited
}

// stderrText returns what the node has written to stderr so far.
func (n *nodeProc) stderrText() string {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.stderr.String()
}

// exitReport describes an exited node for a failure message.
func (n *nodeProc) exitReport() string {
	return fmt.Sprintf("node exited (%v); stderr:\n%s", n.waitErr, n.stderrText())
}

// telemetry returns the node's HTTP address once logged.
func (n *nodeProc) telemetry(timeout time.Duration) (string, error) {
	select {
	case <-n.httpc:
		n.mu.Lock()
		defer n.mu.Unlock()
		return n.httpAddr, nil
	case <-n.exited:
		return "", fmt.Errorf("%s", n.exitReport())
	case <-time.After(timeout):
		return "", fmt.Errorf("node logged no telemetry address within %v", timeout)
	}
}

// counter reads one counter from the node's /metrics JSON.
func (n *nodeProc) counter(name string) (float64, error) {
	addr, err := n.telemetry(5 * time.Second)
	if err != nil {
		return 0, err
	}
	resp, err := http.Get("http://" + addr + "/metrics")
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	var body telemetry.MetricsResponse
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		return 0, fmt.Errorf("/metrics: %w", err)
	}
	v, ok := body.Metrics.Counters[name]
	if !ok {
		return 0, fmt.Errorf("/metrics has no counter %q", name)
	}
	return float64(v), nil
}

// fetch GETs a telemetry path into a file.
func (n *nodeProc) fetch(path, file string) error {
	addr, err := n.telemetry(5 * time.Second)
	if err != nil {
		return err
	}
	resp, err := http.Get("http://" + addr + path)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %s", path, resp.Status)
	}
	f, err := os.Create(file)
	if err != nil {
		return err
	}
	if _, err := io.Copy(f, resp.Body); err != nil {
		f.Close()
		return fmt.Errorf("GET %s: %w", path, err)
	}
	return f.Close()
}
