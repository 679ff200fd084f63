package main

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// fleet owns every child process the driver starts, so that any exit
// path — normal return, error, or signal — can stop them all and wait
// for them to end.
type fleet struct {
	bin    string // the qunitsd binary
	logDir string

	mu    sync.Mutex
	procs []*proc
	seq   int
}

// proc is one qunitsd child.
type proc struct {
	name string
	url  string
	cmd  *exec.Cmd
	log  *os.File
	done chan struct{} // closed once the process has been waited for
}

// freePort asks the kernel for an unused port by binding :0. The port is
// released before the child binds it; the window is small and a clash
// fails the boot loudly rather than silently.
func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// start execs one qunitsd on a free port with its output kept under the
// log directory.
func (f *fleet) start(name string, args ...string) (*proc, error) {
	port, err := freePort()
	if err != nil {
		return nil, fmt.Errorf("finding a port for %s: %w", name, err)
	}
	addr := "127.0.0.1:" + strconv.Itoa(port)
	f.mu.Lock()
	f.seq++
	logPath := filepath.Join(f.logDir, fmt.Sprintf("%03d-%s.log", f.seq, name))
	f.mu.Unlock()
	logFile, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(f.bin, append([]string{"-addr", addr}, args...)...)
	cmd.Stdout = logFile
	cmd.Stderr = logFile
	if err := cmd.Start(); err != nil {
		logFile.Close()
		return nil, fmt.Errorf("starting %s: %w", name, err)
	}
	p := &proc{name: name, url: "http://" + addr, cmd: cmd, log: logFile, done: make(chan struct{})}
	go func() {
		_ = cmd.Wait() // the exit status of a killed child carries no news
		logFile.Close()
		close(p.done)
	}()
	f.mu.Lock()
	f.procs = append(f.procs, p)
	f.mu.Unlock()
	return p, nil
}

// kill stops the child at once and waits until it has ended. Workload
// children are killed rather than drained so none of them rewrites the
// shared snapshot.
func (p *proc) kill() {
	_ = p.cmd.Process.Kill() // already-exited is fine
	<-p.done
}

// terminate asks the child to drain (which writes its snapshot) and
// waits for it; it is killed if it outlives the timeout.
func (p *proc) terminate(timeout time.Duration) error {
	if err := p.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		p.kill()
		return err
	}
	select {
	case <-p.done:
		if !p.cmd.ProcessState.Success() {
			return fmt.Errorf("%s exited %v after SIGTERM (log %s)", p.name, p.cmd.ProcessState, p.log.Name())
		}
		return nil
	case <-time.After(timeout):
		p.kill()
		return fmt.Errorf("%s did not drain within %v", p.name, timeout)
	}
}

// killAll stops every child still running and forgets them.
func (f *fleet) killAll() {
	f.mu.Lock()
	procs := f.procs
	f.procs = nil
	f.mu.Unlock()
	for _, p := range procs {
		p.kill()
	}
}

// rssMB reads the child's resident set from /proc.
func (p *proc) rssMB() (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", p.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmRSS:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("parsing %q: %w", line, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmRSS for pid %d", p.cmd.Process.Pid)
}

// waitHealthy polls /healthz until every child answers 200, and fails
// early if one of them exits instead.
func waitHealthy(ctx context.Context, client *http.Client, procs []*proc) error {
	for _, p := range procs {
		for {
			select {
			case <-p.done:
				return fmt.Errorf("%s exited during boot (log %s)", p.name, p.log.Name())
			case <-ctx.Done():
				return fmt.Errorf("%s not healthy: %w", p.name, ctx.Err())
			default:
			}
			resp, err := client.Get(p.url + "/healthz")
			if err == nil {
				resp.Body.Close()
				if resp.StatusCode == http.StatusOK {
					break
				}
			}
			time.Sleep(2 * time.Millisecond)
		}
	}
	return nil
}
