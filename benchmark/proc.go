package main

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// proc is one server process started by the benchmark.
type proc struct {
	name string
	cmd  *exec.Cmd
	log  *syncBuffer
	// addrs receives every listener the process announces on stdout.
	addrs chan listener
	done  chan struct{}
}

// listener is one announced listen address; binary marks the persistent
// binary-frame listener.
type listener struct {
	addr   string
	binary bool
}

// syncBuffer keeps a process's stderr for the failure report.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.buf.Len() < 64<<10 {
		b.buf.Write(p)
	}
	return len(p), nil
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// startProc launches bin with args. The child is killed if the benchmark
// dies, and its "listening on <addr>" announcements are forwarded to addrs.
func startProc(bin string, args ...string) (*proc, error) {
	p := &proc{
		name:  filepath.Base(bin),
		cmd:   exec.Command(bin, args...),
		log:   &syncBuffer{},
		addrs: make(chan listener, 4), // a server announces at most two listeners
		done:  make(chan struct{}),
	}
	p.cmd.Stderr = p.log
	p.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	out, err := p.cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := p.cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", p.name, err)
	}
	go func() {
		defer close(p.done)
		sc := bufio.NewScanner(out)
		for sc.Scan() {
			line := sc.Text()
			if i := strings.LastIndex(line, "listening on "); i >= 0 {
				select {
				case p.addrs <- listener{
					addr:   strings.TrimSpace(line[i+len("listening on "):]),
					binary: strings.Contains(line, "binary listening on"),
				}:
				default:
				}
			}
		}
	}()
	return p, nil
}

// waitAddrs waits until the process has announced n listeners.
func (p *proc) waitAddrs(n int, timeout time.Duration) ([]listener, error) {
	var got []listener
	deadline := time.After(timeout)
	for len(got) < n {
		select {
		case a := <-p.addrs:
			got = append(got, a)
		case <-p.done:
			return nil, fmt.Errorf("%s exited before listening: %s", p.name, p.log.String())
		case <-deadline:
			return nil, fmt.Errorf("%s did not announce %d listeners within %v", p.name, n, timeout)
		}
	}
	return got, nil
}

// peakRSSMB reads the process's peak resident set (VmHWM) in MiB.
func (p *proc) peakRSSMB() (float64, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", p.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(f[1], 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", p.cmd.Process.Pid)
}

// stop kills the process and waits for it and its stdout reader to end.
func (p *proc) stop() {
	_ = p.cmd.Process.Kill() // already exited is fine: Wait reports it
	_ = p.cmd.Wait()
	<-p.done
}

// cluster is the set of server processes one workload runs against.
type cluster struct {
	procs   []*proc
	workers []*proc
	// httpAddr is where HTTP requests go (the router when there is one);
	// connAddr is the first worker's binary listener ("" when unused);
	// workerAddrs are the workers' HTTP addresses.
	httpAddr    string
	connAddr    string
	workerAddrs []string
}

// serverArgs is the freeway-serve command line for w.
func serverArgs(w *workload) []string {
	args := []string{"-addr", "127.0.0.1:0", "-model", w.model,
		"-dim", strconv.Itoa(w.dim), "-classes", strconv.Itoa(w.classes)}
	if w.transport == transportConn {
		args = append(args, "-binary", "127.0.0.1:0")
	}
	if w.coalesce {
		args = append(args, "-coalesce")
	}
	if w.tier != "" {
		args = append(args, "-kernel-tier", w.tier)
	}
	return args
}

// boot starts the workload's servers and waits until each listens.
// traced turns on the router's spans and per-hop headers.
func boot(bin string, w *workload, traced bool) (*cluster, error) {
	c := &cluster{}
	nWorkers := w.workers
	if nWorkers == 0 {
		nWorkers = 1
	}
	listeners := 1
	if w.transport == transportConn {
		listeners = 2
	}
	for i := 0; i < nWorkers; i++ {
		p, err := startProc(filepath.Join(bin, "freeway-serve"), serverArgs(w)...)
		if err != nil {
			c.stop()
			return nil, err
		}
		c.procs = append(c.procs, p)
		c.workers = append(c.workers, p)
	}
	for _, p := range c.workers {
		addrs, err := p.waitAddrs(listeners, 30*time.Second)
		if err != nil {
			c.stop()
			return nil, err
		}
		for _, l := range addrs {
			switch {
			case !l.binary:
				c.workerAddrs = append(c.workerAddrs, l.addr)
			case c.connAddr == "":
				c.connAddr = l.addr
			}
		}
	}
	c.httpAddr = c.workerAddrs[0]
	if w.workers > 1 {
		args := []string{"-addr", "127.0.0.1:0", "-workers", strings.Join(c.workerAddrs, ",")}
		if !traced {
			args = append(args, "-disable-tracing")
		}
		p, err := startProc(filepath.Join(bin, "freeway-router"), args...)
		if err != nil {
			c.stop()
			return nil, err
		}
		c.procs = append(c.procs, p)
		addrs, err := p.waitAddrs(1, 30*time.Second)
		if err != nil {
			c.stop()
			return nil, err
		}
		c.httpAddr = addrs[0].addr
	}
	return c, nil
}

// peakRSSMB sums the servers' peak resident sets.
func (c *cluster) peakRSSMB() (float64, error) {
	var sum float64
	for _, p := range c.procs {
		mb, err := p.peakRSSMB()
		if err != nil {
			return 0, err
		}
		sum += mb
	}
	return sum, nil
}

func (c *cluster) stop() {
	for _, p := range c.procs {
		p.stop()
	}
	c.procs = nil
}
