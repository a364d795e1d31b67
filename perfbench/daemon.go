package main

import (
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"time"
)

// node is one running synthd process.
type node struct {
	url  string
	log  string
	cmd  *exec.Cmd
	done chan struct{} // closed once the process has exited
}

// startTimeout bounds how long a daemon may take to become ready.
const startTimeout = 30 * time.Second

// startNode launches synthd from bin with its default configuration on a
// free loopback port, logging into dir, and returns once it answers
// /readyz.
func startNode(ctx context.Context, hc *http.Client, bin, dir string) (*node, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("picking a port: %w", err)
	}
	addr := l.Addr().String()
	l.Close()
	nd := &node{
		url:  "http://" + addr,
		log:  filepath.Join(dir, "synthd.log"),
		done: make(chan struct{}),
	}
	logf, err := os.Create(nd.log)
	if err != nil {
		return nil, err
	}
	nd.cmd = exec.Command(filepath.Join(bin, "synthd"), "-addr", addr)
	nd.cmd.Stdout = logf
	nd.cmd.Stderr = logf
	setProcAttr(nd.cmd)
	if err := nd.cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("starting synthd: %w", err)
	}
	go func() {
		_ = nd.cmd.Wait() // the exit status of a stopped daemon carries no information
		logf.Close()
		close(nd.done)
	}()
	ctx, cancel := context.WithTimeout(ctx, startTimeout)
	defer cancel()
	for {
		if code, _ := get(ctx, hc, nd.url+"/readyz"); code == http.StatusOK {
			return nd, nil
		}
		if err := nd.pause(ctx, time.Millisecond); err != nil {
			nd.stop()
			return nil, err
		}
	}
}

// pause sleeps d, failing early when the process has exited or ctx ends.
func (nd *node) pause(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-nd.done:
		return fmt.Errorf("synthd exited during start-up:\n%s", tail(nd.log))
	case <-ctx.Done():
		return fmt.Errorf("synthd not ready: %w\n%s", ctx.Err(), tail(nd.log))
	}
}

// stop interrupts the daemon, which drains and exits, and waits for it;
// a daemon still running after the grace period is killed.
func (nd *node) stop() {
	_ = nd.cmd.Process.Signal(os.Interrupt) // fails only if it already exited
	select {
	case <-nd.done:
	case <-time.After(10 * time.Second):
		_ = nd.cmd.Process.Kill()
		<-nd.done
	}
}

// get performs one GET and returns the status and body (0 on transport
// failure).
func get(ctx context.Context, hc *http.Client, url string) (int, []byte) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return 0, nil
	}
	resp, err := hc.Do(req)
	if err != nil {
		return 0, nil
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, nil
	}
	return resp.StatusCode, body
}

// tail returns the last lines of a log file for error reports.
func tail(path string) string {
	data, _ := os.ReadFile(path)
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	if len(lines) > 10 {
		lines = lines[len(lines)-10:]
	}
	return strings.Join(lines, "\n")
}
