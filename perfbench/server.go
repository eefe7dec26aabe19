package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// server is one mamps-serve process at its default flags.
type server struct {
	cmd  *exec.Cmd
	url  string
	args []string
	done chan struct{}
	err  error // process exit status, valid after done closes
}

// startServer execs bin on a free loopback port, with -runlog when
// runlogDir is set, and logs to logPath.
func startServer(bin, logPath, runlogDir string) (*server, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	addr := l.Addr().String()
	l.Close()
	args := []string{"-addr", addr}
	if runlogDir != "" {
		args = append(args, "-runlog", runlogDir)
	}
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	defer logf.Close() // the child holds its own descriptor
	cmd := exec.Command(bin, args...)
	cmd.Stdout, cmd.Stderr = logf, logf
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	s := &server{cmd: cmd, url: "http://" + addr, args: args, done: make(chan struct{})}
	go func() {
		s.err = cmd.Wait()
		close(s.done)
	}()
	return s, nil
}

// waitReady polls /readyz until it answers 200.
func (s *server) waitReady(client *http.Client, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		select {
		case <-s.done:
			return fmt.Errorf("mamps-serve exited before ready: %v", s.err)
		default:
		}
		resp, err := client.Get(s.url + "/readyz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		time.Sleep(time.Millisecond)
	}
	return fmt.Errorf("mamps-serve not ready after %s", timeout)
}

// stop drains the server with SIGTERM, as production does, and waits
// for it to exit; it kills it if the drain hangs.
func (s *server) stop() error {
	_ = s.cmd.Process.Signal(syscall.SIGTERM) // fails only if it already exited
	select {
	case <-s.done:
	case <-time.After(60 * time.Second):
		_ = s.cmd.Process.Kill()
		<-s.done
		return fmt.Errorf("mamps-serve did not drain within 60s")
	}
	if s.err != nil {
		return fmt.Errorf("mamps-serve exit: %v", s.err)
	}
	return nil
}

// cpuMS reads the process's user+sys CPU time from /proc/<pid>/stat.
func (s *server) cpuMS() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// fields 14 and 15 of the whole line, in USER_HZ (100/s) ticks.
	f := strings.Fields(string(b[bytes.LastIndexByte(b, ')')+1:]))
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc stat line")
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("parsing /proc stat: %v %v", err1, err2)
	}
	return float64(ut+st) * 10, nil
}

// peakRSSMB reads the process's VmHWM in MiB.
func (s *server) peakRSSMB() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb / 1024, err
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc status")
}

// scrape reads /metrics into a map from series (name plus labels) to value.
func (s *server) scrape(client *http.Client) (map[string]float64, error) {
	resp, err := client.Get(s.url + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
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
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		m[line[:i]] = v
	}
	return m, sc.Err()
}
