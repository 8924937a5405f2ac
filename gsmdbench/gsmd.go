package main

import (
	"bufio"
	"fmt"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// gsmdArgs are the flags every gsmd child runs with. The governor keeps
// its defaults and the server runs unsharded and without -demo: it learns
// the generated inputs only through its HTTP API. -state-dir is always
// set, so every landing pays the WAL append and fsync.
func gsmdArgs(addrFile, state string) []string {
	return []string{"-addr", "127.0.0.1:0", "-addr-file", addrFile, "-state-dir", state}
}

// child is one running gsmd process.
type child struct {
	cmd   *exec.Cmd
	addr  string
	state string
	done  chan error
}

// startGsmd boots gsmd on a free port with a fresh state directory under
// dir and waits until it listens.
func startGsmd(bin, dir string) (*child, error) {
	state := filepath.Join(dir, "state")
	addrFile := filepath.Join(dir, "addr")
	if err := os.RemoveAll(state); err != nil {
		return nil, err
	}
	os.Remove(addrFile)
	// gsmd's log goes to a file, keeping the result stream clean.
	logf, err := os.Create(filepath.Join(dir, "gsmd.log"))
	if err != nil {
		return nil, err
	}
	defer logf.Close() // the child holds its own descriptor
	cmd := exec.Command(bin, gsmdArgs(addrFile, state)...)
	cmd.Stderr = logf
	// Should the benchmark die first, the kernel stops gsmd with it.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting gsmd: %w", err)
	}
	c := &child{cmd: cmd, state: state, done: make(chan error, 1)}
	go func() { c.done <- cmd.Wait() }()
	deadline := time.Now().Add(20 * time.Second)
	for {
		if b, err := os.ReadFile(addrFile); err == nil && strings.HasSuffix(string(b), "\n") {
			c.addr = strings.TrimSpace(string(b))
			return c, nil
		}
		select {
		case err := <-c.done:
			return nil, fmt.Errorf("gsmd exited before listening: %v", err)
		case <-time.After(2 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			c.stop()
			return nil, fmt.Errorf("gsmd did not listen within 20s")
		}
	}
}

// stop drains gsmd with SIGTERM, kills it if the drain overruns, and waits
// for it to exit.
func (c *child) stop() {
	c.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-c.done:
	case <-time.After(10 * time.Second):
		c.cmd.Process.Kill()
		<-c.done
	}
}

// peakRSSMB reads gsmd's VmHWM, its peak resident set, from /proc.
func (c *child) peakRSSMB() (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", c.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parsing VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", c.cmd.Process.Pid)
}

// stateBytes is the size of gsmd's state directory (snapshot + WAL).
func (c *child) stateBytes() (int64, error) {
	var n int64
	err := filepath.WalkDir(c.state, func(_ string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			info, err := d.Info()
			if err != nil {
				return err
			}
			n += info.Size()
		}
		return nil
	})
	return n, err
}
