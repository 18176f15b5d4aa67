package main

import (
	"fmt"
	"os"
	"os/exec"
	"sync"
	"syscall"
	"time"
)

// child is a program process started by the benchmark. Every child is
// registered until it has been waited for, so stopAll leaves none behind.
type child struct {
	cmd    *exec.Cmd
	exited chan struct{} // closed once Wait returns
	err    error         // Wait's error, valid after exited
}

var (
	childMu  sync.Mutex
	children = map[*child]bool{}
)

// startChild starts cmd and returns when the process exists. The kernel
// kills the child if the benchmark dies first.
func startChild(cmd *exec.Cmd) (*child, error) {
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	c := &child{cmd: cmd, exited: make(chan struct{})}
	childMu.Lock()
	children[c] = true
	childMu.Unlock()
	go func() {
		c.err = cmd.Wait()
		close(c.exited)
		childMu.Lock()
		delete(children, c)
		childMu.Unlock()
	}()
	return c, nil
}

func (c *child) pid() int { return c.cmd.Process.Pid }

// stop sends sig, waits up to grace for the exit, then kills and waits.
func (c *child) stop(sig os.Signal, grace time.Duration) error {
	select {
	case <-c.exited:
		return c.err
	default:
	}
	if sig != nil {
		_ = c.cmd.Process.Signal(sig) // the process may already be gone
		select {
		case <-c.exited:
			return c.err
		case <-time.After(grace):
		}
	}
	_ = c.cmd.Process.Kill()
	<-c.exited
	return fmt.Errorf("%s killed after %s", c.cmd.Path, grace)
}

// stopAll kills every child still running and waits for each.
func stopAll() {
	childMu.Lock()
	cs := make([]*child, 0, len(children))
	for c := range children {
		cs = append(cs, c)
	}
	childMu.Unlock()
	for _, c := range cs {
		_ = c.stop(syscall.SIGTERM, 10*time.Second)
	}
}
