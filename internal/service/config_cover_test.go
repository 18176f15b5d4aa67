package service

import (
	"testing"
	"time"
)

// The Config zero value must resolve to the documented daemon defaults —
// these are the numbers `bpid -help` promises.
func TestConfigZeroValueDefaults(t *testing.T) {
	var c Config
	if got := c.defaultTimeout(); got != 10*time.Second {
		t.Errorf("defaultTimeout = %v, want 10s", got)
	}
	if got := c.maxTimeout(); got != 60*time.Second {
		t.Errorf("maxTimeout = %v, want 60s", got)
	}
	if got := c.batchMax(); got != 256 {
		t.Errorf("batchMax = %d, want 256", got)
	}
	if got := c.admissionQueue(); got != 64 {
		t.Errorf("admissionQueue = %d, want 64", got)
	}
}

func TestConfigExplicitValuesHonoured(t *testing.T) {
	c := Config{
		DefaultTimeout: time.Second, MaxTimeout: 2 * time.Second,
		BatchMax: 9, AdmissionQueue: 5,
	}
	if c.defaultTimeout() != time.Second || c.maxTimeout() != 2*time.Second ||
		c.batchMax() != 9 || c.admissionQueue() != 5 {
		t.Errorf("explicit config not honoured: %+v", c)
	}
}

// ErrorBody doubles as the client-side Go error; its rendering is part of
// the wire contract surfaced to bpi.Client callers.
func TestErrorBodyRendering(t *testing.T) {
	e := &ErrorBody{Code: CodeQueueFull, Message: "try later"}
	if got := e.Error(); got != "bpid: queue_full: try later" {
		t.Errorf("Error() = %q", got)
	}
}
