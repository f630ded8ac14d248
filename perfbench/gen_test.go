package main

import (
	"errors"
	"testing"
	"time"
)

// fakeClock advances only when the generator sleeps or a send takes time.
type fakeClock struct{ now time.Time }

func (c *fakeClock) Now() time.Time { return c.now }

func (c *fakeClock) SleepUntil(t time.Time) {
	if t.After(c.now) {
		c.now = t
	}
}

func TestOpenLoopLagAccounting(t *testing.T) {
	c := &fakeClock{now: time.Unix(100, 0)}
	o := newOpenLoop(c.now, 1000) // one broadcast due every 1ms
	// Broadcast 2 stalls for 3.5ms; the schedule does not wait for it, so
	// broadcasts 3..5 start late, by a shrinking lag, until the generator
	// has caught up.
	cost := map[int]time.Duration{2: 3500 * time.Microsecond}
	r := o.run(c, 8, c.now.Add(time.Hour), nil, func(i int) error {
		c.now = c.now.Add(cost[i])
		return nil
	})
	wantLag := []float64{0, 0, 0, 2.5, 1.5, 0.5, 0, 0}
	if r.Issued != 8 || r.Stopped {
		t.Fatalf("issued %d stopped %v, want 8 false", r.Issued, r.Stopped)
	}
	for i, w := range wantLag {
		if r.LagMs[i] != w {
			t.Fatalf("lag = %v, want %v", r.LagMs, wantLag)
		}
	}
	if r.CallUs[2] != 3500 || r.CallUs[3] != 0 {
		t.Fatalf("call times = %v", r.CallUs)
	}
	if got := o.dueNs(5); got != int64(5*time.Millisecond) {
		t.Fatalf("due(5) = %d", got)
	}
}

func TestOpenLoopStormGuardStopsALateGenerator(t *testing.T) {
	c := &fakeClock{now: time.Unix(100, 0)}
	o := newOpenLoop(c.now, 1000)
	deadline := c.now.Add(10 * time.Millisecond)
	// Every send takes 4ms: the generator falls further behind each call
	// and the wall-clock deadline, not the schedule, ends the run.
	r := o.run(c, 1000, deadline, nil, func(int) error {
		c.now = c.now.Add(4 * time.Millisecond)
		return errors.New("slow")
	})
	if !r.Stopped || r.Issued != 3 || r.Errors != 3 {
		t.Fatalf("issued %d errors %d stopped %v, want 3 3 true", r.Issued, r.Errors, r.Stopped)
	}
	if r.LagMs[2] != 6 {
		t.Fatalf("lag = %v, want the third call 6ms late", r.LagMs)
	}
}

func TestOpenLoopStopChannel(t *testing.T) {
	c := &fakeClock{now: time.Unix(100, 0)}
	stop := make(chan struct{})
	o := newOpenLoop(c.now, 1000)
	r := o.run(c, 10, c.now.Add(time.Hour), stop, func(i int) error {
		if i == 4 {
			close(stop)
		}
		return nil
	})
	if !r.Stopped || r.Issued != 5 {
		t.Fatalf("issued %d stopped %v, want 5 true", r.Issued, r.Stopped)
	}
}
