package main

import "time"

// clock is the generator's view of time, injectable so the lag accounting
// can be tested without sleeping.
type clock interface {
	Now() time.Time
	SleepUntil(t time.Time)
}

type wallClock struct{}

func (wallClock) Now() time.Time { return time.Now() }

func (wallClock) SleepUntil(t time.Time) {
	if d := time.Until(t); d > 0 {
		time.Sleep(d)
	}
}

// openLoop is a fixed-rate open-loop schedule: broadcast i is due at
// start + i×period whatever happened to broadcast i-1, so a stall delays
// every later broadcast and shows up in their latencies and in the lag.
type openLoop struct {
	start  time.Time
	period time.Duration
}

func newOpenLoop(start time.Time, rate float64) openLoop {
	return openLoop{start: start, period: time.Duration(float64(time.Second) / rate)}
}

// dueNs is broadcast i's due time in nanoseconds since start.
func (o openLoop) dueNs(i uint64) int64 { return int64(i) * int64(o.period) }

// genResult is what one open-loop run did.
type genResult struct {
	Issued  int
	LagMs   []float64 // per broadcast: call start minus due time
	CallUs  []float64 // per broadcast: duration of the send call
	Errors  int
	Stopped bool // the deadline cut generation short
}

// run issues count broadcasts on schedule o, calling send(i) for each no
// earlier than its due time. It stops early once the wall clock reaches
// deadline or stop is closed: the storm guard for a generator that has
// fallen behind its schedule. send errors count but do not stop the run:
// the open loop keeps its schedule.
func (o openLoop) run(c clock, count int, deadline time.Time, stop <-chan struct{}, send func(i int) error) genResult {
	r := genResult{LagMs: make([]float64, 0, count), CallUs: make([]float64, 0, count)}
	for i := 0; i < count; i++ {
		due := o.start.Add(time.Duration(o.dueNs(uint64(i))))
		if !c.Now().Before(deadline) {
			r.Stopped = true
			return r
		}
		select {
		case <-stop:
			r.Stopped = true
			return r
		default:
		}
		c.SleepUntil(due)
		t0 := c.Now()
		err := send(i)
		t1 := c.Now()
		r.Issued++
		if err != nil {
			r.Errors++
		}
		r.LagMs = append(r.LagMs, float64(t0.Sub(due).Nanoseconds())/1e6)
		r.CallUs = append(r.CallUs, float64(t1.Sub(t0).Nanoseconds())/1e3)
	}
	return r
}
