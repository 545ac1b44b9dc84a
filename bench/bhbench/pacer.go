package main

import "time"

// clock is the pacer's view of time, so tests can drive it without
// sleeping.
type clock interface {
	Now() time.Time
	Sleep(time.Duration)
}

type wallClock struct{}

func (wallClock) Now() time.Time        { return time.Now() }
func (wallClock) Sleep(d time.Duration) { time.Sleep(d) }

// pacer is an open-loop schedule: op i is due at start + i/rate
// whatever the system under test does. A generator that falls behind
// sends the overdue ops back to back and their latency is still
// counted from the due time, so a server stall shows up as latency on
// every op it delayed rather than as a lower offered rate.
type pacer struct {
	clk      clock
	start    time.Time
	interval time.Duration
	n        int64
}

func newPacer(clk clock, start time.Time, perSecond float64) *pacer {
	return &pacer{clk: clk, start: start, interval: time.Duration(float64(time.Second) / perSecond)}
}

// next blocks until the next op is due and returns its due time and
// how late the generator is releasing it (zero when on schedule).
func (p *pacer) next() (due time.Time, late time.Duration) {
	due = p.start.Add(time.Duration(p.n) * p.interval)
	p.n++
	now := p.clk.Now()
	if wait := due.Sub(now); wait > 0 {
		p.clk.Sleep(wait)
		now = p.clk.Now()
	}
	if late = now.Sub(due); late < 0 {
		late = 0
	}
	return due, late
}
