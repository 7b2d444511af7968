// Driver for the clock layer: clock.Wall, the real-time scheduler only
// pilot_loopback runs on. A callback reschedules itself 30 us ahead (one
// 1 500 B packet at 400 Mbit/s) and records how late it ran; the same at
// a gap of 0 gives the dispatch rate when nothing sleeps; and a second
// goroutine posts CallAfter(0) events, as the pilot's socket reader
// does, and times their dispatch. The timer wake-up floor bounds the
// pilot: goodput_mbps and pkts_per_s on pilot_loopback, nothing else.
package main

import (
	"time"

	"bundler/bench/internal/lb"
	"bundler/internal/clock"
)

const gap = 30 * clock.Microsecond

// chain runs a self-rescheduling callback for span and returns how late
// each run was, in microseconds.
func chain(w *clock.Wall, gap clock.Time, span time.Duration) []float64 {
	var (
		late = make([]float64, 0, 1<<16)
		done = make(chan struct{})
		end  = w.Now() + clock.Time(span)
		fire func(a0, a1 any)
	)
	fire = func(a0, _ any) {
		now := w.Now()
		late = append(late, float64(now-a0.(clock.Time))/1e3)
		if now >= end {
			close(done)
			return
		}
		w.CallAt(now+gap, fire, now+gap, nil)
	}
	first := w.Now() + gap
	w.CallAt(first, fire, first, nil)
	<-done
	return late
}

func main() {
	lb.Main(func(o lb.Out) error {
		w := clock.NewWall(lb.Seed)
		defer w.Close()

		span := 25 * lb.Per()
		late := chain(w, gap, span)
		o["wall.late_p50_us"] = lb.Quantile(late, 0.5)
		o["wall.late_p99_us"] = lb.Quantile(late, 0.99)
		o["wall.timed_events_per_s"] = float64(len(late)) / span.Seconds()

		span = 5 * lb.Per()
		o["wall.due_events_per_s"] = float64(len(chain(w, 0, span))) / span.Seconds()

		// Posts from outside the clock goroutine, one at a time, with the
		// dispatcher asleep in between.
		ran := make(chan time.Time)
		inject := make([]float64, 200)
		for i := range inject {
			time.Sleep(200 * time.Microsecond)
			t0 := time.Now()
			w.CallAfter(0, func(_, _ any) { ran <- time.Now() }, nil, nil)
			inject[i] = float64((<-ran).Sub(t0).Nanoseconds()) / 1e3
		}
		o["wall.inject_us"] = lb.Median(inject)
		return nil
	})
}
