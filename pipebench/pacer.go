package main

import (
	"runtime"
	"syscall"
	"time"
)

// The open-loop pacer. Requests are due on a fixed schedule whether or not
// earlier ones were answered, and every latency is measured from the due
// time, so a stalled sender or a queue in front of the system shows up in
// the latency instead of silently thinning the load. How late the pacer
// itself released each request is recorded separately: a generator that
// cannot keep its schedule invalidates the window it drove.
//
// Go's timers wake no finer than about a millisecond on an idle Linux
// process, coarser than the gaps between requests at the rates measured
// here. The pacer therefore locks its goroutine to an OS thread, sets that
// thread's timer slack to 1 ns and sleeps with nanosleep, which wakes
// within some 10 µs.

// prSetTimerSlack is prctl's PR_SET_TIMERSLACK.
const prSetTimerSlack = 29

// pace calls release(k, due) for k = 0, 1, … at due = start + offset +
// k·interval while due < end, sleeping until each due time, and returns
// how late each release was. It runs on the calling goroutine, which it
// locks to a thread it leaves with a modified timer slack; the runtime
// discards that thread when the goroutine exits.
func pace(start time.Time, offset, interval time.Duration, end time.Time, release func(k int, due time.Time)) *latencies {
	runtime.LockOSThread()
	syscall.Syscall(syscall.SYS_PRCTL, prSetTimerSlack, 1, 0)
	late := &latencies{}
	for k := 0; ; k++ {
		due := start.Add(offset + time.Duration(k)*interval)
		if !due.Before(end) {
			return late
		}
		if d := time.Until(due); d > 0 {
			ts := syscall.NsecToTimespec(int64(d))
			syscall.Nanosleep(&ts, nil)
		}
		late.add(time.Since(due))
		release(k, due)
	}
}
