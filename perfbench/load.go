package main

import (
	"context"
	"math"
	"runtime"
	"sort"
	"sync"
	"syscall"
	"time"
)

// maxInflight bounds the open loop's outstanding requests. It is far
// above what the offered rates need; if it is ever reached the generator
// falls behind, which loadgen.late_p99_us shows.
const maxInflight = 256

// prSetTimerSlack is prctl's PR_SET_TIMERSLACK.
const prSetTimerSlack = 29

// dispatcherNice is the open loop's dispatching thread's nice value. The
// thread only sleeps and hands requests to goroutines, so it takes
// little CPU from the daemons; without it, it waits for a time slice
// behind them and every request it sends late is charged that wait.
const dispatcherNice = -10

// sample is one successful request: when it started (its due time in an
// open loop), relative to the start of its phase, and how long it took.
type sample struct{ at, lat time.Duration }

// phase collects one timed phase's outcomes.
type phase struct {
	mu        sync.Mutex
	start     time.Time
	resolves  []sample        // successful resolves
	updates   []sample        // successful updates
	late      []time.Duration // open loop: how late each request was sent
	attempted int
	failed    int
	firstErr  error
	elapsed   time.Duration
}

func newPhase() *phase { return &phase{start: time.Now()} }

// add records one request that started at t.
func (p *phase) add(kind opKind, t time.Time, err error) {
	lat := time.Since(t)
	p.mu.Lock()
	defer p.mu.Unlock()
	p.attempted++
	switch {
	case err != nil:
		p.failed++
		if p.firstErr == nil {
			p.firstErr = err
		}
	case kind == opUpdate:
		p.updates = append(p.updates, sample{t.Sub(p.start), lat})
	default:
		p.resolves = append(p.resolves, sample{t.Sub(p.start), lat})
	}
}

func (p *phase) ok() int { return len(p.resolves) + len(p.updates) }

// openLoop sends s's requests at Poisson arrival times at rate per second
// for dur, each on its own goroutine, and times each from when it was due
// so a stall is charged to every request it delays.
func openLoop(ctx context.Context, d *driver, s *stream, rate float64, dur time.Duration) *phase {
	var wg sync.WaitGroup
	sem := make(chan struct{}, maxInflight)
	// The Go scheduler's timers wake up to a millisecond late, which would
	// be charged to every request; this goroutine instead sleeps on its own
	// thread with nanosleep and the smallest timer slack, and that thread
	// runs at a raised priority so that it is not queued behind the
	// daemons when it wakes. Both settings are best effort.
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	_, _, _ = syscall.RawSyscall(syscall.SYS_PRCTL, prSetTimerSlack, 1, 0)
	tid := syscall.Gettid()
	if prio, err := syscall.Getpriority(syscall.PRIO_PROCESS, tid); err == nil {
		_ = syscall.Setpriority(syscall.PRIO_PROCESS, tid, dispatcherNice)
		// Getpriority returns 20-nice on Linux.
		defer syscall.Setpriority(syscall.PRIO_PROCESS, tid, 20-prio)
	}
	p := newPhase()
	start := p.start
	due := 0.0
	for i := 0; ctx.Err() == nil; i++ {
		due += s.gap(rate)
		if due >= dur.Seconds() {
			break
		}
		o, ok := s.next()
		if !ok {
			break
		}
		t := start.Add(time.Duration(due * float64(time.Second)))
		if wait := time.Until(t); wait > 0 {
			ts := syscall.NsecToTimespec(int64(wait))
			_ = syscall.Nanosleep(&ts, nil) // an early wake-up only shortens the wait
		}
		sem <- struct{}{}
		p.late = append(p.late, time.Since(t))
		wg.Add(1)
		go func(l *lane) {
			defer wg.Done()
			err := d.exec(ctx, l, o)
			<-sem
			p.add(o.kind, t, err)
		}(d.lanes[i%len(d.lanes)])
	}
	wg.Wait()
	p.elapsed = time.Since(p.start)
	return p
}

// closedLoop keeps window requests in flight for dur: each of window
// callers sends its next request when the previous one completes.
func closedLoop(ctx context.Context, d *driver, s *stream, window int, dur time.Duration) *phase {
	p := newPhase()
	var wg sync.WaitGroup
	deadline := p.start.Add(dur)
	for w := range window {
		wg.Add(1)
		go func(l *lane) {
			defer wg.Done()
			for ctx.Err() == nil && time.Now().Before(deadline) {
				o, ok := s.next()
				if !ok {
					return
				}
				t := time.Now()
				err := d.exec(ctx, l, o)
				p.add(o.kind, t, err)
			}
		}(d.lanes[w%len(d.lanes)])
	}
	wg.Wait()
	p.elapsed = time.Since(p.start)
	return p
}

// quantileWindowSamples is the fewest samples a window of a phase holds
// when tail percentiles are taken per window (so a window's p99 has at
// least ten samples beyond it) and reported as the median over windows:
// a burst of interference on a shared host then moves one window's
// figure, not the result.
const quantileWindowSamples = 1000

// windowQuantiles splits the phase (span long) into windows of at least
// quantileWindowSamples samples each, by start time, and returns each
// window's q-quantile latency in microseconds.
func windowQuantiles(ss []sample, span time.Duration, q float64) []float64 {
	n := max(len(ss)/quantileWindowSamples, 1)
	per := make([][]time.Duration, n)
	for _, s := range ss {
		i := min(int(int64(s.at)*int64(n)/int64(span)), n-1)
		per[i] = append(per[i], s.lat)
	}
	var qs []float64
	for _, w := range per {
		if len(w) > 0 {
			qs = append(qs, us(percentile(w, q)))
		}
	}
	return qs
}

func lats(ss []sample) []time.Duration {
	out := make([]time.Duration, len(ss))
	for i, s := range ss {
		out[i] = s.lat
	}
	return out
}

// percentile returns the nearest-rank q-quantile of ds (0 when empty).
func percentile(ds []time.Duration, q float64) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[min(max(i, 0), len(s)-1)]
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// median of a float slice.
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
