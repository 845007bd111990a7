package main

import (
	"math"
	"sync"
	"syscall"
	"time"

	"github.com/spitfire-db/spitfire/internal/zipf"
)

// stream is one load-generator worker: each call runs the worker's next op
// (its sequence depends only on the seed) and reports the op's latency class
// and whether it succeeded. tr, when non-nil, records the worker's spans;
// parent is the span of the call into the system under test.
type stream interface {
	next(tr *wtrace, parent int32, req uint64) (class int, ok bool)
}

// phase is what one open-loop phase measured. Latencies run from each
// request's due time to its completion, so time a request spent waiting
// behind a slow predecessor counts.
type phase struct {
	rate       float64
	lat        [nClasses]samples               // successful requests, by class
	win        [phaseWindows][nClasses]samples // the same, by window of due time
	all        samples                         // every request; failures count as +Inf
	late       samples                         // send time minus due time
	backlogMax int                             // most due-but-unsent requests on one worker
	backlogEnd int                             // requests one worker still owed when the schedule ended
	perWorker  int                             // requests scheduled per worker
	sent       int64
	failed     int64
}

// openLoop offers `rate` requests per second for dur, split evenly over the
// streams, each with its own seeded Poisson arrival schedule. A stream sends
// one request at a time (one connection each), so when the system falls
// behind, due requests queue in the generator and their latency shows it.
func openLoop(streams []stream, rate float64, dur time.Duration, seed uint64, traces []*wtrace) *phase {
	p := &phase{rate: rate}
	type result struct {
		lat        [nClasses]samples
		win        [phaseWindows][nClasses]samples
		all, late  samples
		backlogMax int
		backlogEnd int
		failed     int64
	}
	res := make([]result, len(streams))
	per := rate / float64(len(streams))
	// Every worker's schedule is laid out before the phase starts.
	dues := make([][]int64, len(streams))
	for i := range streams {
		rng := zipf.NewRand(seed*0x2545F4914F6CDD1D + uint64(i) + 7)
		var t float64
		for {
			t += -math.Log(1-rng.Float64()) / per * 1e9
			if t >= float64(dur) {
				break
			}
			dues[i] = append(dues[i], int64(t))
		}
		p.perWorker = max(p.perWorker, len(dues[i]))
	}
	start := time.Now().Add(2 * time.Millisecond)
	var wg sync.WaitGroup
	for i := range streams {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			r := &res[i]
			due := dues[i]
			r.all = make(samples, 0, len(due))
			r.late = make(samples, 0, len(due))
			var tr *wtrace
			if traces != nil {
				tr = traces[i]
			}
			epochOff := int64(0)
			if tr != nil {
				epochOff = int64(start.Sub(tr.epoch))
			}
			j := 0
			for k, d := range due {
				now := int64(time.Since(start))
				if wait := d - now; wait > 0 {
					sleep(wait)
					now = int64(time.Since(start))
				}
				for j < len(due) && due[j] <= now {
					j++
				}
				backlog := j - k - 1
				r.backlogMax = max(r.backlogMax, backlog)
				if now > int64(dur) {
					r.backlogEnd++ // still unsent when the schedule ended
				}
				r.late = append(r.late, now-d)
				req := uint64(i)<<40 | uint64(k)
				root := tr.beginAt(layerGen, "gen.request", -1, req, epochOff+d)
				call := tr.begin(layerServer, "server.call", root, req, -1)
				class, ok := streams[i].next(tr, call, req)
				tr.end(call, -1)
				tr.end(root, -1)
				lat := int64(time.Since(start)) - d
				if ok {
					r.lat[class] = append(r.lat[class], lat)
					wi := int(d * phaseWindows / int64(dur))
					r.win[wi][class] = append(r.win[wi][class], lat)
					r.all = append(r.all, lat)
				} else {
					r.failed++
					r.all = append(r.all, math.MaxInt64)
				}
			}
		}(i)
	}
	wg.Wait()
	for i := range res {
		r := &res[i]
		for c := range p.lat {
			p.lat[c] = append(p.lat[c], r.lat[c]...)
			for wi := range p.win {
				p.win[wi][c] = append(p.win[wi][c], r.win[wi][c]...)
			}
		}
		p.all = append(p.all, r.all...)
		p.late = append(p.late, r.late...)
		p.backlogMax = max(p.backlogMax, r.backlogMax)
		p.backlogEnd = max(p.backlogEnd, r.backlogEnd)
		p.failed += r.failed
		p.sent += int64(len(r.all))
	}
	for c := range p.lat {
		p.lat[c].sorted()
		for wi := range p.win {
			p.win[wi][c].sorted()
		}
	}
	p.all.sorted()
	p.late.sorted()
	return p
}

// phaseWindows splits a phase by due time for windowed quantiles.
const phaseWindows = 16

// windowValues is the q-quantile of a class's latencies in each group of
// consecutive windows holding at least minWindowSamples of that class (the
// whole phase as one group when it holds fewer).
func (p *phase) windowValues(class int, q float64) []float64 {
	const minWindowSamples = 1000
	var vals []float64
	var group samples
	for wi := range p.win {
		group = append(group, p.win[wi][class]...)
		if len(group) >= minWindowSamples {
			vals = append(vals, group.sorted().quantile(q))
			group = group[:0]
		}
	}
	if len(vals) == 0 {
		return []float64{p.lat[class].quantile(q)}
	}
	return vals
}

// quantile is the q-quantile of a class's latencies, taken over the windows
// of windowValues: their lower quartile when there are at least four, else
// their median. On a virtual machine whose processors the host preempts in
// bursts of milliseconds, a latency quantile mostly measures how many
// bursts fell into the run; the lower quartile of the windows reports the
// latency of the program when the host lets it run, and moves only when a
// quarter of the windows move. It also returns the sample count.
func (p *phase) quantile(class int, q float64) (float64, int) {
	vals := p.windowValues(class, q)
	if len(vals) >= 4 {
		return quartile(vals, 0.25), len(p.lat[class])
	}
	return median(vals), len(p.lat[class])
}

// sleep pauses the calling goroutine's thread for ns nanoseconds with a
// 1 µs timer slack (PR_SET_TIMERSLACK on that thread), so sends keep to
// their schedule within microseconds; Go timers round short sleeps up to
// about a millisecond.
func sleep(ns int64) {
	syscall.Syscall(syscall.SYS_PRCTL, 29, 1000, 0)
	ts := syscall.NsecToTimespec(ns)
	syscall.Nanosleep(&ts, nil)
}

// rungOK is the ladder's pass rule: the p99 of all requests (failures and
// refusals counted as missing the limit) within the limit, and no growing
// backlog, i.e. when the schedule ended no worker still owed more than
// max(4, 2% of its requests).
func (p *phase) rungOK(limitUs float64) bool {
	if len(p.all) == 0 {
		return false
	}
	if p.all.quantile(0.99) > limitUs*1e3 {
		return false
	}
	return float64(p.backlogEnd) < math.Max(4, 0.02*float64(p.perWorker))
}

// climb runs the ladder: rungs of rising rate until one fails, the rungs
// run out, or the time budget would be exceeded. It returns the rate of the
// last passing rung (0 if the first failed) and every rung run.
func climb(streams []stream, l ladder, limitUs float64, budget time.Duration, seed uint64, between func()) (float64, []*phase) {
	var rungs []*phase
	best := 0.0
	rate := l.Start
	deadline := time.Now().Add(budget)
	rungDur := time.Duration(l.RungS * float64(time.Second))
	for i := 0; i < l.MaxRungs; i++ {
		if time.Until(deadline) < rungDur {
			break
		}
		p := openLoop(streams, rate, rungDur, seed+uint64(i)*131, nil)
		rungs = append(rungs, p)
		// A rung fails only when all rungTries attempts fail: a burst of
		// host preemption can sink one short attempt far below the knee.
		for try := 1; try < rungTries && !p.rungOK(limitUs) && time.Until(deadline) >= rungDur; try++ {
			pause(between)
			p = openLoop(streams, rate, rungDur, seed+uint64(i)*131+uint64(try), nil)
			rungs = append(rungs, p)
		}
		if !p.rungOK(limitUs) {
			break
		}
		best = rate
		rate *= l.Step
		pause(between)
	}
	return best, rungs
}

// rungTries is how many attempts a rung gets before it counts as failed.
const rungTries = 3

// pause separates two rungs: 20 ms for queues to drain, plus the caller's
// between-rungs work (nil for none), which runs with no request in flight.
func pause(between func()) {
	time.Sleep(20 * time.Millisecond)
	if between != nil {
		between()
	}
}
