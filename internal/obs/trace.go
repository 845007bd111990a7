package obs

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"sync/atomic"
)

// EventType enumerates the migration-tracer event kinds. They mirror the
// data-flow activity of Figure 3 plus the subsystems around it: fetches,
// evictions, write-backs/admissions, cleaner batches, WAL activity, and the
// adaptive tuner's policy steps.
type EventType uint8

const (
	EvFetch EventType = iota + 1
	EvEvict
	EvAdmit
	EvWriteBack
	EvCleanerBatch
	EvWALAppend
	EvWALFlush
	EvPolicyStep
	EvRetry
	EvWALGroupCommit
)

// String names the event type (used in JSONL and Chrome trace output).
func (t EventType) String() string {
	switch t {
	case EvFetch:
		return "fetch"
	case EvEvict:
		return "evict"
	case EvAdmit:
		return "admit"
	case EvWriteBack:
		return "writeback"
	case EvCleanerBatch:
		return "cleaner-batch"
	case EvWALAppend:
		return "wal-append"
	case EvWALFlush:
		return "wal-flush"
	case EvPolicyStep:
		return "policy-step"
	case EvRetry:
		return "retry"
	case EvWALGroupCommit:
		return "wal-group-commit"
	}
	return fmt.Sprintf("event(%d)", uint8(t))
}

// TierID identifies a storage tier in an event's from/to pair. The obs
// package keeps its own copy of the tier enum so that core (and wal, and the
// harness) can depend on obs without a cycle.
type TierID uint8

const (
	TierNone TierID = iota
	TierDRAM
	TierMini
	TierNVM
	TierSSD
)

// String names the tier.
func (t TierID) String() string {
	switch t {
	case TierNone:
		return "-"
	case TierDRAM:
		return "dram"
	case TierMini:
		return "mini"
	case TierNVM:
		return "nvm"
	case TierSSD:
		return "ssd"
	}
	return fmt.Sprintf("tier(%d)", uint8(t))
}

// Outcome classifies how a traced operation ended.
type Outcome uint8

const (
	OutOK Outcome = iota
	OutMiss
	OutError
	OutSkipped
)

// String names the outcome.
func (o Outcome) String() string {
	switch o {
	case OutOK:
		return "ok"
	case OutMiss:
		return "miss"
	case OutError:
		return "error"
	case OutSkipped:
		return "skipped"
	}
	return fmt.Sprintf("outcome(%d)", uint8(o))
}

// Event is one migration-tracer record. TS is the emitting worker's virtual
// clock (simulated nanoseconds) at the *end* of the operation; Dur is the
// operation's simulated duration (0 for instant events). Page is the logical
// page id (^uint64(0) when not applicable), From/To the tier pair the data
// moved between, and Arg an event-specific payload (batch size, LSN, bytes).
type Event struct {
	TS      int64
	Dur     int64
	Type    EventType
	From    TierID
	To      TierID
	Outcome Outcome
	Page    uint64
	Arg     int64
}

// NoPage is the Page value for events that do not concern a single page.
const NoPage = ^uint64(0)

// ringSlot is one seqlock-protected event slot. The sequence word is odd
// while the (single) producer is writing and even once the write is
// committed; all payload words are atomics so concurrent snapshot readers
// are race-free without any lock.
type ringSlot struct {
	seq atomic.Uint64
	w   [5]atomic.Uint64
}

func packMeta(ev *Event) uint64 {
	return uint64(ev.Type) | uint64(ev.From)<<8 | uint64(ev.To)<<16 | uint64(ev.Outcome)<<24
}

func unpackMeta(m uint64, ev *Event) {
	ev.Type = EventType(m)
	ev.From = TierID(m >> 8)
	ev.To = TierID(m >> 16)
	ev.Outcome = Outcome(m >> 24)
}

// Ring is a single-producer, multi-reader event ring buffer. Exactly one
// goroutine (the owning worker) may Emit; any goroutine may Snapshot
// concurrently. A full ring overwrites its oldest events, so a live export
// sees the most recent window of activity. A nil *Ring is a valid no-op
// emitter, which is what a capped-out Obs hands to surplus workers.
type Ring struct {
	id    int
	label string
	mask  uint64
	seq   atomic.Uint64 // next position to write
	slots []ringSlot
}

// ID returns the ring's tracer id (the Chrome trace "tid").
func (r *Ring) ID() int { return r.id }

// Emit records one event. Safe on a nil ring (no-op). Must only be called
// from the ring's owning goroutine.
func (r *Ring) Emit(ev Event) {
	if r == nil {
		return
	}
	i := r.seq.Load()
	s := &r.slots[i&r.mask]
	s.seq.Store(2*i + 1) // writing
	s.w[0].Store(uint64(ev.TS))
	s.w[1].Store(uint64(ev.Dur))
	s.w[2].Store(ev.Page)
	s.w[3].Store(uint64(ev.Arg))
	s.w[4].Store(packMeta(&ev))
	s.seq.Store(2*i + 2) // committed
	r.seq.Store(i + 1)
}

// Len reports how many events the ring has ever recorded (not its current
// occupancy; a full ring wraps).
func (r *Ring) Len() uint64 {
	if r == nil {
		return 0
	}
	return r.seq.Load()
}

// Snapshot copies the ring's current contents, oldest first. Slots being
// overwritten mid-read are detected via their sequence word and skipped, so
// a snapshot taken during a live run is consistent but may miss the events
// racing it.
func (r *Ring) Snapshot() []Event {
	if r == nil {
		return nil
	}
	end := r.seq.Load()
	n := uint64(len(r.slots))
	start := uint64(0)
	if end > n {
		start = end - n
	}
	out := make([]Event, 0, end-start)
	for i := start; i < end; i++ {
		s := &r.slots[i&r.mask]
		want := 2*i + 2
		if s.seq.Load() != want {
			continue // being overwritten (or already wrapped past)
		}
		var ev Event
		ev.TS = int64(s.w[0].Load())
		ev.Dur = int64(s.w[1].Load())
		ev.Page = s.w[2].Load()
		ev.Arg = int64(s.w[3].Load())
		unpackMeta(s.w[4].Load(), &ev)
		if s.seq.Load() != want {
			continue // torn read; producer lapped us
		}
		out = append(out, ev)
	}
	return out
}

// tracedEvent pairs an event with its source ring for export.
type tracedEvent struct {
	Event
	tid   int
	label string
}

// events gathers a merged, TS-sorted snapshot of every ring.
func (o *Obs) events() []tracedEvent {
	if o == nil {
		return nil
	}
	o.mu.Lock()
	rings := make([]*Ring, len(o.rings))
	copy(rings, o.rings)
	o.mu.Unlock()
	var all []tracedEvent
	for _, r := range rings {
		for _, ev := range r.Snapshot() {
			all = append(all, tracedEvent{Event: ev, tid: r.id, label: r.label})
		}
	}
	sort.SliceStable(all, func(i, j int) bool { return all[i].TS < all[j].TS })
	return all
}

// WriteJSONL writes the merged event snapshot as JSON Lines: one event
// object per line, sorted by virtual timestamp.
func (o *Obs) WriteJSONL(w io.Writer) error {
	return o.WriteJSONLFiltered(w, nil)
}

// WriteJSONLFiltered is WriteJSONL restricted to events matching keep. A nil
// keep exports everything. The exposition server uses this for per-page-id
// trace filtering (/events.jsonl?pid=N).
func (o *Obs) WriteJSONLFiltered(w io.Writer, keep func(Event) bool) error {
	bw := bufio.NewWriter(w)
	for _, ev := range o.events() {
		if keep != nil && !keep(ev.Event) {
			continue
		}
		page := ""
		if ev.Page != NoPage {
			page = fmt.Sprintf(`,"page":%d`, ev.Page)
		}
		fmt.Fprintf(bw,
			`{"ts":%d,"dur":%d,"type":%q,"from":%q,"to":%q,"outcome":%q%s,"arg":%d,"worker":%q}`+"\n",
			ev.TS, ev.Dur, ev.Type.String(), ev.From.String(), ev.To.String(),
			ev.Outcome.String(), page, ev.Arg, ev.label)
	}
	return bw.Flush()
}

// WriteChromeTrace writes the merged event snapshot in Chrome trace_event
// JSON object format, loadable in chrome://tracing and Perfetto. Timestamps
// are the workers' *virtual* clocks (simulated nanoseconds, exported in
// microseconds as the format requires): the timeline shows where simulated
// time went, which is the quantity the reproduction measures.
func (o *Obs) WriteChromeTrace(w io.Writer) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n")
	first := true
	emit := func(format string, a ...any) {
		if !first {
			bw.WriteString(",\n")
		}
		first = false
		fmt.Fprintf(bw, format, a...)
	}
	// Thread-name metadata so Perfetto labels each worker track.
	o.mu.Lock()
	rings := make([]*Ring, len(o.rings))
	copy(rings, o.rings)
	o.mu.Unlock()
	for _, r := range rings {
		emit(`{"name":"thread_name","ph":"M","pid":1,"tid":%d,"args":{"name":%q}}`, r.id, r.label)
	}
	for _, ev := range o.events() {
		name := ev.Type.String()
		if ev.From != TierNone || ev.To != TierNone {
			name = fmt.Sprintf("%s %s→%s", ev.Type, ev.From, ev.To)
		}
		page := ""
		if ev.Page != NoPage {
			page = fmt.Sprintf(`,"page":%d`, ev.Page)
		}
		args := fmt.Sprintf(`{"outcome":%q,"arg":%d%s}`, ev.Outcome.String(), ev.Arg, page)
		if ev.Dur > 0 {
			// Complete event: ts is the start in microseconds.
			emit(`{"name":%q,"cat":%q,"ph":"X","pid":1,"tid":%d,"ts":%.3f,"dur":%.3f,"args":%s}`,
				name, ev.Type.String(), ev.tid,
				float64(ev.TS-ev.Dur)/1e3, float64(ev.Dur)/1e3, args)
		} else {
			emit(`{"name":%q,"cat":%q,"ph":"i","s":"t","pid":1,"tid":%d,"ts":%.3f,"args":%s}`,
				name, ev.Type.String(), ev.tid, float64(ev.TS)/1e3, args)
		}
	}
	fmt.Fprintf(bw, "\n]}\n")
	return bw.Flush()
}
