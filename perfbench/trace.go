package main

import (
	"bufio"
	"fmt"
	"os"
	"time"
)

// Span layers, named after the repository's modules.
const (
	layerGen = iota
	layerServer
	layerEngine
	layerBtree
	nLayers
)

var layerNames = [nLayers]string{"gen", "server", "engine", "btree"}

// span is one timed call across a layer boundary, recorded by the
// benchmark's own code around a call into that layer's public API. Parent
// is the index of the enclosing span in the same worker's slice (-1 for a
// request's root); sim fields hold the worker's simulated clock where the
// layer has one (-1 otherwise).
type span struct {
	parent           int32
	layer            uint8
	name             string
	req              uint64
	start, end       int64 // wall ns since the tracer's epoch
	simStart, simEnd int64
}

// tracer keeps every span in memory, one slice per worker, and writes them
// out when the run ends. A nil *wtrace records nothing, which is how the
// untimed code paths stay identical between traced and untraced runs.
type tracer struct {
	epoch   time.Time
	workers []*wtrace
}

type wtrace struct {
	epoch time.Time
	id    int
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// worker returns the span recorder for one worker goroutine.
func (t *tracer) worker() *wtrace {
	if t == nil {
		return nil
	}
	w := &wtrace{epoch: t.epoch, id: len(t.workers), spans: make([]span, 0, 1<<14)}
	t.workers = append(t.workers, w)
	return w
}

// begin opens a span and returns its index (-1 when not tracing).
func (w *wtrace) begin(layer uint8, name string, parent int32, req uint64, sim int64) int32 {
	if w == nil {
		return -1
	}
	w.spans = append(w.spans, span{parent: parent, layer: layer, name: name, req: req,
		start: int64(time.Since(w.epoch)), simStart: sim, simEnd: sim})
	return int32(len(w.spans) - 1)
}

// beginAt opens a span that started at a known wall offset (a request's due
// time).
func (w *wtrace) beginAt(layer uint8, name string, parent int32, req uint64, start int64) int32 {
	if w == nil {
		return -1
	}
	w.spans = append(w.spans, span{parent: parent, layer: layer, name: name, req: req,
		start: start, simStart: -1, simEnd: -1})
	return int32(len(w.spans) - 1)
}

func (w *wtrace) end(i int32, sim int64) {
	if w == nil || i < 0 {
		return
	}
	s := &w.spans[i]
	s.end = int64(time.Since(w.epoch))
	s.simEnd = sim
}

// layerTimes sums, per layer, self time (span time minus the time its
// direct children cover) in both time domains, plus per-name wall and
// simulated durations for the quantile metrics.
type layerTimes struct {
	selfWall, selfSim [nLayers]int64
	byName            map[string]samples // wall ns
	simByName         map[string]samples // simulated ns
}

func (t *tracer) times() layerTimes {
	lt := layerTimes{byName: map[string]samples{}, simByName: map[string]samples{}}
	if t == nil {
		return lt
	}
	for _, w := range t.workers {
		childWall := make([]int64, len(w.spans))
		childSim := make([]int64, len(w.spans))
		for _, s := range w.spans {
			if s.parent >= 0 {
				childWall[s.parent] += s.end - s.start
				if s.simStart >= 0 {
					childSim[s.parent] += s.simEnd - s.simStart
				}
			}
		}
		for i, s := range w.spans {
			d := s.end - s.start
			lt.selfWall[s.layer] += d - childWall[i]
			lt.byName[s.name] = append(lt.byName[s.name], d)
			if s.simStart >= 0 {
				sd := s.simEnd - s.simStart
				lt.selfSim[s.layer] += sd - childSim[i]
				lt.simByName[s.name] = append(lt.simByName[s.name], sd)
			}
		}
	}
	for k := range lt.byName {
		lt.byName[k].sorted()
	}
	for k := range lt.simByName {
		lt.simByName[k].sorted()
	}
	return lt
}

// write stores the spans as JSON lines, at most limit of them, after a
// header line giving the total; returns the number written.
func (t *tracer) write(path, label string, limit int) (int, error) {
	f, err := os.Create(path)
	if err != nil {
		return 0, err
	}
	bw := bufio.NewWriter(f)
	total := 0
	for _, w := range t.workers {
		total += len(w.spans)
	}
	fmt.Fprintf(bw, "{\"run\":%q,\"spans\":%d,\"written\":%d}\n", label, total, min(total, limit))
	n := 0
	for _, w := range t.workers {
		for i, s := range w.spans {
			if n >= limit {
				break
			}
			parent := int64(-1)
			if s.parent >= 0 {
				parent = int64(w.id)<<32 | int64(s.parent)
			}
			fmt.Fprintf(bw, "{\"id\":%d,\"parent\":%d,\"req\":%d,\"layer\":%q,\"name\":%q,\"start_ns\":%d,\"end_ns\":%d,\"sim_start_ns\":%d,\"sim_end_ns\":%d}\n",
				int64(w.id)<<32|int64(i), parent, s.req, layerNames[s.layer], s.name, s.start, s.end, s.simStart, s.simEnd)
			n++
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return n, err
	}
	return n, f.Close()
}
