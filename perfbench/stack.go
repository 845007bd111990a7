package main

import (
	"runtime/metrics"

	"github.com/spitfire-db/spitfire/internal/core"
	"github.com/spitfire-db/spitfire/internal/device"
	"github.com/spitfire-db/spitfire/internal/engine"
	"github.com/spitfire-db/spitfire/internal/wal"
)

// stack is an in-process engine stack and the handles the per-layer
// counters are read from.
type stack struct {
	bm   *core.BufferManager
	db   *engine.DB
	log  *wal.MemLog
	nvm  []*device.Device // every NVM device (data arena, log buffer)
	ssd  []*device.Device // every SSD device (page store, log file)
	tb   *engine.Table
	kv   *engine.KV // serve replay only
	free float64    // lowest free-list fraction sampled
}

func (s *stack) close() { s.bm.Close() }

// counters is one reading of every layer counter the benchmark reports.
type counters struct {
	bm                     core.Stats
	commits, aborts        int64
	appends, flushes, wcom int64
	logLen                 int
	nvmR, nvmW, nvmWOps    int64
	ssdR, ssdW             int64
	rt                     rtCounters
}

func (s *stack) snap() counters {
	c := counters{bm: s.bm.Stats(), logLen: s.log.Len(), rt: readRuntime()}
	c.commits, c.aborts = s.db.TxnStats()
	c.appends, c.flushes, c.wcom = s.db.WAL().Stats()
	for _, d := range uniq(s.nvm) {
		st := d.Stats()
		c.nvmR += st.BytesRead
		c.nvmW += st.BytesWritten
		c.nvmWOps += st.WriteOps
	}
	for _, d := range uniq(s.ssd) {
		st := d.Stats()
		c.ssdR += st.BytesRead
		c.ssdW += st.BytesWritten
	}
	return c
}

func uniq(ds []*device.Device) []*device.Device {
	var out []*device.Device
	seen := map[*device.Device]bool{}
	for _, d := range ds {
		if d != nil && !seen[d] {
			seen[d] = true
			out = append(out, d)
		}
	}
	return out
}

// sampleFree records the scarcest free-list fraction seen so far.
func (s *stack) sampleFree() {
	if f := s.bm.Pressure().MinFreeFrac(); f < s.free {
		s.free = f
	}
}

// rtCounters are the Go runtime's cumulative allocation and CPU counters.
type rtCounters struct {
	allocBytes, allocObjs float64
	gcCPU, totalCPU       float64
}

var rtNames = []string{
	"/gc/heap/allocs:bytes",
	"/gc/heap/allocs:objects",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func readRuntime() rtCounters {
	s := make([]metrics.Sample, len(rtNames))
	for i, n := range rtNames {
		s[i].Name = n
	}
	metrics.Read(s)
	v := func(i int) float64 {
		switch s[i].Value.Kind() {
		case metrics.KindUint64:
			return float64(s[i].Value.Uint64())
		case metrics.KindFloat64:
			return s[i].Value.Float64()
		}
		return 0
	}
	return rtCounters{allocBytes: v(0), allocObjs: v(1), gcCPU: v(2), totalCPU: v(3)}
}

// stackLayers sets the counter-based per-layer metrics from two readings
// around a run of ops operations. The core hit fractions are skipped when
// the caller already took them from the live server.
func (p *pass) stackLayers(a, b counters, ops float64, s *stack, withHits bool) {
	d := func(x, y int64) float64 { return float64(y - x) }
	ba, bb := a.bm, b.bm
	if withHits {
		fetches := d(ba.HitDRAM+ba.HitMini+ba.HitNVM+ba.MissSSD, bb.HitDRAM+bb.HitMini+bb.HitNVM+bb.MissSSD)
		p.layer["core.hit_dram_frac"] = ratio(d(ba.HitDRAM+ba.HitMini, bb.HitDRAM+bb.HitMini), fetches)
		p.layer["core.hit_nvm_frac"] = ratio(d(ba.HitNVM, bb.HitNVM), fetches)
		p.layer["core.miss_ssd_frac"] = ratio(d(ba.MissSSD, bb.MissSSD), fetches)
		p.n["core.hit_dram_frac"] = int(fetches)
		p.layer["core.min_free_frac"] = s.free
	}
	mig := func(x core.Stats) int64 {
		return x.NVMToDRAM + x.SSDToDRAM + x.SSDToNVM + x.DRAMToNVM + x.DRAMToSSD + x.NVMToSSD
	}
	p.layer["core.migrations_per_op"] = ratio(d(mig(ba), mig(bb)), ops)
	p.layer["core.dram_to_nvm_per_op"] = ratio(d(ba.DRAMToNVM, bb.DRAMToNVM), ops)
	p.layer["core.nvm_to_ssd_per_op"] = ratio(d(ba.NVMToSSD, bb.NVMToSSD), ops)
	p.layer["core.nvm_admit_useful_frac"] = ratio(d(ba.HitNVM, bb.HitNVM), d(ba.SSDToNVM+ba.DRAMToNVM, bb.SSDToNVM+bb.DRAMToNVM))
	p.layer["core.fg_evicts_per_op"] = ratio(d(ba.ForegroundEvicts, bb.ForegroundEvicts), ops)
	p.layer["core.cleaner_cleaned_per_op"] = ratio(d(ba.CleanerCleanedDRAM+ba.CleanerCleanedNVM, bb.CleanerCleanedDRAM+bb.CleanerCleanedNVM), ops)
	p.layer["core.cleaner_stalls"] = d(ba.CleanerStalls, bb.CleanerStalls)
	p.layer["core.free_steals_per_op"] = ratio(d(ba.DRAMFreeSteals+ba.NVMFreeSteals, bb.DRAMFreeSteals+bb.NVMFreeSteals), ops)
	p.layer["core.inclusivity"] = s.bm.Inclusivity()

	attempts := d(a.commits+a.aborts, b.commits+b.aborts)
	p.layer["mvto.abort_frac"] = ratio(d(a.aborts, b.aborts), attempts)
	commits := d(a.wcom, b.wcom)
	p.layer["wal.appends_per_commit"] = ratio(d(a.appends, b.appends), commits)
	p.layer["wal.flushes_per_kcommit"] = 1000 * ratio(d(a.flushes, b.flushes), commits)
	p.layer["wal.log_bytes_per_op"] = ratio(float64(b.logLen-a.logLen), ops)

	p.layer["device.nvm_read_bytes_per_op"] = ratio(d(a.nvmR, b.nvmR), ops)
	p.layer["device.ssd_read_bytes_per_op"] = ratio(d(a.ssdR, b.ssdR), ops)
	p.layer["device.ssd_write_bytes_per_op"] = ratio(d(a.ssdW, b.ssdW), ops)
	p.layer["device.nvm_write_ops_per_op"] = ratio(d(a.nvmWOps, b.nvmWOps), ops)

	p.layer["go.alloc_bytes_per_op"] = ratio(b.rt.allocBytes-a.rt.allocBytes, ops)
	p.layer["go.allocs_per_op"] = ratio(b.rt.allocObjs-a.rt.allocObjs, ops)
	p.layer["go.gc_cpu_frac"] = ratio(b.rt.gcCPU-a.rt.gcCPU, b.rt.totalCPU-a.rt.totalCPU)

	if live := s.tb.Index().Len(); live > 0 {
		p.layer["engine.table_pages_per_live_key"] = float64(len(s.tb.Pages())) / float64(live)
	}
}
