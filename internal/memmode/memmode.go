// Package memmode simulates Optane DC PMMs configured in *memory mode*
// (§2.2 and §6.2 of the paper): the DRAM DIMMs act as a hardware-managed,
// direct-mapped, write-back L4 cache in front of the (larger) NVM capacity,
// and software sees a single volatile memory device of NVM's size.
//
// The simulation operates at a configurable cache-line size (4 KB by
// default, coarse enough to keep the tag array small and fine enough to
// capture the capacity cliff in Figure 5):
//
//   - hit  → DRAM latency/bandwidth,
//   - miss → NVM fill (+ a write-back of the displaced line when dirty),
//     then DRAM-speed service of the access itself.
//
// The buffer manager treats a memory-mode device exactly like DRAM — which
// is the point: memory mode needs no software changes, but it cannot expose
// persistence, so Spitfire's app-direct configuration wins once that
// matters (§6.2).
package memmode

import (
	"sync"

	"github.com/spitfire-db/spitfire/internal/device"
	"github.com/spitfire-db/spitfire/internal/vclock"
)

// Device is a memory-mode "DRAM cache over NVM" cost model. It implements
// the same Read/Write charging interface as device.Device and is safe for
// concurrent use.
type Device struct {
	dram *device.Device
	nvm  *device.Device

	lineSize int64
	nSets    int64

	mu    sync.Mutex
	tags  []int64 // per set: which line index is cached (-1 = empty)
	dirty []bool
}

// Options configures the memory-mode device.
type Options struct {
	// DRAMBytes is the capacity of the hardware cache (the installed DRAM).
	DRAMBytes int64
	// LineSize is the cache-line granularity; defaults to 4096.
	LineSize int64
	// DRAM and NVM override the underlying cost models (nil = Table 1).
	DRAM, NVM *device.Device
}

// New creates a memory-mode device.
func New(opts Options) *Device {
	if opts.LineSize <= 0 {
		opts.LineSize = 4096
	}
	if opts.DRAM == nil {
		opts.DRAM = device.New(device.DRAMParams)
	}
	if opts.NVM == nil {
		opts.NVM = device.New(device.NVMParams)
	}
	nSets := opts.DRAMBytes / opts.LineSize
	if nSets < 1 {
		nSets = 1
	}
	d := &Device{
		dram:     opts.DRAM,
		nvm:      opts.NVM,
		lineSize: opts.LineSize,
		nSets:    nSets,
		tags:     make([]int64, nSets),
		dirty:    make([]bool, nSets),
	}
	for i := range d.tags {
		d.tags[i] = -1
	}
	return d
}

// NVMDevice returns the underlying NVM cost model.
func (d *Device) NVMDevice() *device.Device { return d.nvm }

// access walks the lines covered by [off, off+n) and charges misses;
// isWrite marks touched lines dirty.
func (d *Device) access(c *vclock.Clock, off int64, n int, isWrite bool) {
	first := off / d.lineSize
	last := (off + int64(n) - 1) / d.lineSize
	for line := first; line <= last; line++ {
		set := line % d.nSets
		d.mu.Lock()
		hit := d.tags[set] == line
		var writeback bool
		if !hit {
			writeback = d.dirty[set] && d.tags[set] >= 0
			d.tags[set] = line
			d.dirty[set] = isWrite
		} else if isWrite {
			d.dirty[set] = true
		}
		d.mu.Unlock()
		if !hit {
			if writeback {
				d.nvm.Write(c, int(d.lineSize))
			}
			d.nvm.Read(c, int(d.lineSize))
		}
	}
}

// Read charges a read of n bytes at offset off.
func (d *Device) Read(c *vclock.Clock, off int64, n int) {
	d.access(c, off, n, false)
	d.dram.Read(c, n)
}

// Write charges a write of n bytes at offset off.
func (d *Device) Write(c *vclock.Clock, off int64, n int) {
	d.access(c, off, n, true)
	d.dram.Write(c, n)
}

// HitRatio reports the fraction of the cache currently populated (a cheap
// occupancy proxy used by tests).
func (d *Device) HitRatio() float64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	used := 0
	for _, t := range d.tags {
		if t >= 0 {
			used++
		}
	}
	return float64(used) / float64(d.nSets)
}
