package core

import (
	"runtime"
	"sync"
)

// noFrame marks an empty frame slot in a descriptor.
const noFrame = int32(-1)

// descriptor is the shared page descriptor of §5.1 (Figure 4): one exists
// per logical page known to the mapping table. It records where copies of
// the page live and carries one latch per storage tier for thread-safe
// migration.
//
// Its latches are ranked and ordered by the rules in
// internal/lockcheck/rules.go; the frame-slot fields are read and written
// only under mu.
type descriptor struct {
	pid PageID

	// latchD/latchN/latchS guard migrations into/out of the DRAM, NVM and
	// SSD copies of this page, respectively.
	latchD, latchN, latchS sync.Mutex

	mu        sync.Mutex
	dramFrame int32 // full DRAM frame index, or noFrame
	dramMini  int32 // mini DRAM frame index, or noFrame
	nvmFrame  int32 // NVM frame index, or noFrame
}

func newDescriptor(pid PageID) *descriptor {
	return &descriptor{pid: pid, dramFrame: noFrame, dramMini: noFrame, nvmFrame: noFrame}
}

// location is a snapshot of the descriptor's frame slots.
type location struct {
	dramFrame, dramMini, nvmFrame int32
}

// load snapshots the frame slots under mu.
func (d *descriptor) load() location {
	d.lockMu()
	l := location{d.dramFrame, d.dramMini, d.nvmFrame}
	d.unlockMu()
	return l
}

// descriptorFor returns (creating if needed) the shared descriptor of pid.
func (bm *BufferManager) descriptorFor(pid PageID) *descriptor {
	d, _ := bm.table.GetOrInsert(pid, func() *descriptor { return newDescriptor(pid) })
	return d
}

// waitBudget bounds the spin-waits used when draining pins off a frame
// before migrating or overwriting it. On exhaustion the caller falls back
// to a non-blocking plan (skip the victim, or serve the access in place),
// which keeps the manager deadlock-free even if a caller violates the
// single-pin discipline.
const waitBudget = 1 << 14

// backoff yields the processor inside spin loops.
func backoff(i int) {
	if i%64 == 63 {
		runtime.Gosched()
	}
}
