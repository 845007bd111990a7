package engine

import (
	"encoding/binary"
	"errors"
	"fmt"
	"slices"

	"github.com/spitfire-db/spitfire/internal/btree"
	"github.com/spitfire-db/spitfire/internal/core"
	"github.com/spitfire-db/spitfire/internal/wal"
)

// Table is a heap of fixed-size tuples with a B+Tree primary index.
type Table struct {
	db        *DB
	id        uint32
	name      string
	tupleSize int
	slots     int // slots per page

	index *btree.Tree[uint64]

	allocMu  chan struct{} // binary semaphore guarding the allocation cursor
	curPage  core.PageID
	curSlot  int
	havePage bool
	pages    map[core.PageID]bool
	pageList []core.PageID

	secondaries []secondary
}

func newTable(db *DB, id uint32, name string, tupleSize int) *Table {
	tb := &Table{
		db:        db,
		id:        id,
		name:      name,
		tupleSize: tupleSize,
		slots:     slotsPerPage(tupleSize),
		index:     btree.New[uint64](),
		allocMu:   make(chan struct{}, 1),
		pages:     make(map[core.PageID]bool),
	}
	tb.allocMu <- struct{}{}
	return tb
}

// ID returns the table id.
func (tb *Table) ID() uint32 { return tb.id }

// Name returns the table name.
func (tb *Table) Name() string { return tb.name }

// TupleSize returns the tuple payload size.
func (tb *Table) TupleSize() int { return tb.tupleSize }

// Index exposes the primary index (key → RID) for range scans.
func (tb *Table) Index() *btree.Tree[uint64] { return tb.index }

// Pages returns a snapshot of the table's page list.
func (tb *Table) Pages() []core.PageID {
	<-tb.allocMu
	out := append([]core.PageID(nil), tb.pageList...)
	tb.allocMu <- struct{}{}
	return out
}

func (tb *Table) ownsPage(pid core.PageID) bool {
	<-tb.allocMu
	ok := tb.pages[pid]
	tb.allocMu <- struct{}{}
	return ok
}

// registerPage records a page as belonging to this table (loader/recovery).
func (tb *Table) registerPage(pid core.PageID) {
	<-tb.allocMu
	if !tb.pages[pid] {
		tb.pages[pid] = true
		tb.pageList = append(tb.pageList, pid)
	}
	tb.allocMu <- struct{}{}
}

// allocRID reserves a fresh slot, creating (and header-initializing) a new
// page through the buffer manager when the current one fills up.
func (tb *Table) allocRID(ctx *core.Ctx) (RID, error) {
	<-tb.allocMu
	defer func() { tb.allocMu <- struct{}{} }()
	if !tb.havePage || tb.curSlot >= tb.slots {
		pid, h, err := tb.db.bm.NewPage(ctx)
		if err != nil {
			return 0, err
		}
		var hdr [pageHeaderSize]byte
		encodePageHeader(hdr[:], tb.id, tb.tupleSize)
		if err := h.WriteAt(ctx, 0, hdr[:]); err != nil {
			h.Release()
			return 0, err
		}
		h.Release()
		tb.curPage, tb.curSlot, tb.havePage = pid, 0, true
		tb.pages[pid] = true
		tb.pageList = append(tb.pageList, pid)
	}
	rid := makeRID(tb.curPage, tb.curSlot)
	tb.curSlot++
	return rid, nil
}

// readSlot copies slot's full image into buf (one slot's worth of bytes)
// and returns the write timestamp in its tuple header. MVTO calls it under
// the tuple latch, so the image stays the in-place version the visibility
// decision was made on.
func (tb *Table) readSlot(ctx *core.Ctx, h *core.Handle, slot int, buf []byte) (uint64, error) {
	if err := h.ReadAt(ctx, slotOffset(tb.tupleSize, slot), buf); err != nil {
		return 0, err
	}
	wts, _, _ := parseTupleHeader(binary.LittleEndian.Uint64(buf))
	return wts, nil
}

// writeSlot installs after over before (both full slot images) under the
// tuple latch. It logs both images with their trailing zeros trimmed and
// rewrites only the bytes either version occupies: everything past them is
// zero on the page and in after alike. It returns the trimmed before-image
// for the version store.
func (tb *Table) writeSlot(ctx *core.Ctx, txn *Txn, h *core.Handle, typ wal.RecordType, pid core.PageID, slot int, before, after []byte) ([]byte, error) {
	b, a := trimZeros(before), trimZeros(after)
	if err := txn.log(ctx, &wal.Record{
		Type: typ, TableID: tb.id, PageID: pid, Slot: uint16(slot),
		Before: b, After: a,
	}); err != nil {
		return nil, err
	}
	n := max(len(b), len(a))
	if err := h.WriteAt(ctx, slotOffset(tb.tupleSize, slot), after[:n]); err != nil {
		return nil, err
	}
	return b, nil
}

// slotBuffers returns a before and an after slot image backed by one
// allocation.
func (tb *Table) slotBuffers() (before, after []byte) {
	ss := slotSize(tb.tupleSize)
	buf := make([]byte, 2*ss)
	return buf[:ss:ss], buf[ss:]
}

// Insert adds a tuple under key. It fails if the key already exists, unless
// this transaction deleted it: then the insert revives the deleted slot.
func (tb *Table) Insert(ctx *core.Ctx, txn *Txn, key uint64, payload []byte) error {
	if len(payload) != tb.tupleSize {
		return fmt.Errorf("engine: %s: payload is %d bytes, want %d", tb.name, len(payload), tb.tupleSize)
	}
	if rid, exists := tb.index.Get(key); exists {
		if txn.pendingDelete(tb, key) < 0 {
			return fmt.Errorf("engine: %s: duplicate key %d", tb.name, key)
		}
		return tb.writeRID(ctx, txn, rid, key, payload, false)
	}
	tb.db.chargeCompute(ctx)
	rid, err := tb.allocRID(ctx)
	if err != nil {
		return err
	}
	pid, slot := splitRID(rid)
	h, err := tb.db.bm.FetchPage(ctx, pid, core.WriteIntent)
	if err != nil {
		return err
	}
	defer h.Release()

	before, after := tb.slotBuffers()
	err = tb.db.tm.Write(txn.inner, rid,
		func() (uint64, error) { return tb.readSlot(ctx, h, slot, before) },
		func() ([]byte, error) {
			buildSlot(after, tupleHeader(txn.inner.TS, false), key, payload)
			return tb.writeSlot(ctx, txn, h, wal.RecInsert, pid, slot, before, after)
		})
	if err != nil {
		return err
	}
	tb.index.Insert(key, rid)
	txn.idxInserts = append(txn.idxInserts, idxOp{table: tb, key: key})
	for _, sec := range tb.secondaries {
		sec.onInsert(txn, key, payload)
	}
	return nil
}

// Read copies the tuple under key into buf (tupleSize bytes), honoring MVTO
// visibility.
func (tb *Table) Read(ctx *core.Ctx, txn *Txn, key uint64, buf []byte) error {
	rid, ok := tb.index.Get(key)
	if !ok {
		return fmt.Errorf("%w: %s key %d", ErrNotFound, tb.name, key)
	}
	return tb.ReadRID(ctx, txn, rid, buf)
}

// ReadRID reads the tuple at rid.
func (tb *Table) ReadRID(ctx *core.Ctx, txn *Txn, rid RID, buf []byte) error {
	if len(buf) != tb.tupleSize {
		return fmt.Errorf("engine: %s: read buffer is %d bytes, want %d", tb.name, len(buf), tb.tupleSize)
	}
	pid, slot := splitRID(rid)
	if err := validateSlot(tb.tupleSize, slot); err != nil {
		return err
	}
	tb.db.chargeCompute(ctx)
	h, err := tb.db.bm.FetchPage(ctx, pid, core.ReadIntent)
	if err != nil {
		return err
	}
	defer h.Release()

	raw := make([]byte, slotSize(tb.tupleSize))
	return tb.db.tm.Read(txn.inner, rid,
		func() (uint64, error) { return tb.readSlot(ctx, h, slot, raw) },
		func(hist []byte) error {
			if hist != nil {
				// Version-store images are zero-trimmed.
				clear(raw[copy(raw, hist):])
			}
			img := parseSlot(raw)
			_, occupied, tomb := parseTupleHeader(img.header)
			if !occupied || tomb {
				return fmt.Errorf("%w: %s rid %d", ErrNotFound, tb.name, rid)
			}
			copy(buf, img.payload)
			return nil
		})
}

// Update overwrites the tuple under key, honoring MVTO write rules. A key
// this transaction deleted is revived.
func (tb *Table) Update(ctx *core.Ctx, txn *Txn, key uint64, payload []byte) error {
	if len(payload) != tb.tupleSize {
		return fmt.Errorf("engine: %s: payload is %d bytes, want %d", tb.name, len(payload), tb.tupleSize)
	}
	rid, ok := tb.index.Get(key)
	if !ok {
		return fmt.Errorf("%w: %s key %d", ErrNotFound, tb.name, key)
	}
	return tb.writeRID(ctx, txn, rid, key, payload, false)
}

// Delete tombstones the tuple under key. The index entry is removed at
// commit so older snapshots can still locate prior versions.
func (tb *Table) Delete(ctx *core.Ctx, txn *Txn, key uint64) error {
	rid, ok := tb.index.Get(key)
	if !ok {
		return fmt.Errorf("%w: %s key %d", ErrNotFound, tb.name, key)
	}
	return tb.writeRID(ctx, txn, rid, key, nil, true)
}

// writeRID applies an update or a delete (tombstone) at rid. An update of a
// slot this transaction tombstoned revives it and cancels the pending
// index removal.
func (tb *Table) writeRID(ctx *core.Ctx, txn *Txn, rid RID, key uint64, payload []byte, tombstone bool) error {
	pid, slot := splitRID(rid)
	if err := validateSlot(tb.tupleSize, slot); err != nil {
		return err
	}
	tb.db.chargeCompute(ctx)
	h, err := tb.db.bm.FetchPage(ctx, pid, core.WriteIntent)
	if err != nil {
		return err
	}
	defer h.Release()

	recType := wal.RecUpdate
	if tombstone {
		recType = wal.RecDelete
	}
	before, after := tb.slotBuffers()
	revive := -1 // index of the pending delete this write cancels
	err = tb.db.tm.Write(txn.inner, rid,
		func() (uint64, error) { return tb.readSlot(ctx, h, slot, before) },
		func() ([]byte, error) {
			_, occupied, tomb := parseTupleHeader(binary.LittleEndian.Uint64(before))
			if !occupied || tomb {
				if occupied && !tombstone {
					revive = txn.pendingDelete(tb, key)
				}
				if revive < 0 {
					return nil, fmt.Errorf("%w: %s rid %d", ErrNotFound, tb.name, rid)
				}
			}
			buildSlot(after, tupleHeader(txn.inner.TS, tombstone), key, payload)
			return tb.writeSlot(ctx, txn, h, recType, pid, slot, before, after)
		})
	if err != nil {
		return err
	}
	prev := parseSlot(before).payload // the replaced version's payload
	if revive >= 0 {
		prev = txn.idxDeletes[revive].payload
		txn.idxDeletes = slices.Delete(txn.idxDeletes, revive, revive+1)
	}
	if tombstone {
		txn.idxDeletes = append(txn.idxDeletes, idxOp{table: tb, key: key, payload: prev})
		return nil
	}
	for _, sec := range tb.secondaries {
		sec.onUpdate(txn, key, prev, payload)
	}
	return nil
}

// ScanKeys visits index entries with key >= from in ascending order until
// fn returns false. Tuples are read separately via ReadRID under the
// caller's transaction.
func (tb *Table) ScanKeys(from uint64, fn func(key uint64, rid RID) bool) {
	tb.index.Scan(from, fn)
}

// Scan visits live tuples with key >= from in primary-key order under the
// transaction's snapshot, until fn returns false. Tuples invisible to the
// snapshot (deleted, or inserted by concurrent transactions) are skipped;
// a visibility conflict aborts the scan with ErrConflict.
func (tb *Table) Scan(ctx *core.Ctx, txn *Txn, from uint64, fn func(key uint64, payload []byte) bool) error {
	buf := make([]byte, tb.tupleSize)
	var scanErr error
	tb.index.Scan(from, func(key uint64, rid RID) bool {
		err := tb.ReadRID(ctx, txn, rid, buf)
		if err != nil {
			if errors.Is(err, ErrNotFound) {
				return true // invisible to this snapshot; keep going
			}
			scanErr = err
			return false
		}
		return fn(key, buf)
	})
	return scanErr
}
