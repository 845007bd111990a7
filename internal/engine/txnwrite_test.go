package engine

import (
	"bytes"
	"encoding/binary"
	"errors"
	"testing"

	"github.com/spitfire-db/spitfire/internal/core"
	"github.com/spitfire-db/spitfire/internal/device"
	"github.com/spitfire-db/spitfire/internal/pmem"
	"github.com/spitfire-db/spitfire/internal/policy"
	"github.com/spitfire-db/spitfire/internal/ssd"
	"github.com/spitfire-db/spitfire/internal/vclock"
	"github.com/spitfire-db/spitfire/internal/wal"
)

// readKey reads key in a fresh transaction; ok is false on ErrNotFound.
func readKey(t *testing.T, db *DB, tb *Table, ctx *core.Ctx, key uint64) (payload []byte, ok bool) {
	t.Helper()
	txn := db.Begin()
	defer txn.Commit(ctx)
	buf := make([]byte, tb.tupleSize)
	err := tb.Read(ctx, txn, key, buf)
	if errors.Is(err, ErrNotFound) {
		return nil, false
	}
	if err != nil {
		t.Fatalf("read key %d: %v", key, err)
	}
	return buf, true
}

// TestDeleteThenWriteSameTxn: an insert or update of a key the same
// transaction deleted revives its slot; commit keeps the last write and the
// index entry, abort restores the state before the transaction.
func TestDeleteThenWriteSameTxn(t *testing.T) {
	db := newTestDB(t, true)
	tb, _ := db.CreateTable(1, "kv", testTupleSize)
	ctx := newCtx(51)
	tb.Load(ctx, 4, func(i uint64, p []byte) uint64 { copy(p, payloadFor(i, 1)); return i })

	run := func(name string, commit bool, steps func(txn *Txn) error) {
		t.Helper()
		txn := db.Begin()
		if err := steps(txn); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		end := txn.Abort
		if commit {
			end = txn.Commit
		}
		if err := end(ctx); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
	expect := func(name string, key uint64, version byte) {
		t.Helper()
		got, ok := readKey(t, db, tb, ctx, key)
		_, indexed := tb.index.Get(key)
		if version == 0 {
			if ok || indexed {
				t.Fatalf("%s: key %d present (indexed %v), want gone", name, key, indexed)
			}
			return
		}
		if !ok || !bytes.Equal(got, payloadFor(key, version)) {
			t.Fatalf("%s: key %d = %v (found %v), want version %d", name, key, got, ok, version)
		}
	}

	run("delete+insert", true, func(txn *Txn) error {
		if err := tb.Delete(ctx, txn, 0); err != nil {
			return err
		}
		if err := tb.Insert(ctx, txn, 0, payloadFor(0, 2)); err != nil {
			return err
		}
		buf := make([]byte, testTupleSize)
		if err := tb.Read(ctx, txn, 0, buf); err != nil || buf[9] != 2 {
			t.Fatalf("own read after revive: %v version %d", err, buf[9])
		}
		return nil
	})
	expect("delete+insert", 0, 2)

	run("delete+update aborted", false, func(txn *Txn) error {
		if err := tb.Delete(ctx, txn, 1); err != nil {
			return err
		}
		return tb.Update(ctx, txn, 1, payloadFor(1, 3))
	})
	expect("delete+update aborted", 1, 1)

	run("insert+delete+insert", true, func(txn *Txn) error {
		for _, step := range []func() error{
			func() error { return tb.Insert(ctx, txn, 50, payloadFor(50, 1)) },
			func() error { return tb.Delete(ctx, txn, 50) },
			func() error { return tb.Insert(ctx, txn, 50, payloadFor(50, 4)) },
		} {
			if err := step(); err != nil {
				return err
			}
		}
		return nil
	})
	expect("insert+delete+insert", 50, 4)

	run("insert+delete+insert aborted", false, func(txn *Txn) error {
		if err := tb.Insert(ctx, txn, 51, payloadFor(51, 1)); err != nil {
			return err
		}
		if err := tb.Delete(ctx, txn, 51); err != nil {
			return err
		}
		return tb.Insert(ctx, txn, 51, payloadFor(51, 2))
	})
	expect("insert+delete+insert aborted", 51, 0)

	run("delete+update+delete", true, func(txn *Txn) error {
		if err := tb.Delete(ctx, txn, 2); err != nil {
			return err
		}
		if err := tb.Delete(ctx, txn, 2); !errors.Is(err, ErrNotFound) {
			t.Fatalf("second delete: %v, want ErrNotFound", err)
		}
		if err := tb.Update(ctx, txn, 2, payloadFor(2, 5)); err != nil {
			return err
		}
		return tb.Delete(ctx, txn, 2)
	})
	expect("delete+update+delete", 2, 0)

	// A slot tombstoned by a committed delete stays dead to other writers.
	run("update of committed delete", true, func(txn *Txn) error {
		if err := tb.Update(ctx, txn, 2, payloadFor(2, 6)); !errors.Is(err, ErrNotFound) {
			t.Fatalf("update after committed delete: %v, want ErrNotFound", err)
		}
		return nil
	})
	expect("untouched", 3, 1)
}

// TestDeleteThenWriteSecondaryIndex: reviving a deleted row moves its
// secondary entry to the new payload's derived key at commit, and an abort
// leaves the entry where it was.
func TestDeleteThenWriteSecondaryIndex(t *testing.T) {
	db := newTestDB(t, true)
	tb, _ := db.CreateTable(1, "kv", testTupleSize)
	ix, err := AddSecondaryIndex(tb, "ver", func(pk uint64, p []byte) uint64 { return uint64(p[9])<<32 | pk })
	if err != nil {
		t.Fatal(err)
	}
	ctx := newCtx(52)
	tb.Load(ctx, 3, func(i uint64, p []byte) uint64 { copy(p, payloadFor(i, 1)); return i })
	entry := func(key uint64, version byte) bool {
		pk, ok := ix.Lookup(uint64(version)<<32 | key)
		return ok && pk == key
	}

	for _, c := range []struct {
		key     uint64
		version byte // version of the re-put row
		commit  bool
	}{
		{0, 2, true},  // derived key changes
		{1, 1, true},  // derived key stays
		{2, 3, false}, // aborted
	} {
		txn := db.Begin()
		if err := tb.Delete(ctx, txn, c.key); err != nil {
			t.Fatal(err)
		}
		if err := tb.Insert(ctx, txn, c.key, payloadFor(c.key, c.version)); err != nil {
			t.Fatal(err)
		}
		if c.commit {
			err = txn.Commit(ctx)
		} else {
			err = txn.Abort(ctx)
		}
		if err != nil {
			t.Fatal(err)
		}
		want := c.version
		if !c.commit {
			want = 1
		}
		if !entry(c.key, want) {
			t.Fatalf("key %d: no secondary entry for version %d", c.key, want)
		}
		if want != 1 && entry(c.key, 1) {
			t.Fatalf("key %d: stale secondary entry for version 1", c.key)
		}
		if want != c.version && entry(c.key, c.version) {
			t.Fatalf("key %d: aborted secondary entry for version %d", c.key, c.version)
		}
	}
	if ix.Len() != 3 {
		t.Fatalf("secondary index has %d entries, want 3", ix.Len())
	}
}

// crashRig is a database over crash-tracked NVM arenas that can be crashed
// and recovered.
type crashRig struct {
	data, logBuf *pmem.PMem
	disk         *ssd.MemStore
	logStore     *wal.MemLog
	cfg          core.Config
	walOpts      wal.Options
	schema       []TableDef
	db           *DB
}

func newCrashRig(t *testing.T, pol policy.Policy, schema ...TableDef) *crashRig {
	t.Helper()
	return newCrashRigLog(t, pol, nil, 0, schema...)
}

// newCrashRigLog is newCrashRig with the log store on logDev (nil for no
// device model) and the WAL's flush threshold set to threshold (0 for the
// default).
func newCrashRigLog(t *testing.T, pol policy.Policy, logDev *device.Device, threshold int64, schema ...TableDef) *crashRig {
	t.Helper()
	r := &crashRig{
		data:     pmem.New(pmem.Options{Size: 32 * (core.PageSize + 64), TrackCrashes: true}),
		logBuf:   pmem.New(pmem.Options{Size: 1 << 18, TrackCrashes: true}),
		disk:     ssd.NewMem(nil),
		logStore: wal.NewMemLog(logDev),
		schema:   schema,
	}
	r.walOpts = wal.Options{Buffer: r.logBuf, Store: r.logStore, FlushThreshold: threshold}
	r.cfg = core.Config{
		DRAMBytes: 8 * core.PageSize,
		NVMBytes:  r.data.Size(),
		Policy:    pol,
		PMem:      r.data,
		SSD:       r.disk,
	}
	bm, err := core.New(r.cfg)
	if err != nil {
		t.Fatal(err)
	}
	w, err := wal.New(r.walOpts)
	if err != nil {
		t.Fatal(err)
	}
	if r.db, err = Open(Options{BM: bm, WAL: w}); err != nil {
		t.Fatal(err)
	}
	for _, def := range schema {
		if _, err := r.db.CreateTable(def.ID, def.Name, def.TupleSize); err != nil {
			t.Fatal(err)
		}
	}
	return r
}

// crash drops every unpersisted NVM write and recovers the database.
func (r *crashRig) crash(t *testing.T) (*DB, *wal.RecoveredLog) {
	t.Helper()
	r.data.Crash()
	r.logBuf.Crash()
	bm, err := core.Recover(r.cfg)
	if err != nil {
		t.Fatal(err)
	}
	db, rl, err := Recover(NewRecoveryCtx(), RecoverOptions{
		BM:     bm,
		WAL:    r.walOpts,
		Schema: r.schema,
	})
	if err != nil {
		t.Fatal(err)
	}
	r.db = db
	return db, rl
}

var kvDef = TableDef{ID: 1, Name: "kv", TupleSize: testTupleSize}

// TestRecoverDataOnlyLoser: transactions log no BEGIN record, so a loser's
// log holds only data records, the first with PrevLSN 0. Recovery still
// finds and undoes it: its update is rolled back and its uncommitted insert
// leaves an all-zero slot.
func TestRecoverDataOnlyLoser(t *testing.T) {
	r := newCrashRig(t, policy.SpitfireLazy, kvDef)
	tb := r.db.Table(1)
	ctx := newCtx(53)
	tb.Load(ctx, 8, func(i uint64, p []byte) uint64 { copy(p, payloadFor(i, 1)); return i })

	won := r.db.Begin()
	if err := tb.Update(ctx, won, 3, payloadFor(3, 2)); err != nil {
		t.Fatal(err)
	}
	if err := won.Commit(ctx); err != nil {
		t.Fatal(err)
	}
	loser := r.db.Begin()
	if err := tb.Update(ctx, loser, 5, payloadFor(5, 9)); err != nil {
		t.Fatal(err)
	}
	if err := tb.Insert(ctx, loser, 100, payloadFor(100, 9)); err != nil {
		t.Fatal(err)
	}
	insRID, _ := tb.index.Get(100)

	db, rl := r.crash(t)
	if len(rl.Losers) != 1 || !rl.Losers[loser.TS()] {
		t.Fatalf("losers = %v, want only txn %d", rl.Losers, loser.TS())
	}
	first := map[uint64]bool{}
	for _, rec := range rl.Records {
		if rec.Type == wal.RecBegin {
			t.Fatalf("log holds a BEGIN record: %+v", rec)
		}
		if rec.TxnID != 0 && !first[rec.TxnID] {
			first[rec.TxnID] = true
			if rec.PrevLSN != 0 {
				t.Fatalf("first record of txn %d has PrevLSN %d, want 0", rec.TxnID, rec.PrevLSN)
			}
		}
	}
	// The loser's id must not be handed out again: recovery logged an ABORT
	// under it.
	if next := db.Begin(); next.TS() <= loser.TS() {
		t.Fatalf("post-recovery txn got ts %d, not past the loser's %d", next.TS(), loser.TS())
	}
	tb2 := db.Table(1)
	rctx := NewRecoveryCtx()
	if got, _ := readKey(t, db, tb2, rctx, 3); got[9] != 2 {
		t.Fatalf("committed update lost: version %d", got[9])
	}
	if got, _ := readKey(t, db, tb2, rctx, 5); got[9] != 1 {
		t.Fatalf("loser update survived: version %d", got[9])
	}
	if _, ok := readKey(t, db, tb2, rctx, 100); ok {
		t.Fatal("loser insert survived")
	}
	pid, slot := splitRID(insRID)
	h, err := db.bm.FetchPage(rctx, pid, core.ReadIntent)
	if err != nil {
		t.Fatal(err)
	}
	raw := make([]byte, slotSize(testTupleSize))
	err = h.ReadAt(rctx, slotOffset(testTupleSize, slot), raw)
	h.Release()
	if err != nil {
		t.Fatal(err)
	}
	if len(trimZeros(raw)) != 0 {
		t.Fatalf("undone insert left slot bytes %x", trimZeros(raw))
	}
}

// TestRecoverFailedFirstAppend: Append can persist a record and then fail
// its threshold flush. When that happens to a transaction's first record,
// the in-place write is skipped and the transaction aborts; the abort must
// still be logged, or recovery would take the transaction for a loser and
// undo its before-image over a later committed write of the same slot.
func TestRecoverFailedFirstAppend(t *testing.T) {
	logDev := device.New(device.SSDParams)
	logInj := device.NewInjector(device.FaultConfig{Seed: 0x3F1})
	logDev.SetFaults(logInj)
	// A one-byte threshold makes every append flush to the log store.
	r := newCrashRigLog(t, policy.SpitfireLazy, logDev, 1, kvDef)
	tb := r.db.Table(1)
	ctx := newCtx(59)
	tb.Load(ctx, 8, func(i uint64, p []byte) uint64 { copy(p, payloadFor(i, 1)); return i })

	logInj.Rearm(device.FaultConfig{Seed: 0x3F2, WriteErrProb: 1})
	failed := r.db.Begin()
	if err := tb.Update(ctx, failed, 3, payloadFor(3, 9)); !errors.Is(err, device.ErrTransient) {
		t.Fatalf("update with the log store faulting: %v, want device.ErrTransient", err)
	}
	logInj.Rearm(device.FaultConfig{Seed: 0x3F2})
	if err := failed.Abort(ctx); err != nil {
		t.Fatal(err)
	}
	won := r.db.Begin()
	if err := tb.Update(ctx, won, 3, payloadFor(3, 5)); err != nil {
		t.Fatal(err)
	}
	if err := won.Commit(ctx); err != nil {
		t.Fatal(err)
	}

	db, rl := r.crash(t)
	if !rl.Aborted[failed.TS()] || len(rl.Losers) != 0 {
		t.Fatalf("aborted = %v, losers = %v; want txn %d aborted and no losers", rl.Aborted, rl.Losers, failed.TS())
	}
	if got, _ := readKey(t, db, db.Table(1), NewRecoveryCtx(), 3); got[9] != 5 {
		t.Fatalf("key 3 recovered at version %d, want the committed 5", got[9])
	}
}

// TestDeleteThenPutRecovers: a committed delete-then-put survives a crash,
// and an uncommitted one is undone to the value before it.
func TestDeleteThenPutRecovers(t *testing.T) {
	r := newCrashRig(t, policy.SpitfireLazy, kvDef)
	tb := r.db.Table(1)
	ctx := newCtx(54)
	tb.Load(ctx, 4, func(i uint64, p []byte) uint64 { copy(p, payloadFor(i, 1)); return i })

	for _, c := range []struct {
		key    uint64
		commit bool
	}{{1, true}, {2, false}} {
		txn := r.db.Begin()
		if err := tb.Delete(ctx, txn, c.key); err != nil {
			t.Fatal(err)
		}
		if err := tb.Update(ctx, txn, c.key, payloadFor(c.key, 7)); err != nil {
			t.Fatal(err)
		}
		if c.commit {
			if err := txn.Commit(ctx); err != nil {
				t.Fatal(err)
			}
		}
	}
	db, _ := r.crash(t)
	rctx := NewRecoveryCtx()
	for key, want := range map[uint64]byte{1: 7, 2: 1} {
		got, ok := readKey(t, db, db.Table(1), rctx, key)
		if !ok || !bytes.Equal(got, payloadFor(key, want)) {
			t.Fatalf("key %d after recovery = %v (found %v), want version %d", key, got, ok, want)
		}
	}
}

// TestRecoverShrunkValue: log images are zero-trimmed, so replaying a
// shrinking KV put must zero-fill the slot tail: recovery returns exactly
// the short value, with nothing of the longer one left behind it.
func TestRecoverShrunkValue(t *testing.T) {
	const maxVal = 64
	// Eager migration puts the page in DRAM for every write, so the short
	// put's in-place write is lost in the crash.
	r := newCrashRig(t, policy.SpitfireEager, TableDef{ID: 7, Name: "kv", TupleSize: 2 + maxVal})
	ctx := newCtx(55)
	kv := &KV{db: r.db, tb: r.db.Table(7), maxVal: maxVal}
	put := func(val []byte) {
		txn := r.db.Begin()
		if err := kv.Put(ctx, txn, 9, val); err != nil {
			t.Fatal(err)
		}
		if err := txn.Commit(ctx); err != nil {
			t.Fatal(err)
		}
	}
	put(bytes.Repeat([]byte{0xAB}, maxVal))
	// Make the long version durable in place, so only redo of the short
	// put's trimmed after-image can clear its tail.
	if _, err := r.db.Checkpoint(ctx); err != nil {
		t.Fatal(err)
	}
	put([]byte("hi"))

	db, rl := r.crash(t)
	for _, rec := range rl.Records {
		if rec.Type == wal.RecUpdate && len(rec.After) != 16+2+2 {
			t.Fatalf("update after-image is %d bytes, want %d (zero-trimmed)", len(rec.After), 16+2+2)
		}
	}
	got, ok := readKey(t, db, db.Table(7), NewRecoveryCtx(), 9)
	want := make([]byte, 2+maxVal)
	binary.LittleEndian.PutUint16(want, 2)
	copy(want[2:], "hi")
	if !ok || !bytes.Equal(got, want) {
		t.Fatalf("recovered tuple = %x, want %x", got, want)
	}
}

// TestApplierZeroFillsImages: the recovery applier writes each image
// zero-filled to the whole slot, whatever the slot held before.
func TestApplierZeroFillsImages(t *testing.T) {
	db := newTestDB(t, false)
	tb, _ := db.CreateTable(1, "kv", testTupleSize)
	ctx := newCtx(56)
	tb.Load(ctx, 1, func(i uint64, p []byte) uint64 { copy(p, bytes.Repeat([]byte{0xFF}, len(p))); return i })
	rid, _ := tb.index.Get(0)
	pid, slot := splitRID(rid)
	ss := slotSize(testTupleSize)
	slotBytes := func() []byte {
		h, err := db.bm.FetchPage(ctx, pid, core.ReadIntent)
		if err != nil {
			t.Fatal(err)
		}
		defer h.Release()
		raw := make([]byte, ss)
		if err := h.ReadAt(ctx, slotOffset(testTupleSize, slot), raw); err != nil {
			t.Fatal(err)
		}
		return raw
	}
	img := make([]byte, 20)
	buildSlot(img, tupleHeader(3, false), 0, []byte{1, 2, 3, 4})
	rec := &wal.Record{TableID: 1, PageID: pid, Slot: uint16(slot), Before: nil, After: img}
	a := &applier{db: db, ctx: ctx}
	if err := a.ApplyRedo(nil, rec); err != nil {
		t.Fatal(err)
	}
	if got := slotBytes(); !bytes.Equal(got, fullSlot(img, ss)) {
		t.Fatalf("redo left slot %x", got)
	}
	if err := a.ApplyUndo(nil, rec); err != nil {
		t.Fatal(err)
	}
	if got := slotBytes(); len(trimZeros(got)) != 0 {
		t.Fatalf("undo to an empty image left slot %x", got)
	}
	rec.After = make([]byte, ss+1)
	if err := a.ApplyRedo(nil, rec); err == nil {
		t.Fatal("redo of an image longer than the slot succeeded")
	}
}

// TestUpdateTxnWriteBudget pins the device work of a one-key update
// transaction: exactly two WAL appends (the UPDATE and the COMMIT, no
// BEGIN), zero-trimmed images, and a fixed count of NVM writes.
func TestUpdateTxnWriteBudget(t *testing.T) {
	data := pmem.New(pmem.Options{Size: 32 * (core.PageSize + 64)})
	logBuf := pmem.New(pmem.Options{Size: 1 << 18})
	bm, err := core.New(core.Config{
		DRAMBytes: 8 * core.PageSize,
		NVMBytes:  data.Size(),
		Policy:    policy.SpitfireLazy,
		PMem:      data,
	})
	if err != nil {
		t.Fatal(err)
	}
	w, err := wal.New(wal.Options{Buffer: logBuf, Store: wal.NewMemLog(nil)})
	if err != nil {
		t.Fatal(err)
	}
	db, err := Open(Options{BM: bm, WAL: w})
	if err != nil {
		t.Fatal(err)
	}
	tb, _ := db.CreateTable(1, "kv", testTupleSize)
	ctx := newCtx(57)
	tb.Load(ctx, 4, func(i uint64, p []byte) uint64 { copy(p, payloadFor(i, 1)); return i })
	update := func(version byte) {
		txn := db.Begin()
		if err := tb.Update(ctx, txn, 2, payloadFor(2, version)); err != nil {
			t.Fatal(err)
		}
		if err := txn.Commit(ctx); err != nil {
			t.Fatal(err)
		}
	}
	update(2) // settle the page's tier

	appends0, _, commits0 := w.Stats()
	logOff := w.NextLSN()
	logDev0, dataDev0 := logBuf.Device().Stats(), data.Device().Stats()
	update(3)
	appends, _, commits := w.Stats()
	logDev, dataDev := logBuf.Device().Stats(), data.Device().Stats()

	if appends-appends0 != 2 || commits-commits0 != 1 {
		t.Fatalf("update txn made %d appends and %d commits, want 2 and 1", appends-appends0, commits-commits0)
	}
	var recs []wal.Record
	for _, rec := range wal.ScanBuffer(vclock.New(), logBuf) {
		if rec.LSN >= logOff {
			recs = append(recs, rec)
		}
	}
	// payloadFor sets bytes 0-7 and 9: 16 header/key bytes + 10 payload.
	const img = 16 + 10
	if len(recs) != 2 || recs[0].Type != wal.RecUpdate || recs[1].Type != wal.RecCommit ||
		recs[0].PrevLSN != 0 || len(recs[0].Before) != img || len(recs[0].After) != img {
		t.Fatalf("update txn logged %+v, want UPDATE (PrevLSN 0, %d-byte images) then COMMIT", recs, img)
	}
	// Each append writes its frame and then the extent word.
	if ops := logDev.WriteOps - logDev0.WriteOps; ops != 4 {
		t.Fatalf("log buffer write ops = %d, want 4", ops)
	}
	if b := logDev.BytesWritten - logDev0.BytesWritten; b != 1024 {
		t.Fatalf("log buffer bytes written = %d, want 1024 (four 256 B lines)", b)
	}
	if ops, b := dataDev.WriteOps-dataDev0.WriteOps, dataDev.BytesWritten-dataDev0.BytesWritten; ops != 0 || b != 0 {
		t.Fatalf("data arena writes = %d ops / %d B, want none (page in DRAM)", ops, b)
	}
}

// TestReadFaultLeavesVersion: a transient NVM fault on the slot read fails
// Table.Read and Table.Update with device.ErrTransient and changes nothing.
// The failed read records no read timestamp (an older writer still gets
// through), and the failed update leaves no writer behind.
func TestReadFaultLeavesVersion(t *testing.T) {
	nvmDev := device.New(device.NVMParams)
	inj := device.NewInjector(device.FaultConfig{Seed: 0x5107})
	nvmDev.SetFaults(inj)
	const nvmBytes = 16 * core.PageSize
	bm, err := core.New(core.Config{
		DRAMBytes: 2 * core.PageSize,
		NVMBytes:  nvmBytes,
		// Pages stay in NVM and are read there in place.
		Policy: policy.Policy{Dr: 0, Dw: 0, Nr: 1, Nw: 1},
		PMem:   pmem.New(pmem.Options{Size: nvmBytes, Device: nvmDev}),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer bm.Close()
	db, err := Open(Options{BM: bm})
	if err != nil {
		t.Fatal(err)
	}
	tb, _ := db.CreateTable(1, "kv", testTupleSize)
	ctx := newCtx(58)
	tb.Load(ctx, 4, func(i uint64, p []byte) uint64 { copy(p, payloadFor(i, 1)); return i })
	if h, err := bm.FetchPage(ctx, tb.Pages()[0], core.ReadIntent); err != nil {
		t.Fatal(err)
	} else {
		if h.Tier() != core.TierNVM {
			t.Fatalf("page is in %v; the test needs it read in place from NVM", h.Tier())
		}
		h.Release()
	}

	older := db.Begin()
	younger := db.Begin()
	buf := make([]byte, testTupleSize)
	inj.Rearm(device.FaultConfig{Seed: 0x5108, ReadErrProb: 1})
	if err := tb.Read(ctx, younger, 1, buf); !errors.Is(err, device.ErrTransient) {
		t.Fatalf("read under fault: %v, want device.ErrTransient", err)
	}
	if err := tb.Update(ctx, younger, 2, payloadFor(2, 9)); !errors.Is(err, device.ErrTransient) {
		t.Fatalf("update under fault: %v, want device.ErrTransient", err)
	}
	inj.Rearm(device.FaultConfig{Seed: 0x5109})
	if err := younger.Abort(ctx); err != nil {
		t.Fatal(err)
	}

	if err := tb.Update(ctx, older, 1, payloadFor(1, 2)); err != nil {
		t.Fatalf("older writer after a failed younger read: %v", err)
	}
	if err := tb.Update(ctx, older, 2, payloadFor(2, 2)); err != nil {
		t.Fatalf("writer after a failed update: %v", err)
	}
	if err := older.Commit(ctx); err != nil {
		t.Fatal(err)
	}
	for key, want := range map[uint64]byte{1: 2, 2: 2, 3: 1} {
		if got, ok := readKey(t, db, tb, ctx, key); !ok || !bytes.Equal(got, payloadFor(key, want)) {
			t.Fatalf("key %d = %v, want version %d", key, got, want)
		}
	}
	if inj.Stats().ReadErrors == 0 {
		t.Fatal("no read fault reached the device")
	}
}

// TestShrinkingUpdateClearsTail: the in-place write covers only the longer
// of the two zero-trimmed images, which still clears every byte the old
// version used past the new one's end; an abort restores the long version
// in full.
func TestShrinkingUpdateClearsTail(t *testing.T) {
	db := newTestDB(t, true)
	tb, _ := db.CreateTable(1, "kv", testTupleSize)
	ctx := newCtx(59)
	long := bytes.Repeat([]byte{0xEE}, testTupleSize)
	tb.Load(ctx, 1, func(i uint64, p []byte) uint64 { copy(p, long); return i })
	for _, commit := range []bool{false, true} {
		txn := db.Begin()
		if err := tb.Update(ctx, txn, 0, payloadFor(0, 3)); err != nil {
			t.Fatal(err)
		}
		buf := make([]byte, testTupleSize)
		if err := tb.Read(ctx, txn, 0, buf); err != nil || !bytes.Equal(buf, payloadFor(0, 3)) {
			t.Fatalf("own read of the short version = %x (%v)", buf, err)
		}
		want, end := long, txn.Abort
		if commit {
			want, end = payloadFor(0, 3), txn.Commit
		}
		if err := end(ctx); err != nil {
			t.Fatal(err)
		}
		if got, _ := readKey(t, db, tb, ctx, 0); !bytes.Equal(got, want) {
			t.Fatalf("commit=%v: key 0 = %x, want %x", commit, got, want)
		}
	}
}
