package wal

import (
	"fmt"
	"sort"

	"github.com/spitfire-db/spitfire/internal/pmem"
	"github.com/spitfire-db/spitfire/internal/vclock"
)

// Applier applies redo/undo images to pages. The storage engine implements
// it on top of the (already reconstructed) buffer manager; redo must be
// idempotent via page-LSN comparison.
type Applier interface {
	// ApplyRedo reinstalls rec's after-image if the page's LSN is older
	// than rec.LSN.
	ApplyRedo(c *vclock.Clock, rec *Record) error
	// ApplyUndo restores rec's before-image unconditionally. Recovery is
	// single-threaded and calls it newest first: for an aborted
	// transaction's records when redo reaches its ABORT, and for losers'
	// records after redo.
	ApplyUndo(c *vclock.Clock, rec *Record) error
}

// RecoveryStats surfaces what the log scans had to tolerate. A clean
// shutdown recovers with every damage counter at zero; after injected
// faults, these counters are how a torture harness distinguishes "recovery
// coped with the mess" from "the mess never happened".
type RecoveryStats struct {
	// BufferRecords / FileRecords count records recovered from the NVM
	// buffer tail and the SSD log file respectively.
	BufferRecords int
	FileRecords   int
	// ChecksumMismatches counts damaged regions encountered: torn records
	// in the buffer tail and corrupt stretches of the file the resync scan
	// skipped past.
	ChecksumMismatches int
	// SkippedBytes counts file bytes skipped to resync past damage (a torn
	// store.Append whose batch a later retry re-appended in full).
	SkippedBytes int
	// TruncatedTailBytes counts trailing bytes discarded as a torn tail
	// (buffer or file) with no valid record after them.
	TruncatedTailBytes int
	// DuplicateLSNs counts records dropped because they appeared twice —
	// the signature of a retried flush or a crash between the SSD append
	// and the buffer reset.
	DuplicateLSNs int
}

// RecoveredLog is the completed, parsed log plus the analysis-pass outcome.
type RecoveredLog struct {
	Records   []Record
	Committed map[uint64]bool // txn id -> reached a commit record
	Aborted   map[uint64]bool
	Losers    map[uint64]bool // logged records but neither committed nor aborted
	MaxLSN    uint64
	Stats     RecoveryStats
}

// ScanBuffer parses the surviving NVM log buffer (used by Recover and by
// tests). It assumes the original single-shard layout; sharded buffers are
// scanned region by region inside Recover.
func ScanBuffer(c *vclock.Clock, pm *pmem.PMem) []Record {
	var st RecoveryStats
	return ScanBufferStats(c, pm, &st)
}

// ScanBufferStats parses a surviving single-shard NVM log buffer,
// accumulating damage counts into st.
func ScanBufferStats(c *vclock.Clock, pm *pmem.PMem, st *RecoveryStats) []Record {
	return scanShardRegion(c, pm, 0, pm.Size(), st)
}

// scanShardRegion parses the live records of one shard region [base, limit).
// The scan stops at the first bad frame rather than resyncing: records are
// appended strictly in order within a shard and each is persisted before the
// extent advances, so the only record a crash can tear is the last one —
// anything after the first failure is a torn tail, and resyncing into it
// could resurrect stale pre-truncate bytes.
func scanShardRegion(c *vclock.Clock, pm *pmem.PMem, base, limit int64, st *RecoveryStats) []Record {
	if limit-base < bufHeaderSize {
		return nil
	}
	var hdr [16]byte
	pm.Read(c, base, hdr[:])
	if le64(hdr[0:]) != walBufMagic {
		return nil
	}
	off := int64(le64(hdr[8:]))
	if off < base+bufHeaderSize || off > limit {
		return nil
	}
	live := make([]byte, off-(base+bufHeaderSize))
	pm.Read(c, base+bufHeaderSize, live)
	var recs []Record
	for len(live) > 0 {
		rec, n, status := decodeOne(live)
		if status != decodeOK {
			if status == decodeCorrupt {
				st.ChecksumMismatches++
			}
			st.TruncatedTailBytes += len(live)
			break
		}
		recs = append(recs, rec)
		live = live[n:]
	}
	st.BufferRecords += len(recs)
	return recs
}

// scanResync parses every record it can find in raw, skipping damaged
// regions byte-by-byte until a later valid frame appears. The SSD log file
// needs this (unlike the buffer): a torn store.Append leaves a partial batch
// mid-file, and the successful retry that follows re-appends the batch in
// full — the good copies sit *after* the damage. The 32-bit frame checksum
// makes a false resync (a "valid" record materializing out of garbage)
// vanishingly unlikely, and LSN dedup in Recover drops the duplicates.
func scanResync(raw []byte, st *RecoveryStats) []Record {
	var recs []Record
	i, lastGood := 0, 0
	inBad := false
	for i < len(raw) {
		rec, n, status := decodeOne(raw[i:])
		if status == decodeOK {
			if i > lastGood {
				st.SkippedBytes += i - lastGood
			}
			recs = append(recs, rec)
			i += n
			lastGood = i
			inBad = false
			continue
		}
		if !inBad {
			inBad = true
			if status == decodeCorrupt {
				st.ChecksumMismatches++
			}
		}
		i++
	}
	if tail := len(raw) - lastGood; tail > 0 {
		st.TruncatedTailBytes += tail
	}
	return recs
}

// slotKey names the tuple slot a data record writes.
type slotKey struct {
	table uint32
	page  uint64
	slot  uint16
}

func slotOf(rec *Record) slotKey { return slotKey{rec.TableID, rec.PageID, rec.Slot} }

func le64(b []byte) uint64 {
	return uint64(b[0]) | uint64(b[1])<<8 | uint64(b[2])<<16 | uint64(b[3])<<24 |
		uint64(b[4])<<32 | uint64(b[5])<<40 | uint64(b[6])<<48 | uint64(b[7])<<56
}

// Recover runs the paper's recovery sequence against a surviving NVM log
// buffer and SSD log file:
//
//  1. complete the log: records still in the (persistent) NVM buffer's
//     shard regions are appended to the SSD log file;
//  2. analysis: classify transactions into winners and losers (a loser has
//     a BEGIN or data record and no COMMIT or ABORT);
//  3. redo: repeat history for all records in LSN order, including each
//     aborted transaction's in-place rollback at its ABORT record;
//  4. undo: roll back losers' updates in reverse LSN order.
//
// opt.Shards must match what the crashed buffer was initialized with: the
// shard regions are fixed slices of the arena, and recovery scans each
// region's extent independently before merging the tails by LSN (the
// sort-by-LSN below is that merge — within a shard records are already
// ordered, across shards they interleave).
//
// It returns a fresh Manager positioned after the recovered log, plus the
// recovered-log summary.
func Recover(c *vclock.Clock, opt Options, app Applier) (*Manager, *RecoveredLog, error) {
	var stats RecoveryStats

	// Step 1: complete the log, one shard tail at a time.
	var tail []Record
	for _, reg := range shardRegions(opt.Buffer.Size(), normalizeShards(opt.Shards)) {
		tail = append(tail, scanShardRegion(c, opt.Buffer, reg[0], reg[1], &stats)...)
	}
	var tailBytes []byte
	for i := range tail {
		tailBytes = tail[i].encode(tailBytes)
	}
	if len(tailBytes) > 0 {
		if err := opt.Store.Append(c, tailBytes); err != nil {
			return nil, nil, fmt.Errorf("wal: completing log: %w", err)
		}
	}

	// Parse the full log, resyncing past any damage a torn append left.
	raw, err := opt.Store.ReadAll(c)
	if err != nil {
		return nil, nil, err
	}
	rl := &RecoveredLog{
		Committed: make(map[uint64]bool),
		Aborted:   make(map[uint64]bool),
		Losers:    make(map[uint64]bool),
	}
	rl.Records = scanResync(raw, &stats)
	stats.FileRecords = len(rl.Records)
	sort.SliceStable(rl.Records, func(i, j int) bool { return rl.Records[i].LSN < rl.Records[j].LSN })

	// Drop duplicate LSNs: a retried flush (or a crash between the SSD
	// append and the buffer reset) appends the same records twice. The
	// copies are byte-identical, so keeping the first of each LSN is exact.
	// LSN 0 is never assigned by Append and is exempt (hand-built records
	// in tests use it).
	if len(rl.Records) > 1 {
		out := rl.Records[:0]
		havePrev := false
		var prev uint64
		for _, rec := range rl.Records {
			if havePrev && rec.LSN != 0 && rec.LSN == prev {
				stats.DuplicateLSNs++
				continue
			}
			prev, havePrev = rec.LSN, true
			out = append(out, rec)
		}
		rl.Records = out
	}
	rl.Stats = stats

	// Step 2: analysis.
	for i := range rl.Records {
		rec := &rl.Records[i]
		if rec.LSN > rl.MaxLSN {
			rl.MaxLSN = rec.LSN
		}
		switch rec.Type {
		case RecBegin, RecUpdate, RecInsert, RecDelete:
			// Transactions log no BEGIN record: their first data record
			// (PrevLSN 0) opens them. Older logs still carry BEGIN.
			if !rl.Committed[rec.TxnID] && !rl.Aborted[rec.TxnID] {
				rl.Losers[rec.TxnID] = true
			}
		case RecCommit:
			rl.Committed[rec.TxnID] = true
			delete(rl.Losers, rec.TxnID)
		case RecAbort:
			rl.Aborted[rec.TxnID] = true
			delete(rl.Losers, rec.TxnID)
		}
	}

	// Step 3: redo, repeating history in LSN order. Every data record is
	// replayed, an aborted transaction's too: Txn.Abort rolls back in place
	// and logs no compensation records, so a page copy that reached NVM or
	// SSD before the rollback can still hold an aborted write. An ABORT
	// record therefore re-applies its transaction's before-images, newest
	// first, where the rollback happened.
	//
	// A slot another transaction wrote later is never rolled back: that
	// writer could take the slot only after the first transaction had ended
	// with its rollback complete. This covers a loser that ended without
	// its ABORT reaching the log, and the ABORT this recovery logs for it.
	written := map[slotKey]uint64{} // slot -> txn of its newest data record
	open := map[uint64][]*Record{}  // txn -> its data records, oldest first
	undo := func(rec *Record) error {
		if written[slotOf(rec)] != rec.TxnID {
			return nil
		}
		if err := app.ApplyUndo(c, rec); err != nil {
			return fmt.Errorf("wal: undo LSN %d: %w", rec.LSN, err)
		}
		return nil
	}
	for i := range rl.Records {
		rec := &rl.Records[i]
		switch rec.Type {
		case RecUpdate, RecInsert, RecDelete:
			if err := app.ApplyRedo(c, rec); err != nil {
				return nil, nil, fmt.Errorf("wal: redo LSN %d: %w", rec.LSN, err)
			}
			written[slotOf(rec)] = rec.TxnID
			open[rec.TxnID] = append(open[rec.TxnID], rec)
		case RecAbort:
			recs := open[rec.TxnID]
			for j := len(recs) - 1; j >= 0; j-- {
				if err := undo(recs[j]); err != nil {
					return nil, nil, err
				}
			}
			delete(open, rec.TxnID)
		case RecCommit:
			delete(open, rec.TxnID)
		}
	}

	// Step 4: undo losers, newest first.
	for i := len(rl.Records) - 1; i >= 0; i-- {
		rec := &rl.Records[i]
		if !rl.Losers[rec.TxnID] {
			continue
		}
		switch rec.Type {
		case RecUpdate, RecInsert, RecDelete:
			if err := undo(rec); err != nil {
				return nil, nil, err
			}
		}
	}

	// Build a fresh manager positioned after the log. The buffer restarts
	// empty (its records are now in the SSD log file).
	m, err := New(opt)
	if err != nil {
		return nil, nil, err
	}
	m.nextLSN.Store(rl.MaxLSN + 1)

	// Close out losers in the log so a second crash doesn't re-undo.
	for txn := range rl.Losers {
		if _, err := m.Append(c, &Record{TxnID: txn, Type: RecAbort}); err != nil {
			return nil, nil, err
		}
	}
	return m, rl, nil
}
