// Package mvto implements multi-version timestamp-ordering concurrency
// control (Wu et al., "An Empirical Evaluation of In-Memory Multi-Version
// Concurrency Control"), the protocol Spitfire uses for transactions
// (§5.2 of the paper).
//
// Every transaction receives a start timestamp. The latest version of each
// tuple lives *in place* on its buffer-managed page (whose tuple header
// carries the version's write timestamp); older versions live in a
// DRAM-resident version store, like a rollback segment. This keeps reads
// flowing through the buffer manager — which is what the paper measures —
// while giving readers a consistent snapshot.
//
// Rules (for transaction T with timestamp ts):
//
//   - read(X): the visible version is the newest one with wts ≤ ts. An
//     in-flight *older* writer forces an abort (its outcome would determine
//     what T must see; timestamp ordering does not wait). Reads record ts
//     in X's read timestamp.
//   - write(X): T aborts if X was read by a younger transaction
//     (readTS > ts), overwritten by a younger one (wts > ts), or has a
//     concurrent writer. Otherwise T installs its update in place and parks
//     the before-image in the version store for older readers and rollback.
//
// All tuple-level page access happens inside callbacks invoked under the
// tuple's latch, so visibility decisions and the reads/writes they justify
// are atomic with respect to each other.
package mvto

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"github.com/spitfire-db/spitfire/internal/cht"
)

// ErrConflict aborts a transaction that lost a timestamp-ordering race.
// Callers roll back and retry with a fresh timestamp.
var ErrConflict = errors.New("mvto: timestamp-ordering conflict")

// TxnState tracks a transaction's lifecycle.
type TxnState int32

const (
	TxnActive TxnState = iota
	TxnCommitted
	TxnAborted
)

// Txn is a transaction handle, owned by one worker.
type Txn struct {
	TS    uint64 // start timestamp; also the write timestamp of its versions
	state atomic.Int32

	writes  []uint64 // RIDs written, in first-write order
	written map[uint64]bool
}

// State returns the transaction's current state.
func (t *Txn) State() TxnState { return TxnState(t.state.Load()) }

// Writes returns the RIDs this transaction has written.
func (t *Txn) Writes() []uint64 { return t.writes }

// version is an immutable before-image in the version store.
type version struct {
	wts  uint64
	data []byte
	prev *version // next-older version
}

// tupleMeta is the version-store entry for one tuple.
type tupleMeta struct {
	mu      sync.Mutex
	readTS  uint64 // max timestamp that has read this tuple
	writer  *Txn   // in-flight writer, if any
	history *version
}

// Manager issues timestamps and tracks tuple metadata.
type Manager struct {
	nextTS atomic.Uint64
	active *cht.Map[uint64, *Txn]
	meta   *cht.Map[uint64, *tupleMeta]

	aborts  atomic.Int64
	commits atomic.Int64
}

// NewManager creates a transaction manager.
func NewManager() *Manager {
	m := &Manager{
		active: cht.New[uint64, *Txn](cht.Uint64Hash),
		meta:   cht.New[uint64, *tupleMeta](cht.Uint64Hash),
	}
	m.nextTS.Store(1)
	return m
}

// Begin starts a transaction.
func (m *Manager) Begin() *Txn {
	t := &Txn{TS: m.nextTS.Add(1) - 1, written: make(map[uint64]bool)}
	m.active.Put(t.TS, t)
	return t
}

func (m *Manager) metaFor(rid uint64) *tupleMeta {
	e, _ := m.meta.GetOrInsert(rid, func() *tupleMeta { return &tupleMeta{} })
	return e
}

// Read performs a visibility-checked read of tuple rid. pageWTS must read
// the tuple's in-place write timestamp; serve must perform the read —
// from the page when historyData is nil, from historyData (a non-nil,
// possibly empty, before-image as Write received it) otherwise. Both
// callbacks run under the tuple latch, so the page cannot change between
// the visibility decision and the read (pageWTS may capture the whole
// in-place version for serve to reuse). A pageWTS error fails the read:
// an unknown write timestamp decides nothing about visibility.
func (m *Manager) Read(txn *Txn, rid uint64, pageWTS func() (uint64, error), serve func(historyData []byte) error) error {
	e := m.metaFor(rid)
	e.mu.Lock()
	defer e.mu.Unlock()

	if e.writer != nil && e.writer != txn && e.writer.TS < txn.TS {
		m.aborts.Add(1)
		return fmt.Errorf("%w: tuple %d has in-flight older writer", ErrConflict, rid)
	}
	wts, err := pageWTS()
	if err != nil {
		return err
	}
	if wts <= txn.TS {
		// In-place version visible. (A registered younger writer cannot
		// have applied yet, or wts would exceed txn.TS.)
		if txn.TS > e.readTS {
			e.readTS = txn.TS
		}
		return serve(nil)
	}
	// Page too new: walk history for the newest version with wts <= ts.
	for v := e.history; v != nil; v = v.prev {
		if v.wts <= txn.TS {
			if txn.TS > e.readTS {
				e.readTS = txn.TS
			}
			return serve(v.data)
		}
	}
	m.aborts.Add(1)
	return fmt.Errorf("%w: no version of tuple %d visible at ts %d", ErrConflict, rid, txn.TS)
}

// Write performs a visibility-checked in-place update of tuple rid. pageWTS
// and apply run under the tuple latch; apply must write the new data (with
// txn.TS as the new in-place write timestamp) and return the before-image,
// which is copied into the version store the first time txn writes rid. A
// pageWTS error fails the write before apply runs.
func (m *Manager) Write(txn *Txn, rid uint64, pageWTS func() (uint64, error), apply func() (before []byte, err error)) error {
	e := m.metaFor(rid)
	e.mu.Lock()
	defer e.mu.Unlock()

	if e.writer != nil && e.writer != txn {
		m.aborts.Add(1)
		return fmt.Errorf("%w: tuple %d has concurrent writer", ErrConflict, rid)
	}
	if e.readTS > txn.TS {
		m.aborts.Add(1)
		return fmt.Errorf("%w: tuple %d read at ts %d > %d", ErrConflict, rid, e.readTS, txn.TS)
	}
	wts, err := pageWTS()
	if err != nil {
		return err
	}
	if wts > txn.TS {
		m.aborts.Add(1)
		return fmt.Errorf("%w: tuple %d written at ts %d > %d", ErrConflict, rid, wts, txn.TS)
	}

	before, err := apply()
	if err != nil {
		return err
	}
	e.writer = txn
	if !txn.written[rid] {
		txn.written[rid] = true
		txn.writes = append(txn.writes, rid)
		// Never nil, even when empty: serve tells a history version from
		// the in-place one by a nil argument.
		img := make([]byte, len(before))
		copy(img, before)
		e.history = &version{wts: wts, data: img, prev: e.history}
	}
	return nil
}

// Commit finalizes txn: its in-place versions become the committed state.
func (m *Manager) Commit(txn *Txn) {
	for _, rid := range txn.writes {
		e := m.metaFor(rid)
		e.mu.Lock()
		if e.writer == txn {
			e.writer = nil
		}
		e.mu.Unlock()
	}
	txn.state.Store(int32(TxnCommitted))
	m.active.Delete(txn.TS)
	m.commits.Add(1)
}

// Undo describes one rollback action: restore `Before` (whose write
// timestamp was BeforeWTS) as tuple RID's in-place version.
type Undo struct {
	RID       uint64
	BeforeWTS uint64
	Before    []byte
}

// AbortStart returns txn's undo actions, newest write last. The writer
// registrations stay in place, so no other transaction can observe the
// pages while the engine restores them.
func (m *Manager) AbortStart(txn *Txn) []Undo {
	undos := make([]Undo, 0, len(txn.writes))
	for _, rid := range txn.writes {
		e := m.metaFor(rid)
		e.mu.Lock()
		if e.history != nil {
			undos = append(undos, Undo{RID: rid, BeforeWTS: e.history.wts, Before: e.history.data})
		}
		e.mu.Unlock()
	}
	return undos
}

// AbortFinish pops txn's parked before-images (now restored in place by the
// engine) and releases its writer registrations.
func (m *Manager) AbortFinish(txn *Txn) {
	for _, rid := range txn.writes {
		e := m.metaFor(rid)
		e.mu.Lock()
		if e.history != nil {
			e.history = e.history.prev
		}
		if e.writer == txn {
			e.writer = nil
		}
		e.mu.Unlock()
	}
	txn.state.Store(int32(TxnAborted))
	m.active.Delete(txn.TS)
	m.aborts.Add(1)
}

// AdvanceTS ensures future timestamps exceed ts. Recovery calls it with the
// largest write timestamp found on any page, so post-recovery transactions
// order correctly after pre-crash ones.
func (m *Manager) AdvanceTS(ts uint64) {
	for {
		cur := m.nextTS.Load()
		if cur > ts {
			return
		}
		if m.nextTS.CompareAndSwap(cur, ts+1) {
			return
		}
	}
}

// minActiveTS returns the smallest timestamp among active transactions, or
// the next timestamp if none are active.
func (m *Manager) minActiveTS() uint64 {
	min := m.nextTS.Load()
	m.active.Range(func(ts uint64, _ *Txn) bool {
		if ts < min {
			min = ts
		}
		return true
	})
	return min
}

// GC prunes version history no active (or future) transaction can see:
// in each chain, everything older than the newest version with
// wts < minActiveTS is unreachable. Returns the number of versions dropped.
func (m *Manager) GC() int {
	minTS := m.minActiveTS()
	dropped := 0
	m.meta.Range(func(_ uint64, e *tupleMeta) bool {
		e.mu.Lock()
		for v := e.history; v != nil; v = v.prev {
			if v.wts < minTS {
				for cut := v.prev; cut != nil; cut = cut.prev {
					dropped++
				}
				v.prev = nil
				break
			}
		}
		e.mu.Unlock()
		return true
	})
	return dropped
}

// Stats reports commit and abort counts.
func (m *Manager) Stats() (commits, aborts int64) {
	return m.commits.Load(), m.aborts.Load()
}
