package engine

import (
	"cmp"
	"fmt"
	"sync"

	"github.com/spitfire-db/spitfire/internal/btree"
)

// SecondaryIndex maps a derived key (extracted from the tuple's primary key
// and payload) back to the primary key. Spitfire's evaluation workloads
// need them — TPC-C looks customers up by last name and orders up by
// customer — and the engine maintains them alongside writes:
//
//   - bulk loads and inserts add entries;
//   - updates whose derived key changes move the entry;
//   - deletes drop the entry at commit (like the primary index);
//   - aborts restore whatever the transaction changed.
//
// Like the primary index, secondary indexes are volatile (rebuilt by
// recovery's page scan) and single-version: a reader with an old snapshot
// may see entries for newer tuples, which MVCC visibility on the base
// table then filters.
type SecondaryIndex[K cmp.Ordered] struct {
	name    string
	tree    *btree.Tree[K]
	extract func(primary uint64, payload []byte) K
	mu      sync.Mutex // serializes move operations on one derived key
}

// secondary is the untyped maintenance interface tables hold.
type secondary interface {
	secName() string
	onInsert(txn *Txn, primary uint64, payload []byte)
	onUpdate(txn *Txn, primary uint64, before, after []byte)
	onDelete(primary uint64, payload []byte) // at commit
	onLoad(primary uint64, payload []byte)
}

// AddSecondaryIndex registers a secondary index on the table. It must be
// called before any rows are loaded or written.
func AddSecondaryIndex[K cmp.Ordered](tb *Table, name string, extract func(primary uint64, payload []byte) K) (*SecondaryIndex[K], error) {
	ix := &SecondaryIndex[K]{name: name, tree: btree.New[K](), extract: extract}
	<-tb.allocMu
	defer func() { tb.allocMu <- struct{}{} }()
	if len(tb.pageList) > 0 {
		return nil, fmt.Errorf("engine: %s: secondary index %q added after data was loaded", tb.name, name)
	}
	for _, s := range tb.secondaries {
		if s.secName() == name {
			return nil, fmt.Errorf("engine: %s: duplicate secondary index %q", tb.name, name)
		}
	}
	tb.secondaries = append(tb.secondaries, ix)
	return ix, nil
}

// Lookup returns the primary key stored under derived key k.
func (ix *SecondaryIndex[K]) Lookup(k K) (uint64, bool) { return ix.tree.Get(k) }

// Scan visits entries with derived key >= from in ascending order until fn
// returns false.
func (ix *SecondaryIndex[K]) Scan(from K, fn func(k K, primary uint64) bool) {
	ix.tree.Scan(from, fn)
}

// Len returns the number of entries.
func (ix *SecondaryIndex[K]) Len() int { return ix.tree.Len() }

func (ix *SecondaryIndex[K]) secName() string { return ix.name }

func (ix *SecondaryIndex[K]) onLoad(primary uint64, payload []byte) {
	ix.tree.Insert(ix.extract(primary, payload), primary)
}

func (ix *SecondaryIndex[K]) onInsert(txn *Txn, primary uint64, payload []byte) {
	k := ix.extract(primary, payload)
	ix.tree.Insert(k, primary)
	txn.secUndos = append(txn.secUndos, func() { ix.tree.Delete(k) })
}

func (ix *SecondaryIndex[K]) onUpdate(txn *Txn, primary uint64, before, after []byte) {
	oldK := ix.extract(primary, before)
	newK := ix.extract(primary, after)
	if oldK == newK {
		return
	}
	ix.mu.Lock()
	ix.tree.Delete(oldK)
	ix.tree.Insert(newK, primary)
	ix.mu.Unlock()
	txn.secUndos = append(txn.secUndos, func() {
		ix.mu.Lock()
		ix.tree.Delete(newK)
		ix.tree.Insert(oldK, primary)
		ix.mu.Unlock()
	})
}

// onDelete runs when a delete commits: like the primary index, removal
// waits for commit so older snapshots can still find the row, and aborts
// need no action.
func (ix *SecondaryIndex[K]) onDelete(primary uint64, payload []byte) {
	ix.tree.Delete(ix.extract(primary, payload))
}
