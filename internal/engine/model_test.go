package engine

import (
	"bytes"
	"errors"
	"testing"
	"testing/quick"

	"github.com/spitfire-db/spitfire/internal/core"
	"github.com/spitfire-db/spitfire/internal/policy"
)

// TestQuickTxnModel runs random single-threaded transactions — inserts,
// updates, deletes, reads, with random commit/abort decisions — against a
// reference map. After every transaction boundary the engine must agree
// with the model exactly: committed effects visible, aborted ones gone.
func TestQuickTxnModel(t *testing.T) {
	type op struct {
		Kind  uint8 // insert/update/delete/read
		Key   uint8
		Val   uint8
		Abort bool // whether the enclosing txn aborts
		Split bool // close the current txn and start a new one
	}
	f := func(ops []op) bool {
		bm, err := core.New(core.Config{
			DRAMBytes: 4 * core.PageSize,
			NVMBytes:  8 * core.PageSize,
			Policy:    policy.SpitfireLazy,
		})
		if err != nil {
			t.Fatal(err)
		}
		db, err := Open(Options{BM: bm})
		if err != nil {
			t.Fatal(err)
		}
		tb, err := db.CreateTable(1, "model", 64)
		if err != nil {
			t.Fatal(err)
		}
		ctx := core.NewCtx(3)

		model := map[uint64][]byte{}   // committed state
		pending := map[uint64][]byte{} // current txn's view (nil = deleted)
		payload := func(v uint8) []byte {
			p := make([]byte, 64)
			p[0] = v
			p[1] = v ^ 0xFF
			return p
		}

		txn := db.Begin()
		txnAborts := false
		inTxnOps := 0

		closeTxn := func() bool {
			if txnAborts && inTxnOps > 0 {
				if err := txn.Abort(ctx); err != nil {
					t.Fatal(err)
				}
			} else {
				if err := txn.Commit(ctx); err != nil {
					t.Fatal(err)
				}
				for k, v := range pending {
					if v == nil {
						delete(model, k)
					} else {
						model[k] = v
					}
				}
			}
			pending = map[uint64][]byte{}
			txn = db.Begin()
			txnAborts = false
			inTxnOps = 0
			return true
		}

		// view resolves a key through pending then committed state.
		view := func(k uint64) ([]byte, bool) {
			if v, ok := pending[k]; ok {
				return v, v != nil
			}
			v, ok := model[k]
			return v, ok
		}

		for _, o := range ops {
			if o.Split {
				closeTxn()
			}
			if inTxnOps == 0 {
				txnAborts = o.Abort
			}
			k := uint64(o.Key % 24)
			_, exists := view(k)
			switch o.Kind % 4 {
			case 0: // insert
				// Insert succeeds exactly when the key is absent from the
				// transaction's view, including a key it deleted itself.
				err := tb.Insert(ctx, txn, k, payload(o.Val))
				if exists {
					if err == nil {
						t.Fatalf("insert of existing key %d succeeded", k)
					}
				} else {
					if err != nil {
						t.Fatalf("insert of fresh key %d: %v", k, err)
					}
					pending[k] = payload(o.Val)
					inTxnOps++
				}
			case 1: // update
				// An update of a key this transaction deleted revives it.
				v, deletedHere := pending[k]
				deletedHere = deletedHere && v == nil
				err := tb.Update(ctx, txn, k, payload(o.Val))
				if !exists && !deletedHere {
					if !errors.Is(err, ErrNotFound) {
						t.Fatalf("update of missing key %d: %v", k, err)
					}
				} else {
					if err != nil {
						t.Fatalf("update of key %d: %v", k, err)
					}
					pending[k] = payload(o.Val)
					inTxnOps++
				}
			case 2: // delete
				err := tb.Delete(ctx, txn, k)
				if !exists {
					if !errors.Is(err, ErrNotFound) {
						t.Fatalf("delete of missing key %d: %v", k, err)
					}
				} else {
					if err != nil {
						t.Fatalf("delete of key %d: %v", k, err)
					}
					pending[k] = nil
					inTxnOps++
				}
			case 3: // read
				buf := make([]byte, 64)
				err := tb.Read(ctx, txn, k, buf)
				want, ok := view(k)
				if !ok {
					if !errors.Is(err, ErrNotFound) {
						t.Fatalf("read of missing key %d: %v", k, err)
					}
				} else {
					if err != nil {
						t.Fatalf("read of key %d: %v", k, err)
					}
					if !bytes.Equal(buf, want) {
						t.Fatalf("read of key %d returned wrong payload", k)
					}
				}
			}
		}
		// Close the final txn and audit the whole key space.
		txnAborts = txnAborts && inTxnOps > 0
		closeTxn()
		audit := db.Begin()
		buf := make([]byte, 64)
		for k := uint64(0); k < 24; k++ {
			err := tb.Read(ctx, audit, k, buf)
			want, ok := model[k]
			if !ok {
				if !errors.Is(err, ErrNotFound) {
					t.Fatalf("audit: key %d should be missing: %v", k, err)
				}
				continue
			}
			if err != nil {
				t.Fatalf("audit: key %d: %v", k, err)
			}
			if !bytes.Equal(buf, want) {
				t.Fatalf("audit: key %d wrong payload", k)
			}
		}
		audit.Commit(ctx)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
