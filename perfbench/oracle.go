package main

import (
	"fmt"
	"sort"
	"time"
)

// unknownVersion marks a key whose last write may or may not have applied
// (its request died on the wire); the next answer for it is accepted and
// re-learned.
const unknownVersion = ^uint64(0)

// tally counts one stream's outcomes. Every failed, refused or wrong answer
// counts in failed; mismatches additionally make the run incorrect.
type tally struct {
	attempted   int64
	failed      int64
	refused     int64 // 429 and 503
	conflicts   int64 // 409
	netErrors   int64
	txnNotFound int64 // a /kv/txn batch answered 404
	mismatches  int64
	notes       []string
}

func (t *tally) add(o *tally) {
	t.attempted += o.attempted
	t.failed += o.failed
	t.refused += o.refused
	t.conflicts += o.conflicts
	t.netErrors += o.netErrors
	t.txnNotFound += o.txnNotFound
	t.mismatches += o.mismatches
	for _, n := range o.notes {
		if len(t.notes) < 8 {
			t.notes = append(t.notes, n)
		}
	}
}

func (t *tally) mismatch(format string, args ...any) {
	t.mismatches++
	t.failed++
	if len(t.notes) < 8 {
		t.notes = append(t.notes, fmt.Sprintf(format, args...))
	}
}

// kvExec runs one worker's ops against a store and checks every answer:
// values must decode to their own key with a valid checksum, and on a
// partitioned workload every answer must match an exact per-key model of
// the acknowledged writes.
type kvExec struct {
	w     *workloadSpec
	store kvStore
	model map[uint64]uint64 // partitioned only: live key -> version
	t     tally
	val   []byte

	conflicted bool // the last answer was 409
}

// conflictRetries bounds how often exec resends a request answered 409
// (write conflict; retry), as a client honouring that answer would.
const conflictRetries = 32

// conflictBackoff sleeps before the try'th resend of a write that lost an
// MVTO race: 10 us, doubling up to 2 ms. The winner may hold its write for
// as long as the host deschedules its thread (a few ms on a shared host),
// which immediate resends would outlast only by luck.
func conflictBackoff(try int) {
	d := 10 * time.Microsecond << min(try, 8)
	time.Sleep(min(d, 2*time.Millisecond))
}

func newKVExec(w *workloadSpec, store kvStore, seed uint64, worker, workers int) *kvExec {
	x := &kvExec{w: w, store: store, val: make([]byte, w.ValueBytes)}
	if w.Partitioned {
		x.model = map[uint64]uint64{}
		for k := uint64(worker); k < w.Keys; k += uint64(workers) {
			if w.preloaded(seed, k) {
				x.model[k] = 0
			}
		}
	}
	return x
}

// answered classifies transport errors and refusals, which count as
// failures; it reports whether the answer is one the oracle should check.
func (x *kvExec) answered(st int, err error, keys ...uint64) bool {
	switch {
	case err != nil:
		x.t.netErrors++
		x.t.failed++
		x.t.note("transport: %v", err)
		for _, k := range keys {
			if x.model != nil {
				x.model[k] = unknownVersion
			}
		}
		return false
	case st == 429 || st == 503:
		x.t.refused++
		x.t.failed++
		return false
	case st == 409:
		// The write lost an MVTO race and did not apply; exec retries it.
		x.t.conflicts++
		x.conflicted = true
		return false
	case st == 200 || st == 204 || st == 404:
		return true
	default:
		x.t.failed++
		x.t.note("status %d", st)
		return false
	}
}

func (t *tally) note(format string, args ...any) {
	if len(t.notes) < 8 {
		t.notes = append(t.notes, fmt.Sprintf(format, args...))
	}
}

// checkValue checks a returned value against the key it was read under and,
// when want is not unknownVersion, the version the model expects.
func (x *kvExec) checkValue(key uint64, v []byte, want uint64) bool {
	k, ver, ok := decodeValue(v, x.w.ValueBytes)
	switch {
	case !ok:
		x.t.mismatch("key %d: value of %d bytes fails its checksum", key, len(v))
	case k != key:
		x.t.mismatch("key %d: value belongs to key %d", key, k)
	case x.model != nil && want != unknownVersion && ver != want:
		x.t.mismatch("key %d: read version %#x, last acknowledged write was %#x", key, ver, want)
	default:
		return true
	}
	return false
}

// exec runs one op, resending it while it is answered 409, and returns its
// latency class and whether it succeeded with a correct answer.
func (x *kvExec) exec(op kvOp) (int, bool) {
	x.t.attempted++
	for try := 0; ; try++ {
		x.conflicted = false
		class, ok := x.execOnce(op)
		if !x.conflicted {
			return class, ok
		}
		if try == conflictRetries {
			x.t.failed++
			return class, false
		}
		conflictBackoff(try)
	}
}

func (x *kvExec) execOnce(op kvOp) (int, bool) {
	switch op.kind {
	case opGet:
		st, body, err := x.store.get(op.key)
		if !x.answered(st, err, op.key) {
			return classGet, false
		}
		if x.model == nil {
			if st != 200 {
				x.t.mismatch("get %d: status %d for a preloaded key", op.key, st)
				return classGet, false
			}
			return classGet, x.checkValue(op.key, body, unknownVersion)
		}
		want, present := x.model[op.key]
		switch {
		case want == unknownVersion:
			if st == 200 {
				if !x.checkValue(op.key, body, want) {
					return classGet, false
				}
				_, ver, _ := decodeValue(body, x.w.ValueBytes)
				x.model[op.key] = ver
			} else {
				delete(x.model, op.key)
			}
			return classGet, true
		case present && st != 200:
			x.t.mismatch("get %d: status %d, model holds version %#x", op.key, st, want)
			return classGet, false
		case !present && st != 404:
			x.t.mismatch("get %d: status %d for a deleted or never-written key", op.key, st)
			return classGet, false
		case present:
			return classGet, x.checkValue(op.key, body, want)
		}
		return classGet, true
	case opPut:
		encodeValue(x.val, op.key, op.version)
		st, err := x.store.put(op.key, x.val)
		if !x.answered(st, err, op.key) {
			return classWrite, false
		}
		if st != 204 {
			x.t.mismatch("put %d: status %d", op.key, st)
			return classWrite, false
		}
		if x.model != nil {
			x.model[op.key] = op.version
		}
		return classWrite, true
	case opDel:
		st, err := x.store.del(op.key)
		if !x.answered(st, err, op.key) {
			return classWrite, false
		}
		want, present := x.model[op.key]
		if want != unknownVersion && (present && st != 204 || !present && st != 404) {
			x.t.mismatch("delete %d: status %d, key present in model: %v", op.key, st, present)
			return classWrite, false
		}
		delete(x.model, op.key)
		return classWrite, true
	case opScan:
		st, pairs, err := x.store.scan(op.key, x.w.ScanLimit)
		if !x.answered(st, err) {
			return classScan, false
		}
		return classScan, x.checkScan(op.key, st, pairs)
	case opTxn:
		keys := make([]uint64, len(op.txn))
		for i, s := range op.txn {
			keys[i] = s.key
		}
		st, found, err := x.store.txn(op.txn, x.w.ValueBytes)
		if st == 404 && err == nil {
			// A batch of puts and deletes on distinct keys has no key to
			// miss. The batch failed, and the model (unchanged) checks
			// later that it left no trace.
			x.t.txnNotFound++
			x.t.failed++
			return classWrite, false
		}
		if !x.answered(st, err, keys...) {
			return classWrite, false
		}
		return classWrite, x.checkTxn(op.txn, st, found)
	}
	panic("unknown op kind")
}

// checkScan checks a scan of the read workload, where every key is always
// present: exactly min(limit, keys-from) consecutive keys from `from`, each
// value its own.
func (x *kvExec) checkScan(from uint64, st int, pairs []kvPair) bool {
	want := x.w.Keys - from
	if want > uint64(x.w.ScanLimit) {
		want = uint64(x.w.ScanLimit)
	}
	if st != 200 || uint64(len(pairs)) != want {
		x.t.mismatch("scan from %d: status %d with %d entries, want %d", from, st, len(pairs), want)
		return false
	}
	for i, p := range pairs {
		if p.Key != from+uint64(i) {
			x.t.mismatch("scan from %d: entry %d has key %d", from, i, p.Key)
			return false
		}
		if !x.checkValue(p.Key, p.Value, unknownVersion) {
			return false
		}
	}
	return true
}

// checkTxn applies a batch to a copy of the touched model entries in order,
// compares the per-op found flags, and commits the copy only when the
// whole batch was acknowledged.
func (x *kvExec) checkTxn(ops []subOp, st int, found []bool) bool {
	if st != 200 || len(found) != len(ops) {
		x.t.mismatch("txn: status %d with %d results for %d ops", st, len(found), len(ops))
		return false
	}
	next := map[uint64]uint64{}
	state := func(k uint64) (uint64, bool) {
		if v, ok := next[k]; ok {
			return v, v != absentInBatch
		}
		v, ok := x.model[k]
		return v, ok
	}
	ok := true
	for i, o := range ops {
		v, present := state(o.key)
		if o.del {
			if v != unknownVersion && found[i] != present {
				x.t.mismatch("txn op %d delete %d: found=%v, key present in model: %v", i, o.key, found[i], present)
				ok = false
			}
			next[o.key] = absentInBatch
			continue
		}
		if !found[i] {
			x.t.mismatch("txn op %d put %d: found=false", i, o.key)
			ok = false
		}
		next[o.key] = o.version
	}
	for k, v := range next {
		if v == absentInBatch {
			delete(x.model, k)
		} else {
			x.model[k] = v
		}
	}
	return ok
}

// absentInBatch marks a key a batch deleted (distinct from unknownVersion
// and from every generated version).
const absentInBatch = unknownVersion - 1

// verifyAll reads the whole key space back with scans and compares it with
// the union of the workers' models (partitioned) or checks that every key is
// present with its own value (shared).
func verifyAll(w *workloadSpec, store kvStore, execs []*kvExec) tally {
	var t tally
	const page = 10000
	var got []kvPair
	for from := uint64(0); from < w.Keys; {
		st, pairs, err := store.scan(from, page)
		if err != nil || st != 200 {
			t.mismatch("final scan from %d: status %d err %v", from, st, err)
			return t
		}
		got = append(got, pairs...)
		if len(pairs) < page {
			break
		}
		from = pairs[len(pairs)-1].Key + 1
	}
	t.attempted = int64(len(got))
	x := &kvExec{w: w}
	if !w.Partitioned {
		if uint64(len(got)) != w.Keys {
			t.mismatch("final scan: %d keys, want %d", len(got), w.Keys)
		}
		for _, p := range got {
			x.checkValue(p.Key, p.Value, unknownVersion)
		}
		t.add(&x.t)
		return t
	}
	want := map[uint64]uint64{}
	for _, e := range execs {
		for k, v := range e.model {
			want[k] = v
		}
	}
	x.model = want
	for _, p := range got {
		v, ok := want[p.Key]
		if !ok {
			x.t.mismatch("final scan: key %d is live, model says deleted or never written", p.Key)
			continue
		}
		x.checkValue(p.Key, p.Value, v)
		delete(want, p.Key)
	}
	var missing []uint64
	for k, v := range want {
		if v != unknownVersion {
			missing = append(missing, k)
		}
	}
	sort.Slice(missing, func(i, j int) bool { return missing[i] < missing[j] })
	for _, k := range missing {
		x.t.mismatch("final scan: acknowledged key %d is missing", k)
	}
	t.add(&x.t)
	return t
}
