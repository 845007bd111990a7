package main

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"strconv"

	"github.com/spitfire-db/spitfire/internal/zipf"
)

// Latency classes of the serve workloads.
const (
	classGet = iota
	classWrite
	classScan
	nClasses
)

// Value codec: every stored value names its own key and version and ends in
// a checksum of the bytes before it, so any read can be checked without
// knowing which write it should see.
func encodeValue(v []byte, key, version uint64) {
	binary.LittleEndian.PutUint64(v[0:], key)
	binary.LittleEndian.PutUint64(v[8:], version)
	x := key*0x9E3779B97F4A7C15 ^ version
	for i := 16; i+8 <= len(v)-8; i += 8 {
		x = splitmix(x)
		binary.LittleEndian.PutUint64(v[i:], x)
	}
	binary.LittleEndian.PutUint64(v[len(v)-8:], checksum(v[:len(v)-8]))
}

func decodeValue(v []byte, size int) (key, version uint64, ok bool) {
	if len(v) != size || size < 24 {
		return 0, 0, false
	}
	if binary.LittleEndian.Uint64(v[len(v)-8:]) != checksum(v[:len(v)-8]) {
		return 0, 0, false
	}
	return binary.LittleEndian.Uint64(v[0:]), binary.LittleEndian.Uint64(v[8:]), true
}

func splitmix(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ x>>30) * 0xBF58476D1CE4E5B9
	x = (x ^ x>>27) * 0x94D049BB133111EB
	return x ^ x>>31
}

// checksum is FNV-1a over 8-byte words.
func checksum(b []byte) uint64 {
	h := uint64(0xcbf29ce484222325)
	for len(b) >= 8 {
		h = (h ^ binary.LittleEndian.Uint64(b)) * 0x100000001b3
		b = b[8:]
	}
	for _, c := range b {
		h = (h ^ uint64(c)) * 0x100000001b3
	}
	return h
}

// Op kinds of the serve workloads.
type opKind uint8

const (
	opGet opKind = iota
	opPut
	opDel
	opScan
	opTxn
)

// subOp is one put or delete inside a /kv/txn batch.
type subOp struct {
	del          bool
	key, version uint64
}

// kvOp is one generated request. Its content depends only on the seed and
// the worker's position in its stream, never on timing.
type kvOp struct {
	kind         opKind
	key, version uint64
	txn          []subOp
}

// opGen produces one worker's op stream.
type opGen struct {
	w       *workloadSpec
	worker  uint64
	workers uint64
	rng     *zipf.Rand
	zipf    *zipf.Generator
	cum     [5]int // cumulative mix thresholds by opKind
	txnPut  int    // percent of batch ops that are puts
	version uint64
}

func newOpGen(w *workloadSpec, seed uint64, worker, workers int) *opGen {
	g := &opGen{w: w, worker: uint64(worker), workers: uint64(workers),
		rng: zipf.NewRand(seed*0x100000001b3 + uint64(worker) + 1)}
	if w.KeyDist == "zipfian" {
		g.zipf = zipf.NewGenerator(w.Keys, w.Theta, g.rng)
	}
	sum := 0
	for k, name := range []string{"get", "put", "delete", "scan", "txn"} {
		sum += w.Mix[name]
		g.cum[k] = sum
	}
	if w.TxnOps > 0 {
		g.txnPut = 100 * w.TxnMix["put"] / (w.TxnMix["put"] + w.TxnMix["delete"])
	}
	return g
}

// key draws a key. Zipfian ranks are scattered over the key space by an
// odd multiplier (a bijection on a power-of-two space), so hot keys do not
// share pages; partitioned workloads give each worker the keys congruent to
// its index.
func (g *opGen) key() uint64 {
	if g.zipf != nil {
		return (g.zipf.Next() * 0x9E3779B1) & (g.w.Keys - 1)
	}
	if g.w.Partitioned {
		return g.rng.Uint64n(g.w.Keys/g.workers)*g.workers + g.worker
	}
	return g.rng.Uint64n(g.w.Keys)
}

// distinctKey draws a key that no earlier op of the batch touches. A batch
// never names a key twice, so no batch deletes and then re-puts one key in
// a single transaction, which the engine still rejects (ROADMAP item 0).
func (g *opGen) distinctKey(batch []subOp) uint64 {
	for {
		k := g.key()
		dup := false
		for _, o := range batch {
			dup = dup || o.key == k
		}
		if !dup {
			return k
		}
	}
}

func (g *opGen) nextVersion() uint64 {
	g.version++
	return g.worker<<48 | g.version
}

func (g *opGen) next() kvOp {
	r := int(g.rng.Uint64n(100))
	kind := opGet
	for k, c := range g.cum {
		if r < c {
			kind = opKind(k)
			break
		}
	}
	op := kvOp{kind: kind, key: g.key()}
	switch kind {
	case opPut:
		op.version = g.nextVersion()
	case opTxn:
		op.txn = make([]subOp, g.w.TxnOps)
		for i := range op.txn {
			op.txn[i] = subOp{del: int(g.rng.Uint64n(100)) >= g.txnPut, key: g.distinctKey(op.txn[:i])}
			if !op.txn[i].del {
				op.txn[i].version = g.nextVersion()
			}
		}
	}
	return op
}

// preloaded reports whether key is loaded before the run: every key when
// the workload preloads all of them, else a seeded half.
func (w *workloadSpec) preloaded(seed, key uint64) bool {
	if w.PreloadKeys >= w.Keys {
		return true
	}
	return splitmix(seed^key*0xD6E8FEB86659FD93)&1 == 0
}

// kvPair is one scanned entry.
type kvPair struct {
	Key   uint64 `json:"key"`
	Value []byte `json:"value"`
}

// kvStore is what the oracles drive: the served API over HTTP, or the
// engine replayed in-process. Status codes follow the server's contract
// (200/204 done, 404 missing key, 409 conflict, 429/503 refused).
type kvStore interface {
	get(key uint64) (int, []byte, error)
	put(key uint64, val []byte) (int, error)
	del(key uint64) (int, error)
	scan(from uint64, limit int) (int, []kvPair, error)
	txn(ops []subOp, valueBytes int) (int, []bool, error)
}

// httpKV is kvStore over one spitfire-serve connection.
type httpKV struct {
	c *httpConn
}

func (h *httpKV) get(key uint64) (int, []byte, error) {
	st, body, err := h.c.do("GET", "/kv/get?key="+strconv.FormatUint(key, 10), nil)
	return st, body, err
}

func (h *httpKV) put(key uint64, val []byte) (int, error) {
	st, _, err := h.c.do("PUT", "/kv/put?key="+strconv.FormatUint(key, 10), val)
	return st, err
}

func (h *httpKV) del(key uint64) (int, error) {
	st, _, err := h.c.do("DELETE", "/kv/delete?key="+strconv.FormatUint(key, 10), nil)
	return st, err
}

func (h *httpKV) scan(from uint64, limit int) (int, []kvPair, error) {
	st, body, err := h.c.do("GET", fmt.Sprintf("/kv/scan?from=%d&limit=%d", from, limit), nil)
	if err != nil || st != 200 {
		return st, nil, err
	}
	var out []kvPair
	for _, line := range bytes.Split(bytes.TrimSpace(body), []byte("\n")) {
		if len(line) == 0 {
			continue
		}
		var p kvPair
		if err := json.Unmarshal(line, &p); err != nil {
			return st, nil, fmt.Errorf("scan line %q: %w", line, err)
		}
		out = append(out, p)
	}
	return st, out, nil
}

type txnReqOp struct {
	Op    string `json:"op"`
	Key   uint64 `json:"key"`
	Value []byte `json:"value,omitempty"`
}

func (h *httpKV) txn(ops []subOp, valueBytes int) (int, []bool, error) {
	req := struct {
		Ops []txnReqOp `json:"ops"`
	}{Ops: make([]txnReqOp, len(ops))}
	for i, o := range ops {
		if o.del {
			req.Ops[i] = txnReqOp{Op: "delete", Key: o.key}
			continue
		}
		v := make([]byte, valueBytes)
		encodeValue(v, o.key, o.version)
		req.Ops[i] = txnReqOp{Op: "put", Key: o.key, Value: v}
	}
	body, err := json.Marshal(req)
	if err != nil {
		return 0, nil, err
	}
	st, resp, err := h.c.do("POST", "/kv/txn", body)
	if err != nil || st != 200 {
		return st, nil, err
	}
	var out struct {
		Results []struct {
			Found bool `json:"found"`
		} `json:"results"`
	}
	if err := json.Unmarshal(resp, &out); err != nil {
		return st, nil, fmt.Errorf("txn response %q: %w", resp, err)
	}
	found := make([]bool, len(out.Results))
	for i, r := range out.Results {
		found[i] = r.Found
	}
	return st, found, nil
}
