package main

import (
	"errors"
	"fmt"
	"runtime"
	"time"

	"github.com/spitfire-db/spitfire/internal/core"
	"github.com/spitfire-db/spitfire/internal/device"
	"github.com/spitfire-db/spitfire/internal/engine"
	"github.com/spitfire-db/spitfire/internal/pmem"
	"github.com/spitfire-db/spitfire/internal/policy"
	"github.com/spitfire-db/spitfire/internal/ssd"
	"github.com/spitfire-db/spitfire/internal/wal"
)

// newServeStack builds the stack the way cmd/spitfire-serve does with its
// default flags: core.New (no cleaner, one shard), a 4 MiB NVM log buffer
// over an in-memory log, and the KV facade with 256-byte values. Only the
// devices are made explicit, with the parameters the defaults would use,
// so their counters can be read.
func newServeStack() (*stack, error) {
	data := pmem.New(pmem.Options{Size: 64 << 20})
	disk := ssd.NewMem(nil)
	bm, err := core.New(core.Config{
		DRAMBytes: 16 << 20,
		NVMBytes:  64 << 20,
		Policy:    policy.SpitfireLazy,
		PMem:      data,
		SSD:       disk,
	})
	if err != nil {
		return nil, err
	}
	logBuf := pmem.New(pmem.Options{Size: 1 << 22})
	log := wal.NewMemLog(nil)
	w, err := wal.New(wal.Options{Buffer: logBuf, Store: log})
	if err != nil {
		bm.Close()
		return nil, err
	}
	db, err := engine.Open(engine.Options{BM: bm, WAL: w})
	if err != nil {
		bm.Close()
		return nil, err
	}
	kv, err := engine.OpenKV(db, 1, "kv", 256)
	if err != nil {
		bm.Close()
		return nil, err
	}
	return &stack{bm: bm, db: db, log: log, kv: kv, tb: kv.Table(), free: 1,
		nvm: []*device.Device{data.Device(), logBuf.Device()},
		ssd: []*device.Device{disk.Device(), log.Device()}}, nil
}

// engineKV is kvStore over the engine's KV facade in-process, with the
// server's transaction handling (retry ErrConflict up to three times) and,
// when traced, a span around every engine call.
type engineKV struct {
	kv     *engine.KV
	db     *engine.DB
	ctx    *core.Ctx
	tr     *wtrace
	parent int32
	req    uint64
}

const txnRetries = 3

// txnSpanName names a request's root span in the engine replay by op kind.
var txnSpanName = [...]string{opGet: "txn.read", opPut: "txn.update", opDel: "txn.delete", opScan: "txn.scan", opTxn: "txn.batch"}

func (e *engineKV) clock() int64 { return e.ctx.Clock.Now() }

// call wraps one engine call in a span.
func (e *engineKV) call(name string, f func() error) error {
	sp := e.tr.begin(layerEngine, name, e.parent, e.req, e.clock())
	err := f()
	e.tr.end(sp, e.clock())
	return err
}

// lookup times the primary-index probe the KV call is about to make.
func (e *engineKV) lookup(key uint64) {
	if e.tr == nil {
		return
	}
	sp := e.tr.begin(layerBtree, "btree.lookup", e.parent, e.req, -1)
	e.kv.Table().Index().Get(key)
	e.tr.end(sp, -1)
}

func (e *engineKV) run(write bool, fn func(txn *engine.Txn) error) error {
	commit := "engine.commit.read"
	if write {
		commit = "engine.commit.write"
	}
	var err error
	for attempt := 0; attempt <= txnRetries; attempt++ {
		var txn *engine.Txn
		e.call("engine.begin", func() error { txn = e.db.Begin(); return nil })
		err = fn(txn)
		if err == nil {
			err = e.call(commit, func() error { return txn.Commit(e.ctx) })
		}
		if err == nil {
			return nil
		}
		if aerr := txn.Abort(e.ctx); aerr != nil {
			return fmt.Errorf("abort after %w: %v", err, aerr)
		}
		if !errors.Is(err, engine.ErrConflict) {
			return err
		}
	}
	return err
}

// status maps an engine error onto the server's status contract.
func status(err error, okStatus int) (int, error) {
	switch {
	case err == nil:
		return okStatus, nil
	case errors.Is(err, engine.ErrNotFound):
		return 404, nil
	case errors.Is(err, engine.ErrConflict):
		return 409, nil
	}
	return 500, err
}

func (e *engineKV) get(key uint64) (int, []byte, error) {
	var val []byte
	e.lookup(key)
	st, err := status(e.run(false, func(txn *engine.Txn) error {
		return e.call("engine.get", func() (gerr error) { val, gerr = e.kv.Get(e.ctx, txn, key); return })
	}), 200)
	return st, val, err
}

func (e *engineKV) put(key uint64, val []byte) (int, error) {
	e.lookup(key)
	return status(e.run(true, func(txn *engine.Txn) error {
		return e.call("engine.put", func() error { return e.kv.Put(e.ctx, txn, key, val) })
	}), 204)
}

func (e *engineKV) del(key uint64) (int, error) {
	e.lookup(key)
	return status(e.run(true, func(txn *engine.Txn) error {
		return e.call("engine.delete", func() error { return e.kv.Delete(e.ctx, txn, key) })
	}), 204)
}

func (e *engineKV) scan(from uint64, limit int) (int, []kvPair, error) {
	var out []kvPair
	st, err := status(e.run(false, func(txn *engine.Txn) error {
		out = out[:0]
		return e.call("engine.scan", func() error {
			return e.kv.Scan(e.ctx, txn, from, limit, func(k uint64, v []byte) bool {
				out = append(out, kvPair{Key: k, Value: append([]byte(nil), v...)})
				return true
			})
		})
	}), 200)
	return st, out, err
}

func (e *engineKV) txn(ops []subOp, valueBytes int) (int, []bool, error) {
	found := make([]bool, len(ops))
	v := make([]byte, valueBytes)
	st, err := status(e.run(true, func(txn *engine.Txn) error {
		for i, o := range ops {
			e.lookup(o.key)
			if o.del {
				err := e.call("engine.delete", func() error { return e.kv.Delete(e.ctx, txn, o.key) })
				switch {
				case errors.Is(err, engine.ErrNotFound):
					found[i] = false
				case err != nil:
					return err
				default:
					found[i] = true
				}
				continue
			}
			encodeValue(v, o.key, o.version)
			if err := e.call("engine.put", func() error { return e.kv.Put(e.ctx, txn, o.key, v) }); err != nil {
				return err
			}
			found[i] = true
		}
		return nil
	}), 200)
	return st, found, err
}

// replayServe replays the nominal phase's recorded op streams, closed loop
// on one worker, on a fresh stack built as the server builds it and
// preloaded with the same keys. Every answer goes through the same
// oracle as the served run. The replay is short, so it runs replays times
// on fresh stacks and the end-to-end metrics are medians over the replays;
// the per-layer metrics come from the last replay.
func replayServe(name string, w *workloadSpec, env *runEnv, streams [][]kvOp, traced bool, p *pass) error {
	const replays = 7
	var sim, simTail, nvmW, wall []float64
	for i := 0; i < replays; i++ {
		runtime.GC() // every replay starts from the same heap state
		r, err := replayOnce(w, env, streams, traced && i == replays-1, p, i == replays-1)
		if err != nil {
			return err
		}
		sim = append(sim, r.simKops)
		simTail = append(simTail, r.simTail)
		nvmW = append(nvmW, r.nvmW)
		wall = append(wall, r.wallKops)
		if r.tr != nil {
			p.engineLayers(r.tr.times(), r.ops)
			env.writeTrace(r.tr, name+"-replay")
		}
	}
	p.info = append(p.info, fmt.Sprintf("replays: sim kops %.0f, sim tail us %.1f, wall kops %.0f", sim, simTail, wall))
	p.e2e["sim_kops"] = median(sim)
	p.e2e["sim_tail_us"] = median(simTail)
	p.e2e["nvm_write_bytes_per_op"] = median(nvmW)
	p.layer["engine.wall_kops"] = median(wall)
	return nil
}

type replayResult struct {
	simKops, simTail, nvmW, wallKops, ops float64
	tr                                    *tracer
}

func replayOnce(w *workloadSpec, env *runEnv, streams [][]kvOp, traced bool, p *pass, last bool) (replayResult, error) {
	var out replayResult
	st, err := newServeStack()
	if err != nil {
		return out, err
	}
	defer st.close()
	// Preload in batches of 64 keys per transaction, as the served run's
	// preload does, so the replay's commit count (and with it where the
	// inline MVTO GC pass falls) does not depend on the seed.
	loadCtx := core.NewCtx(env.seed ^ 0x10ad)
	val := make([]byte, w.ValueBytes)
	txn, batched := st.db.Begin(), 0
	for k := uint64(0); k < w.Keys; k++ {
		if !w.preloaded(env.seed, k) {
			continue
		}
		encodeValue(val, k, 0)
		if err := st.kv.Put(loadCtx, txn, k, val); err != nil {
			return out, fmt.Errorf("replay preload: %w", err)
		}
		if batched++; batched == 64 {
			if err := txn.Commit(loadCtx); err != nil {
				return out, fmt.Errorf("replay preload: %w", err)
			}
			txn, batched = st.db.Begin(), 0
		}
	}
	if err := txn.Commit(loadCtx); err != nil {
		return out, fmt.Errorf("replay preload: %w", err)
	}
	frontier := loadCtx.Clock.Now()

	if traced {
		out.tr = newTracer()
	}
	wt := out.tr.worker()
	ctx := core.NewCtx(env.seed * 977)
	ctx.Clock.AdvanceTo(frontier)
	ekv := &engineKV{kv: st.kv, db: st.db, ctx: ctx, tr: wt}
	execs := make([]*kvExec, len(streams))
	for i := range streams {
		execs[i] = newKVExec(w, ekv, env.seed, i, len(streams))
	}
	var sim, opWall samples
	var ops, committed int64
	before := st.snap()
	start, t0 := ctx.Clock.Now(), time.Now()
	// One worker takes the connections' ops in turn. Each connection's
	// order is kept; two concurrent workers would make simulated time
	// depend on how the host schedules them, because a worker whose
	// virtual clock lags the shared device horizon is charged waiting.
	for k := 0; ; k++ {
		more := false
		for i, stream := range streams {
			if k >= len(stream) {
				continue
			}
			more = true
			ekv.req = uint64(i)<<40 | uint64(k)
			c0, w0 := ctx.Clock.Now(), time.Now()
			ekv.parent = wt.begin(layerEngine, txnSpanName[stream[k].kind], -1, ekv.req, c0)
			_, ok := execs[i].exec(stream[k])
			wt.end(ekv.parent, ctx.Clock.Now())
			sim = append(sim, ctx.Clock.Now()-c0)
			opWall = append(opWall, int64(time.Since(w0)))
			ops++
			if ok {
				committed++
			}
			if ops%256 == 0 {
				st.sampleFree()
			}
		}
		if !more {
			break
		}
	}
	elapsed := ctx.Clock.Now() - start
	wall := time.Since(t0)
	after := st.snap()
	for _, x := range execs {
		p.t.add(&x.t)
	}
	sim.sorted()
	out.simKops = ratio(float64(committed), float64(elapsed)/1e9) / 1e3
	out.simTail = sim.tailMean() / 1e3
	out.nvmW = ratio(float64(after.nvmW-before.nvmW), float64(committed))
	out.wallKops = medianRate(opWall, 1)
	out.ops = float64(ops)
	if last {
		for _, m := range []string{"sim_kops", "sim_tail_us", "nvm_write_bytes_per_op", "engine.wall_kops"} {
			p.n[m] = int(committed)
		}
		p.info = append(p.info, fmt.Sprintf("engine replay: %d ops of the nominal phase, %.3f s wall (last of 7)", ops, wall.Seconds()))
		p.stackLayers(before, after, float64(ops), st, false)
	}
	return out, nil
}
