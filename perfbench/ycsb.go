package main

import (
	"errors"
	"fmt"
	"os"
	"runtime/debug"
	"sync"
	"time"

	"github.com/spitfire-db/spitfire"
	"github.com/spitfire-db/spitfire/internal/core"
	"github.com/spitfire-db/spitfire/internal/device"
	"github.com/spitfire-db/spitfire/internal/engine"
	"github.com/spitfire-db/spitfire/internal/zipf"
)

// newYCSBStack builds the §6.3-shaped stack through the public facade with
// its production defaults (cleaner on, RecommendedShards pools and WAL
// shards): one NVM device shared by the data arena and the log buffer, one
// SSD device shared by the page store and the log file. It then bulk-loads
// the table with self-verifying tuples.
func newYCSBStack(w *workloadSpec) (*stack, uint64, error) {
	nvm := spitfire.NewDevice(spitfire.NVMParams)
	disk := spitfire.NewDevice(spitfire.SSDParams)
	bm, err := spitfire.New(spitfire.Config{
		DRAMBytes: w.DRAMBytes,
		NVMBytes:  w.NVMBytes,
		Policy:    spitfire.SpitfireLazy,
		PMem:      spitfire.NewPMem(spitfire.PMemOptions{Size: w.NVMBytes, Device: nvm}),
		SSD:       spitfire.NewMemSSD(disk),
	})
	if err != nil {
		return nil, 0, err
	}
	log := spitfire.NewMemLog(disk)
	wl, err := spitfire.NewWAL(spitfire.WALOptions{
		Buffer: spitfire.NewPMem(spitfire.PMemOptions{Size: 4 << 20, Device: nvm}),
		Store:  log,
		Shards: spitfire.RecommendedWALShards(),
	})
	if err != nil {
		bm.Close()
		return nil, 0, err
	}
	db, err := spitfire.OpenDB(spitfire.DBOptions{BM: bm, WAL: wl})
	if err != nil {
		bm.Close()
		return nil, 0, err
	}
	tb, err := db.CreateTable(100, "usertable", w.TupleBytes)
	if err != nil {
		bm.Close()
		return nil, 0, err
	}
	records := uint64(w.DBBytes / int64(w.TupleBytes+16))
	ctx := spitfire.NewCtx(0xCB)
	err = tb.Load(ctx, records, func(i uint64, p []byte) uint64 {
		encodeValue(p, i, 0)
		return i
	})
	if err != nil {
		bm.Close()
		return nil, 0, fmt.Errorf("load: %w", err)
	}
	return &stack{bm: bm, db: db, log: log, tb: tb, free: 1,
		nvm: []*device.Device{nvm}, ssd: []*device.Device{disk}}, records, nil
}

// ycsbWorker runs YCSB-BA transactions on one goroutine: zipfian keys over
// the loaded records, half reads (checked against the tuple's own key and
// checksum) and half updates writing a fresh self-verifying version.
type ycsbWorker struct {
	st      *stack
	ctx     *core.Ctx
	gen     *zipf.Generator
	rng     *zipf.Rand
	buf     []byte
	id      uint64
	version uint64
	readPct int
	t       tally
	simLat  samples // per-transaction simulated ns, while recording
	wallLat samples // per-transaction wall ns, while recording
	record  bool
	commits int64
}

func newYCSBWorker(st *stack, w *workloadSpec, records, seed uint64, id int) *ycsbWorker {
	rng := zipf.NewRand(seed*0x9E37 + uint64(id) + 1)
	return &ycsbWorker{st: st, ctx: core.NewCtx(seed ^ uint64(id+1)*0x5EED), rng: rng,
		gen: zipf.NewGenerator(records, w.Theta, rng), buf: make([]byte, w.TupleBytes),
		id: uint64(id), readPct: w.Mix["read"]}
}

// next runs one transaction, retrying MVTO conflicts as the server and the
// HTTP client together do, with the client's backoff between retries.
func (y *ycsbWorker) next(tr *wtrace, parent int32, req uint64) (int, bool) {
	key := y.gen.Next()
	read := int(y.rng.Uint64n(100)) < y.readPct
	class, root := classGet, "txn.read"
	if !read {
		class, root = classWrite, "txn.update"
		y.version++
		encodeValue(y.buf, key, y.id<<48|y.version)
	}
	y.t.attempted++
	c0, w0 := y.ctx.Clock.Now(), time.Now()
	sp := tr.begin(layerEngine, root, parent, req, c0)
	err := y.txn(tr, sp, req, key, read)
	tr.end(sp, y.ctx.Clock.Now())
	if y.record {
		y.simLat = append(y.simLat, y.ctx.Clock.Now()-c0)
		y.wallLat = append(y.wallLat, int64(time.Since(w0)))
	}
	switch {
	case errors.Is(err, engine.ErrConflict):
		y.t.conflicts++
		y.t.failed++
		y.t.note("key %d: %v", key, err)
		return class, false
	case err != nil:
		y.t.failed++
		y.t.note("key %d: %v", key, err)
		return class, false
	}
	y.commits++
	if read {
		k, _, ok := decodeValue(y.buf, len(y.buf))
		if !ok || k != key {
			y.t.mismatch("read key %d: tuple fails its checksum or names key %d", key, k)
			return class, false
		}
	}
	return class, true
}

func (y *ycsbWorker) txn(tr *wtrace, parent int32, req, key uint64, read bool) error {
	clk := y.ctx.Clock.Now
	var err error
	for attempt := 0; attempt <= (txnRetries+1)*(conflictRetries+1); attempt++ {
		if tr != nil {
			b := tr.begin(layerBtree, "btree.lookup", parent, req, -1)
			y.st.tb.Index().Get(key)
			tr.end(b, -1)
		}
		b := tr.begin(layerEngine, "engine.begin", parent, req, clk())
		txn := y.st.db.Begin()
		tr.end(b, clk())
		if read {
			s := tr.begin(layerEngine, "engine.get", parent, req, clk())
			err = y.st.tb.Read(y.ctx, txn, key, y.buf)
			tr.end(s, clk())
		} else {
			s := tr.begin(layerEngine, "engine.put", parent, req, clk())
			err = y.st.tb.Update(y.ctx, txn, key, y.buf)
			tr.end(s, clk())
		}
		if err == nil {
			commit := "engine.commit.write"
			if read {
				commit = "engine.commit.read"
			}
			c := tr.begin(layerEngine, commit, parent, req, clk())
			err = txn.Commit(y.ctx)
			tr.end(c, clk())
		}
		if err == nil {
			return nil
		}
		if aerr := txn.Abort(y.ctx); aerr != nil {
			return fmt.Errorf("abort after %w: %v", err, aerr)
		}
		if !errors.Is(err, engine.ErrConflict) {
			return err
		}
		conflictBackoff(attempt)
	}
	return err
}

// ckptEvery is how many transactions the closed loop runs between
// quiescent checkpoints. DB.Checkpoint must run with no transaction in
// flight; it flushes dirty DRAM pages and truncates the in-memory log,
// which would otherwise grow by about 1 KB per update.
const ckptEvery = 32768

// closedLoop runs every worker back to back until stop returns true
// (checked every 256 transactions) and returns the wall time taken. Every
// ckptEvery transactions the workers meet at a barrier and the last to
// arrive checkpoints; that pause is part of the measured time, as the
// paper's periodic dirty-page flushes are.
func closedLoop(ws []*ycsbWorker, trs []*wtrace, stop func(ops int64) bool) (time.Duration, error) {
	t0 := time.Now()
	var wg sync.WaitGroup
	var mu sync.Mutex
	cond := sync.NewCond(&mu)
	var total, nextCkpt int64 = 0, ckptEvery
	var waiting, generation int
	var ckptErr error
	done := false
	for i, y := range ws {
		wg.Add(1)
		go func(i int, y *ycsbWorker) {
			defer wg.Done()
			var tr *wtrace
			if trs != nil {
				tr = trs[i]
			}
			for n := uint64(0); ; n++ {
				y.next(tr, -1, y.id<<40|n)
				if n%256 == 255 {
					if i == 0 {
						y.st.sampleFree()
					}
					mu.Lock()
					total += 256
					if !done {
						done = stop(total)
					}
					if !done && total >= nextCkpt {
						// Barrier: the last worker to arrive checkpoints.
						waiting++
						if waiting == len(ws) {
							nextCkpt = total + ckptEvery
							if _, err := y.st.db.Checkpoint(y.ctx); err != nil && ckptErr == nil {
								ckptErr = err
								done = true
							}
							waiting = 0
							generation++
							cond.Broadcast()
						} else {
							for g := generation; g == generation && !done; {
								cond.Wait()
							}
						}
					}
					d := done
					mu.Unlock()
					if d {
						cond.Broadcast()
						return
					}
				}
			}
		}(i, y)
	}
	wg.Wait()
	elapsed := time.Since(t0)
	if ckptErr != nil {
		return elapsed, fmt.Errorf("checkpoint: %w", ckptErr)
	}
	for _, y := range ws {
		if y.t.mismatches > 0 || y.t.failed > y.t.conflicts {
			return elapsed, fmt.Errorf("ycsb worker %d: %v", y.id, y.t.notes)
		}
	}
	return elapsed, nil
}

// alignClocks starts every worker at the latest simulated time any worker
// reached, so no interval absorbs another's device-queue horizon.
func alignClocks(ws []*ycsbWorker) {
	var frontier int64
	for _, y := range ws {
		frontier = max(frontier, y.ctx.Clock.Now())
	}
	for _, y := range ws {
		y.ctx.Clock.AdvanceTo(frontier)
	}
}

// checkpoint runs a quiescent checkpoint between phases, when no worker
// has a transaction in flight.
func checkpoint(st *stack, ws []*ycsbWorker) error {
	if _, err := st.db.Checkpoint(ws[0].ctx); err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	return nil
}

// setupYCSB builds and loads the stack, then warms it closed-loop until
// both tiers have filled and started evicting and every frame has seen
// warm_touches_per_frame touches on average.
func setupYCSB(w *workloadSpec, seed uint64) (*stack, []*ycsbWorker, error) {
	st, records, err := newYCSBStack(w)
	if err != nil {
		return nil, nil, err
	}
	ws := make([]*ycsbWorker, w.Workers)
	for i := range ws {
		ws[i] = newYCSBWorker(st, w, records, seed, i)
	}
	frames := int64(st.bm.DRAMFrames() + st.bm.NVMFrames())
	minOps := frames * int64(w.WarmTouches)
	const maxOps = 4_000_000
	_, err = closedLoop(ws, nil, func(ops int64) bool {
		if ops >= maxOps {
			return true
		}
		if ops < minOps || ops%4096 != 0 {
			return false
		}
		s := st.bm.Stats()
		return s.EvictDRAM+s.CleanerCleanedDRAM > 0 && s.EvictNVM+s.CleanerCleanedNVM > 0
	})
	if err != nil {
		st.close()
		return nil, nil, fmt.Errorf("warm-up: %w", err)
	}
	if err := checkpoint(st, ws); err != nil {
		st.close()
		return nil, nil, err
	}
	return st, ws, nil
}

// runYCSB runs ycsb-tiered once: setups, a closed-loop phase for the
// simulated-time metrics, an open-loop nominal phase for latency, the
// ladder, and a final scan that must find every loaded row intact.
func runYCSB(name string, w *workloadSpec, env *runEnv, traced bool) (*pass, error) {
	p := newPass()
	var st *stack
	var ws []*ycsbWorker
	var setups []float64
	for i := 0; i < w.Setups; i++ {
		if st != nil {
			st.close()
			st, ws = nil, nil
			debug.FreeOSMemory() // so rss_mb sees only the stack in use
		}
		t0 := time.Now()
		var err error
		if st, ws, err = setupYCSB(w, env.seed); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer st.close()
	p.e2e["setup_s"] = median(setups)
	p.n["setup_s"] = len(setups)
	for _, y := range ws {
		y.t = tally{}
	}

	// Closed loop: the paper's metric.
	var tr *tracer
	var trs []*wtrace
	if traced {
		tr = newTracer()
		for range ws {
			trs = append(trs, tr.worker())
		}
	}
	alignClocks(ws)
	simStart := make([]int64, len(ws))
	for i, y := range ws {
		simStart[i] = y.ctx.Clock.Now()
		y.record = true
		y.commits = 0
	}
	st.free = 1
	before := st.snap()
	closedDur := time.Duration(w.ClosedShare * env.seconds * float64(time.Second))
	deadline := time.Now().Add(closedDur)
	wall, err := closedLoop(ws, trs, func(int64) bool { return time.Now().After(deadline) })
	if err != nil {
		return nil, err
	}
	after := st.snap()
	var sim, opWall samples
	var committed, elapsed int64
	for i, y := range ws {
		y.record = false
		sim = append(sim, y.simLat...)
		opWall = append(opWall, y.wallLat...)
		committed += y.commits
		elapsed += y.ctx.Clock.Now() - simStart[i]
	}
	sim.sorted()
	meanElapsed := float64(elapsed) / float64(len(ws)) / 1e9
	p.e2e["sim_kops"] = ratio(float64(committed), meanElapsed) / 1e3
	p.e2e["sim_tail_us"] = sim.tailMean() / 1e3
	p.e2e["nvm_write_bytes_per_op"] = ratio(float64(after.nvmW-before.nvmW), float64(committed))
	p.layer["engine.wall_kops"] = medianRate(opWall, len(ws))
	for _, m := range []string{"sim_kops", "sim_tail_us", "nvm_write_bytes_per_op", "engine.wall_kops"} {
		p.n[m] = int(committed)
	}
	p.stackLayers(before, after, float64(committed), st, true)
	p.info = append(p.info, fmt.Sprintf("closed loop: %d txns on %d workers in %.3f s wall, %.3f s simulated",
		committed, len(ws), wall.Seconds(), meanElapsed))
	if traced {
		p.engineLayers(tr.times(), float64(committed))
		env.writeTrace(tr, name+"-closed")
	}

	// Open loop at the nominal rate, then the ladder.
	streams := make([]stream, len(ws))
	for i, y := range ws {
		streams[i] = y
	}
	var gtr *tracer
	var gws []*wtrace
	if traced {
		gtr = newTracer()
		for range ws {
			gws = append(gws, gtr.worker())
		}
	}
	if err := checkpoint(st, ws); err != nil {
		return nil, err
	}
	nominalDur := time.Duration(w.NominalShare * env.seconds * float64(time.Second))
	nom := openLoop(streams, w.NominalRate, nominalDur, env.seed, gws)
	p.nominal(nom)
	if traced {
		lt := gtr.times()
		p.genLayers(lt, float64(nom.sent))
		// In process, the request handler is the transaction call itself.
		handler := append(append(samples(nil), lt.byName["txn.read"]...), lt.byName["txn.update"]...)
		p.layer["server.handler_us_mean"] = handler.mean() / 1e3
		p.layer["server.net_self_us_mean"] = lt.byName["server.call"].mean()/1e3 - handler.mean()/1e3
		p.n["server.handler_us_mean"] = len(handler)
		p.n["server.net_self_us_mean"] = len(lt.byName["server.call"])
	}
	budget := time.Duration((1-w.ClosedShare-w.NominalShare)*env.seconds*float64(time.Second)) - nominalDur/10
	var ckptErr error
	best, rungs := climb(streams, w.Ladder, w.P99LimitUs, budget, env.seed^0x1add, func() {
		if err := checkpoint(st, ws); err != nil && ckptErr == nil {
			ckptErr = err
		}
	})
	if ckptErr != nil {
		return nil, ckptErr
	}
	p.ladder(best, rungs, w.P99LimitUs)

	// The stack lives in this process, whose heap also holds the
	// benchmark's samples and garbage of earlier setups: collect first so
	// the reading reflects the state the program retains.
	debug.FreeOSMemory()
	rss, err := rssMiB(os.Getpid())
	if err != nil {
		return nil, err
	}
	p.e2e["rss_mb"] = rss
	for _, y := range ws {
		p.t.add(&y.t)
	}
	if err := verifyTable(st, ws[0].ctx, w, p); err != nil {
		return nil, err
	}
	return p, nil
}

// verifyTable scans the whole table: it must hold exactly the loaded rows,
// each naming its own key with a valid checksum.
func verifyTable(st *stack, ctx *core.Ctx, w *workloadSpec, p *pass) error {
	records := uint64(w.DBBytes / int64(w.TupleBytes+16))
	txn := st.db.Begin()
	var rows, bad uint64
	err := st.tb.Scan(ctx, txn, 0, func(key uint64, payload []byte) bool {
		if k, _, ok := decodeValue(payload, w.TupleBytes); !ok || k != key || key != rows {
			bad++
			p.t.note("final scan: row %d (key %d) fails its checksum or is out of order", rows, key)
		}
		rows++
		return true
	})
	if err != nil {
		if aerr := txn.Abort(ctx); aerr != nil {
			return fmt.Errorf("final scan: %w (abort: %v)", err, aerr)
		}
		return fmt.Errorf("final scan: %w", err)
	}
	if err := txn.Commit(ctx); err != nil {
		return fmt.Errorf("final scan commit: %w", err)
	}
	if rows != records {
		p.t.mismatch("final scan: %d rows, loaded %d", rows, records)
	}
	p.t.mismatches += int64(bad)
	p.t.failed += int64(bad)
	p.info = append(p.info, fmt.Sprintf("final scan: %d rows checked", rows))
	return nil
}
