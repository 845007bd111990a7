package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"regexp"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// serverProc is one spitfire-serve child process.
type serverProc struct {
	cmd  *exec.Cmd
	addr string
	done chan struct{}
	log  bytes.Buffer
	mu   sync.Mutex
}

var servingRE = regexp.MustCompile(`serving on http://([0-9.]+:[0-9]+)/`)

// startServer runs the binary with its default flags, except for a kernel-
// chosen loopback port, and waits for the line that announces the address.
func startServer(bin string) (*serverProc, error) {
	s := &serverProc{done: make(chan struct{})}
	s.cmd = exec.Command(bin, "-addr", "127.0.0.1:0")
	// The server dies with the benchmark, however the benchmark ends.
	s.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stderr, err := s.cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := s.cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", bin, err)
	}
	addrc := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			line := sc.Text()
			s.mu.Lock()
			s.log.WriteString(line + "\n")
			s.mu.Unlock()
			if m := servingRE.FindStringSubmatch(line); m != nil {
				select {
				case addrc <- m[1]:
				default:
				}
			}
		}
		close(s.done)
	}()
	select {
	case s.addr = <-addrc:
		return s, nil
	case <-s.done:
		s.cmd.Wait()
		return nil, fmt.Errorf("spitfire-serve exited before serving: %s", s.stderr())
	case <-time.After(30 * time.Second):
		s.stop()
		return nil, fmt.Errorf("spitfire-serve did not announce its address in 30s")
	}
}

func (s *serverProc) stderr() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return strings.TrimSpace(s.log.String())
}

// stop kills the server and waits until it has exited.
func (s *serverProc) stop() {
	s.cmd.Process.Signal(syscall.SIGKILL)
	<-s.done
	s.cmd.Wait()
}

// rssMiB reads the process's resident set size from /proc.
func rssMiB(pid int) (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmRSS:" {
			kb, err := strconv.ParseFloat(f[1], 64)
			return kb / 1024, err
		}
	}
	return 0, fmt.Errorf("no VmRSS in /proc/%d/status", pid)
}

// scrape is one reading of the server's counters: /metrics (counter and
// summary _sum/_count series) and /stats.json.
type scrape struct {
	metrics map[string]float64
	stats   map[string]float64
}

func scrapeServer(c *httpConn) (scrape, error) {
	sc := scrape{metrics: map[string]float64{}, stats: map[string]float64{}}
	st, body, err := c.do("GET", "/metrics", nil)
	if err != nil || st != 200 {
		return sc, fmt.Errorf("GET /metrics: status %d: %v", st, err)
	}
	for _, line := range strings.Split(string(body), "\n") {
		if line == "" || line[0] == '#' || strings.Contains(line, "{") {
			continue
		}
		f := strings.Fields(line)
		if len(f) == 2 {
			if v, err := strconv.ParseFloat(f[1], 64); err == nil {
				sc.metrics[f[0]] = v
			}
		}
	}
	st, body, err = c.do("GET", "/stats.json", nil)
	if err != nil || st != 200 {
		return sc, fmt.Errorf("GET /stats.json: status %d: %v", st, err)
	}
	var raw map[string]any
	if err := json.Unmarshal(body, &raw); err != nil {
		return sc, fmt.Errorf("/stats.json: %w", err)
	}
	for k, v := range raw {
		if f, ok := v.(float64); ok {
			sc.stats[k] = f
		}
	}
	return sc, nil
}

// delta is after minus before for a /metrics series.
func (a scrape) delta(b scrape, name string) float64 { return a.metrics[name] - b.metrics[name] }

// preload writes the workload's preloaded keys (version 0) through
// /kv/txn batches, split over the connections.
func preload(w *workloadSpec, conns []*httpConn, seed uint64) error {
	const batch = 64
	errc := make(chan error, len(conns))
	for ci, c := range conns {
		go func(ci int, c *httpConn) {
			store := &httpKV{c: c}
			var ops []subOp
			flush := func() error {
				if len(ops) == 0 {
					return nil
				}
				st, _, err := store.txn(ops, w.ValueBytes)
				if err != nil || st != 200 {
					return fmt.Errorf("preload batch: status %d: %v", st, err)
				}
				ops = ops[:0]
				return nil
			}
			for k := uint64(ci); k < w.Keys; k += uint64(len(conns)) {
				if !w.preloaded(seed, k) {
					continue
				}
				ops = append(ops, subOp{key: k})
				if len(ops) == batch {
					if err := flush(); err != nil {
						errc <- err
						return
					}
				}
			}
			errc <- flush()
		}(ci, c)
	}
	var first error
	for range conns {
		if err := <-errc; err != nil && first == nil {
			first = err
		}
	}
	return first
}

// serveStream drives one connection's op stream through the oracle.
type serveStream struct {
	gen  *opGen
	exec *kvExec
	ops  []kvOp // the ops of the recorded window, for the engine replay
	rec  bool
}

func (s *serveStream) next(_ *wtrace, _ int32, _ uint64) (int, bool) {
	op := s.gen.next()
	if s.rec {
		s.ops = append(s.ops, op)
	}
	return s.exec.exec(op)
}

// runServe runs serve-read or serve-churn once: setups, the nominal-rate
// phase, the ladder, the final read-back, and the in-process replay of the
// nominal op stream.
func runServe(name string, w *workloadSpec, env *runEnv, traced bool) (*pass, error) {
	p := newPass()
	conns := env.spec.Connections
	// The load generator needs one processor: its goroutines mostly wait on
	// the network, and idle processors of a second scheduler only spin
	// against the server for the machine's CPUs.
	procs := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(procs)

	// Set up `Setups` times and keep the last server; the reported setup
	// time is the median.
	var srv *serverProc
	var cs []*httpConn
	var setups []float64
	for i := 0; i < w.Setups; i++ {
		if srv != nil {
			for _, c := range cs {
				c.Close()
			}
			srv.stop()
		}
		t0 := time.Now()
		var err error
		srv, err = startServer(env.serveBin)
		if err != nil {
			return nil, err
		}
		cs = make([]*httpConn, conns)
		for ci := range cs {
			if cs[ci], err = dialHTTP(srv.addr, fmt.Sprintf("perfbench-%d", ci)); err != nil {
				srv.stop()
				return nil, err
			}
		}
		if err := preload(w, cs, env.seed); err != nil {
			srv.stop()
			return nil, fmt.Errorf("%w; server log: %s", err, srv.stderr())
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer srv.stop()
	p.e2e["setup_s"] = median(setups)
	p.n["setup_s"] = len(setups)

	streams := make([]stream, conns)
	ss := make([]*serveStream, conns)
	for ci := range ss {
		ss[ci] = &serveStream{
			gen:  newOpGen(w, env.seed, ci, conns),
			exec: newKVExec(w, &httpKV{c: cs[ci]}, env.seed, ci, conns),
			rec:  true,
		}
		streams[ci] = ss[ci]
	}
	scrapeConn, err := dialHTTP(srv.addr, "perfbench-scrape")
	if err != nil {
		return nil, err
	}
	defer scrapeConn.Close()
	before, err := scrapeServer(scrapeConn)
	if err != nil {
		return nil, err
	}

	var tr *tracer
	var wts []*wtrace
	if traced {
		tr = newTracer()
		for range streams {
			wts = append(wts, tr.worker())
		}
	}
	nominalDur := time.Duration(w.NominalShare * env.seconds * float64(time.Second))
	nom := openLoop(streams, w.NominalRate, nominalDur, env.seed, wts)
	after, err := scrapeServer(scrapeConn)
	if err != nil {
		return nil, err
	}
	for _, s := range ss {
		s.rec = false
	}
	p.nominal(nom)
	// The ladder's length depends on where the knee falls; the nominal op
	// stream is the same on every run, so memory is read after it.
	rss, err := rssMiB(srv.cmd.Process.Pid)
	if err != nil {
		return nil, err
	}
	p.e2e["rss_mb"] = rss

	ladderBudget := time.Duration((1-w.NominalShare)*env.seconds*float64(time.Second)) - nominalDur/10
	best, rungs := climb(streams, w.Ladder, w.P99LimitUs, ladderBudget, env.seed^0x1add, nil)
	p.ladder(best, rungs, w.P99LimitUs)

	end, err := scrapeServer(scrapeConn)
	if err != nil {
		return nil, err
	}

	var execs []*kvExec
	for _, s := range ss {
		p.t.add(&s.exec.t)
		execs = append(execs, s.exec)
	}
	final := verifyAll(w, &httpKV{c: cs[0]}, execs)
	p.t.mismatches += final.mismatches
	p.t.failed += final.mismatches
	for _, n := range final.notes {
		p.t.note("%s", n)
	}
	p.info = append(p.info, fmt.Sprintf("final read-back: %d live keys checked", final.attempted))
	for _, c := range cs {
		c.Close()
	}

	// Server-side per-layer numbers: handler time over the nominal phase,
	// outcome counters over the whole run.
	var hsum, hcnt float64
	for _, ep := range []string{"get", "put", "delete", "scan", "txn"} {
		hsum += after.delta(before, "spitfire_req_"+ep+"_ns_sum")
		hcnt += after.delta(before, "spitfire_req_"+ep+"_ns_count")
	}
	p.layer["server.handler_us_mean"] = ratio(hsum, hcnt) / 1e3
	p.n["server.handler_us_mean"] = int(hcnt)
	sent := float64(p.t.attempted)
	p.layer["server.refused_frac"] = ratio(float64(p.t.refused), sent)
	p.layer["server.conflict_frac"] = ratio(end.stats["conflicts"]-before.stats["conflicts"], sent)
	p.layer["server.txn_retries_per_op"] = ratio(end.stats["txn_retries"]-before.stats["txn_retries"], sent)
	hits := func(series string) float64 { return end.delta(before, "spitfire_"+series+"_total") }
	fetches := hits("hit_dram") + hits("hit_mini") + hits("hit_nvm") + hits("miss_ssd")
	p.layer["core.hit_dram_frac"] = ratio(hits("hit_dram")+hits("hit_mini"), fetches)
	p.layer["core.hit_nvm_frac"] = ratio(hits("hit_nvm"), fetches)
	p.layer["core.miss_ssd_frac"] = ratio(hits("miss_ssd"), fetches)
	p.n["core.hit_dram_frac"] = int(fetches)
	p.layer["core.min_free_frac"] = end.stats["min_free_frac_seen"]
	if traced {
		lt := tr.times()
		calls := lt.byName["server.call"]
		p.layer["server.net_self_us_mean"] = calls.mean()/1e3 - ratio(hsum, hcnt)/1e3
		p.n["server.net_self_us_mean"] = len(calls)
		p.genLayers(lt, float64(nom.sent))
		env.writeTrace(tr, name+"-serve")
	}

	// Replay the nominal op stream in-process for the simulated-time
	// metrics (and, traced, the engine spans).
	var recorded [][]kvOp
	for _, s := range ss {
		recorded = append(recorded, s.ops)
	}
	return p, replayServe(name, w, env, recorded, traced, p)
}
