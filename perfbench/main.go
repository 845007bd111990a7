// Command perfbench is the repository's benchmark. It runs one named
// workload against the Spitfire stack, checks every answer with an oracle,
// and prints each metric by name and unit, ending with one JSON line:
//
//	perfbench --workload serve-read --seed 1 --seconds 12 --trace 0 \
//	    --serve-bin .bench_build/bin/spitfire-serve --out .bench_build
//
// With --trace 0 the JSON carries the end-to-end metrics of an untraced
// run. With --trace 1 it runs the workload untraced and then again with
// spans recorded around every call into a layer, and the JSON carries the
// per-layer metrics, the per-layer self times and the tracing overhead
// (traced minus untraced) of every end-to-end metric. Workload definitions
// live in spec.json; perfbench/run.py builds the binaries and runs this.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
)

// runEnv is what every workload run needs from the command line.
type runEnv struct {
	spec     *benchSpec
	seed     uint64
	seconds  float64
	serveBin string
	outDir   string
	notes    []string
}

// pass is one run of a workload: end-to-end and per-layer metrics, their
// sample counts, and the outcome tally.
type pass struct {
	e2e   map[string]float64
	layer map[string]float64
	n     map[string]int
	t     tally
	info  []string
}

func newPass() *pass {
	return &pass{e2e: map[string]float64{}, layer: map[string]float64{}, n: map[string]int{}}
}

// nominal sets the latency metrics from the nominal-rate phase.
func (p *pass) nominal(ph *phase) {
	for name, m := range map[string]struct {
		class int
		q     float64
	}{"gen.get_p50_us": {classGet, 0.5}, "gen.get_p99_us": {classGet, 0.99}, "gen.write_p99_us": {classWrite, 0.99}} {
		v, n := ph.quantile(m.class, m.q)
		p.layer[name] = v / 1e3
		p.n[name] = n
	}
	p.layer["gen.late_us_p99"] = ph.late.quantile(0.99) / 1e3
	p.layer["gen.backlog_max"] = float64(ph.backlogMax)
	p.n["gen.late_us_p99"] = len(ph.late)
	p.info = append(p.info, fmt.Sprintf("nominal phase: %.0f req/s offered, %d sent, %d failed, backlog max %d",
		ph.rate, ph.sent, ph.failed, ph.backlogMax))
	for c, name := range []string{"get", "write", "scan"} {
		l := ph.lat[c]
		p.info = append(p.info, fmt.Sprintf("  %-5s us: p50 %.1f  p90 %.1f  p99 %.1f  p99.9 %.1f  max %.1f  (n=%d)", name,
			l.quantile(0.5)/1e3, l.quantile(0.9)/1e3, l.quantile(0.99)/1e3, l.quantile(0.999)/1e3, l.quantile(1)/1e3, len(l)))
	}
	for _, w := range []struct {
		name  string
		class int
		q     float64
	}{{"get p50", classGet, 0.5}, {"get p99", classGet, 0.99}, {"write p99", classWrite, 0.99}} {
		var vs []string
		for _, v := range ph.windowValues(w.class, w.q) {
			vs = append(vs, fmt.Sprintf("%.0f", v/1e3))
		}
		p.info = append(p.info, fmt.Sprintf("  %s us by window: %s", w.name, strings.Join(vs, " ")))
	}
	p.info = append(p.info, fmt.Sprintf("  late  us: p50 %.1f  p99 %.1f  max %.1f", ph.late.quantile(0.5)/1e3, ph.late.quantile(0.99)/1e3, ph.late.quantile(1)/1e3))
}

// ladder records the climb.
func (p *pass) ladder(best float64, rungs []*phase, limitUs float64) {
	p.layer["gen.max_ok_rate"] = best
	p.n["gen.max_ok_rate"] = len(rungs)
	for i, r := range rungs {
		verdict := "ok"
		if !r.rungOK(limitUs) {
			verdict = "fail"
		}
		p.info = append(p.info, fmt.Sprintf("ladder rung %2d: %8.0f req/s  p99 %9.1f us (n=%d)  failed %d  backlog end %d  %s",
			i, r.rate, r.all.quantile(0.99)/1e3, len(r.all), r.failed, r.backlogEnd, verdict))
	}
	if len(rungs) > 0 && rungs[len(rungs)-1].rungOK(limitUs) {
		p.info = append(p.info, "ladder: ran out of rungs or time before a rung failed; max_ok_rate is a lower bound")
	}
}

// genLayers sets the span-derived self times of the generator and server
// layers.
func (p *pass) genLayers(lt layerTimes, ops float64) {
	p.layer["self.gen.wall_us_per_op"] = ratio(float64(lt.selfWall[layerGen]), ops) / 1e3
	p.layer["self.server.wall_us_per_op"] = ratio(float64(lt.selfWall[layerServer]), ops) / 1e3
}

// engineLayers sets the span-derived engine and btree metrics.
func (p *pass) engineLayers(lt layerTimes, ops float64) {
	us := func(name string, q float64) float64 { return lt.byName[name].quantile(q) / 1e3 }
	p.layer["engine.get_us_p50"] = us("engine.get", 0.5)
	p.layer["engine.get_us_p99"] = us("engine.get", 0.99)
	writes := append(append(samples(nil), lt.byName["engine.put"]...), lt.byName["engine.delete"]...).sorted()
	commits := append(append(samples(nil), lt.byName["engine.commit.read"]...), lt.byName["engine.commit.write"]...).sorted()
	p.layer["engine.write_us_p99"] = writes.quantile(0.99) / 1e3
	p.layer["engine.commit_us_p50"] = commits.quantile(0.5) / 1e3
	p.layer["engine.commit_us_p99"] = commits.quantile(0.99) / 1e3
	// Simulated costs take a few discrete values (one per device path), so
	// their median sits on one of them; the mean moves with the mix.
	p.layer["engine.read_sim_ns_mean"] = lt.simByName["engine.get"].mean()
	p.layer["engine.update_sim_ns_mean"] = lt.simByName["engine.put"].mean()
	p.layer["engine.commit_sim_ns_mean"] = append(append(samples(nil), lt.simByName["engine.commit.read"]...), lt.simByName["engine.commit.write"]...).mean()
	p.layer["engine.read_us_p50"] = us("txn.read", 0.5)
	p.layer["engine.update_us_p50"] = us("txn.update", 0.5)
	p.layer["btree.lookup_us_p50"] = us("btree.lookup", 0.5)
	for name, metric := range map[string]string{
		"engine.get": "engine.get_us_p50", "txn.read": "engine.read_us_p50",
		"txn.update": "engine.update_us_p50", "btree.lookup": "btree.lookup_us_p50",
	} {
		p.n[metric] = len(lt.byName[name])
	}
	p.n["engine.get_us_p99"] = p.n["engine.get_us_p50"]
	p.n["engine.write_us_p99"] = len(writes)
	p.n["engine.commit_us_p50"] = len(commits)
	p.n["engine.commit_us_p99"] = len(commits)
	p.n["engine.read_sim_ns_mean"] = len(lt.simByName["engine.get"])
	p.n["engine.update_sim_ns_mean"] = len(lt.simByName["engine.put"])
	p.n["engine.commit_sim_ns_mean"] = len(lt.simByName["engine.commit.read"]) + len(lt.simByName["engine.commit.write"])
	p.layer["self.engine.wall_us_per_op"] = ratio(float64(lt.selfWall[layerEngine]), ops) / 1e3
	p.layer["self.btree.wall_us_per_op"] = ratio(float64(lt.selfWall[layerBtree]), ops) / 1e3
	p.layer["self.engine.sim_ns_per_op"] = ratio(float64(lt.selfSim[layerEngine]), ops)
}

// writeTrace stores a traced run's spans under the output directory.
func (env *runEnv) writeTrace(tr *tracer, label string) {
	dir := filepath.Join(env.outDir, "traces")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		env.notes = append(env.notes, "trace not written: "+err.Error())
		return
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.jsonl", label, env.seed))
	n, err := tr.write(path, label, 200000)
	if err != nil {
		env.notes = append(env.notes, "trace not written: "+err.Error())
		return
	}
	env.notes = append(env.notes, fmt.Sprintf("spans: %d written to %s", n, path))
}

func runWorkload(name string, env *runEnv, traced bool) (*pass, error) {
	w, ok := env.spec.Workloads[name]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", name)
	}
	var p *pass
	var err error
	if name == "ycsb-tiered" {
		p, err = runYCSB(name, &w, env, traced)
	} else {
		p, err = runServe(name, &w, env, traced)
	}
	if err != nil {
		return nil, err
	}
	p.e2e["ok_frac"] = 1 - ratio(float64(p.t.failed), float64(p.t.attempted))
	p.n["ok_frac"] = int(p.t.attempted)
	return p, nil
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type jsonResult struct {
	Correct   bool                  `json:"correct"`
	Attempted int64                 `json:"attempted"`
	Failed    int64                 `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

func main() {
	workload := flag.String("workload", "", "workload name (see spec.json)")
	seed := flag.Uint64("seed", 1, "input seed")
	seconds := flag.Float64("seconds", 12, "measured seconds per run")
	trace := flag.Int("trace", 0, "1: also run traced and report per-layer metrics")
	serveBin := flag.String("serve-bin", ".bench_build/bin/spitfire-serve", "spitfire-serve binary")
	outDir := flag.String("out", ".bench_build", "directory for traces")
	benchJSON := flag.String("benchmark-json", "BENCHMARK.json", "BENCHMARK.json to check the metric lists against")
	flag.Parse()

	spec, err := loadSpec()
	if err == nil {
		err = checkBenchmarkJSON(spec, *benchJSON)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	env := &runEnv{spec: spec, seed: *seed, seconds: *seconds, serveBin: *serveBin, outDir: *outDir}

	base, err := runWorkload(*workload, env, false)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	res := jsonResult{Metrics: map[string]jsonMetric{}}
	tot := base.t
	if *trace == 0 {
		report(os.Stdout, *workload, "untraced", base, spec.EndToEnd, base.e2e)
		report(os.Stdout, *workload, "untraced, wall clock, unbounded", base, wallSide(spec), base.layer)
		for _, m := range spec.EndToEnd {
			res.Metrics[m.Name] = jsonMetric{base.e2e[m.Name], m.Unit}
		}
	} else {
		traced, err := runWorkload(*workload, env, true)
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		tot.add(&traced.t)
		// Allocation and GC figures and the client-side tails come from
		// the untraced run: span recording allocates and takes time, which
		// would otherwise be charged to the program.
		for k, v := range base.layer {
			if untracedLayer(k) {
				traced.layer[k] = v
				if n, ok := base.n[k]; ok {
					traced.n[k] = n
				}
			}
		}
		for _, m := range spec.EndToEnd {
			traced.layer["overhead."+m.Name] = traced.e2e[m.Name] - base.e2e[m.Name]
		}
		report(os.Stdout, *workload, "untraced", base, spec.EndToEnd, base.e2e)
		report(os.Stdout, *workload, "traced", traced, spec.EndToEnd, traced.e2e)
		report(os.Stdout, *workload, "traced", traced, spec.PerLayer, traced.layer)
		for _, m := range spec.PerLayer {
			res.Metrics[m.Name] = jsonMetric{traced.layer[m.Name], m.Unit}
		}
	}
	for _, n := range env.notes {
		fmt.Println("note:", n)
	}
	res.Correct = tot.mismatches == 0
	res.Attempted = tot.attempted
	res.Failed = tot.failed
	fmt.Printf("outcome: attempted %d, failed %d (refused %d, conflicts %d, transport %d, txn 404 %d), wrong answers %d\n",
		tot.attempted, tot.failed, tot.refused, tot.conflicts, tot.netErrors, tot.txnNotFound, tot.mismatches)
	fmt.Printf("error_frac %.6g (reported as ok_frac = 1 - error_frac)\n", ratio(float64(tot.failed), float64(tot.attempted)))
	for _, n := range tot.notes {
		fmt.Println("oracle:", n)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
	if !res.Correct {
		os.Exit(1)
	}
}

// untracedLayer reports whether a per-layer metric is taken from the
// untraced run of a traced invocation.
func untracedLayer(name string) bool {
	return strings.HasPrefix(name, "go.") || unboundedWall(name)
}

// unboundedWall reports whether a per-layer metric is one of the wall-clock
// figures every run prints: the client's view and the engine's wall rate,
// which on a shared virtual machine vary too much between runs to bound.
func unboundedWall(name string) bool {
	return strings.HasPrefix(name, "gen.") || name == "engine.wall_kops"
}

// wallSide lists the metrics unboundedWall selects.
func wallSide(spec *benchSpec) []metricSpec {
	var out []metricSpec
	for _, m := range spec.PerLayer {
		if unboundedWall(m.Name) {
			out = append(out, m)
		}
	}
	return out
}

// report prints one table of metrics with units and sample counts.
func report(f *os.File, workload, label string, p *pass, ms []metricSpec, vals map[string]float64) {
	fmt.Fprintf(f, "== %s (%s)\n", workload, label)
	for _, line := range p.info {
		fmt.Fprintf(f, "   %s\n", line)
	}
	p.info = nil
	for _, m := range ms {
		n := ""
		if c, ok := p.n[m.Name]; ok {
			n = fmt.Sprintf("n=%d", c)
		}
		extra := ""
		if m.Moves != "" {
			extra = "moves " + m.Moves
		}
		fmt.Fprintf(f, "%-34s %14.4f %-10s %-10s %s\n", m.Name, vals[m.Name], m.Unit, n, extra)
	}
}
