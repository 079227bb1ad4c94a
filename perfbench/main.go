// Command perfbench is the repository's benchmark of record. It drives the
// live replicated control plane (switch recovery from fault to subscriber
// notification) and the two failure studies through their public entry
// points, checks every output, and prints one JSON result line.
//
//	go run . --workload live-node-failover --seed 1 --seconds 20 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics; with --trace 1
// it carries the per-layer metrics of a traced pass (see README.md).
package main

import (
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"sort"
	"time"

	"sharebackup/internal/fluid"
	"sharebackup/internal/obs"
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report is one run's outcome before printing: the contract metrics, the
// extra lines of the human-readable table, and failed output checks.
type report struct {
	attempted, failed int
	checks            []string
	metrics           map[string]metric
	lines             []string
}

func (r *report) set(name string, v float64, unit string) {
	if r.metrics == nil {
		r.metrics = map[string]metric{}
	}
	r.metrics[name] = metric{v, unit}
}

func (r *report) note(format string, args ...any) {
	r.lines = append(r.lines, fmt.Sprintf(format, args...))
}

var workloads = map[string]func(seed int64, budget time.Duration, trace bool) (*report, error){
	"live-node-failover": func(seed int64, budget time.Duration, trace bool) (*report, error) {
		return liveWorkload(nodeFailoverShape, seed, budget, trace)
	},
	"live-link-storm": func(seed int64, budget time.Duration, trace bool) (*report, error) {
		return liveWorkload(linkStormShape, seed, budget, trace)
	},
	"sim-fig1c": func(seed int64, budget time.Duration, trace bool) (*report, error) {
		return simWorkload("sim-fig1c", fig1cShape, seed, budget, trace)
	},
	"sim-fig1a": func(seed int64, budget time.Duration, trace bool) (*report, error) {
		return simWorkload("sim-fig1a", fig1aShape, seed, budget, trace)
	},
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "workload to run")
	seed := fs.Int64("seed", 1, "workload seed")
	seconds := fs.Int("seconds", 20, "measured seconds")
	trace := fs.Int("trace", 0, "1 runs the traced pass and reports per-layer metrics")
	record := fs.String("record-fingerprints", "", "write the simulator workloads' reference fingerprints to this file and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *record != "" {
		if err := recordFingerprints(*record); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		return 0
	}
	fn, ok := workloads[*workload]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload (one of %v), --seconds >= 1, --trace 0|1\n", workloadNames())
		return 2
	}
	rep, err := fn(*seed, time.Duration(*seconds)*time.Second, *trace == 1)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	names := make([]string, 0, len(rep.metrics))
	for n := range rep.metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	// A quantile of no samples is NaN. Per-layer metrics then read 0 (their
	// layer saw no event in the traced stretch); an end-to-end metric
	// without samples means the run measured nothing.
	for _, n := range names {
		m := rep.metrics[n]
		if !math.IsNaN(m.Value) {
			continue
		}
		if *trace == 0 {
			fmt.Fprintf(stderr, "perfbench: %s has no samples (%d of %d operations failed)\n", n, rep.failed, rep.attempted)
			return 1
		}
		rep.metrics[n] = metric{0, m.Unit}
		rep.note("%s: no samples in the traced run, reported as 0", n)
	}
	fmt.Fprintf(stdout, "# %s seed=%d seconds=%d trace=%d (GOMAXPROCS=%d)\n", *workload, *seed, *seconds, *trace, runtime.GOMAXPROCS(0))
	for _, l := range rep.lines {
		fmt.Fprintln(stdout, "#", l)
	}
	for _, n := range names {
		fmt.Fprintf(stdout, "# %-34s %14.6g %s\n", n, rep.metrics[n].Value, rep.metrics[n].Unit)
	}
	for _, c := range rep.checks {
		fmt.Fprintln(stdout, "# CHECK FAILED:", c)
	}
	out, err := json.Marshal(result{
		Correct:   len(rep.checks) == 0,
		Attempted: rep.attempted,
		Failed:    rep.failed,
		Metrics:   rep.metrics,
	})
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(out))
	return 0
}

func workloadNames() []string {
	var out []string
	for n := range workloads {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// perLayer is every per-layer metric with its unit, so a traced run of any
// workload reports the full set; a metric whose layer a workload does not
// exercise reads 0.
var perLayer = []struct{ name, unit string }{
	{"ctlnet.detect_ms.p50", "ms"},
	{"ctlnet.detect_ms.p90", "ms"},
	{"ctlnet.notify_ms.p50", "ms"},
	{"ctlnet.keepalives", "count"},
	{"ctlnet.probe_misses", "count"},
	{"ctlnet.wire_errors", "count"},
	{"ctlnet.misfires_per_s", "1/s"},
	{"ctlplane.commit_ms.p50", "ms"},
	{"ctlplane.commit_ms.p90", "ms"},
	{"ctlplane.entries_per_recovery", "ratio"},
	{"ctlplane.replication_cost_ms", "ms"},
	{"controller.apply_us.p50", "us"},
	{"controller.halts", "count"},
	{"circuit.reconfig_ms.p50", "ms"},
	{"fluid.self_s", "s"},
	{"fluid.rate_recompute_work", "count"},
	{"fluid.rate_recomputes", "count"},
	{"fluid.flows_completed", "count"},
	{"topo.self_s", "s"},
	{"failure.self_s", "s"},
	{"routing.self_s", "s"},
	{"coflow.self_s", "s"},
	{"sharebackup.self_s", "s"},
	{"ctlnet.self_s", "s"},
	{"ctlplane.self_s", "s"},
	{"controller.self_s", "s"},
	{"obs.self_s", "s"},
	{"syscall.self_s", "s"},
	{"runtime.self_s", "s"},
	{"runtime.gc_self_s", "s"},
	{"sweep.cpu_util", "ratio"},
	{"alloc_mb", "MB"},
	{"gen.late_ms.p99", "ms"},
	{"phase_residual_ms", "ms"},
	{"phase_attributed_ratio", "ratio"},
	{"obs.trace_overhead_ratio", "ratio"},
	{"false_recoveries", "count"},
	{"failed_ratio", "ratio"},
	{"ka_cpu_ns", "ns"},
	{"cpu_ms_per_op", "ms"},
}

// selfPackages are the packages whose profile self time is reported as
// "<pkg>.self_s".
var selfPackages = []string{
	"fluid", "topo", "failure", "routing", "coflow", "sharebackup",
	"ctlnet", "ctlplane", "controller", "obs", "syscall", "runtime",
}

func zeroPerLayer(r *report) {
	for _, m := range perLayer {
		r.set(m.name, 0, m.unit)
	}
}

// layerSample is what a traced pass measures around the calls into the
// program: its CPU profile, allocation and GC counters, and process CPU.
type layerSample struct {
	prof  *cpuProfile
	mem0  runtime.MemStats
	cpu0  time.Duration
	wall0 time.Time
}

func startLayers() (*layerSample, error) {
	ls := &layerSample{}
	runtime.ReadMemStats(&ls.mem0)
	p, err := startCPUProfile()
	if err != nil {
		return nil, err
	}
	ls.prof = p
	ls.cpu0, ls.wall0 = cpuTime(), time.Now()
	return ls, nil
}

// finish stops the profile and reports per-operation self times,
// allocation, and CPU utilisation over `workers` cores.
func (ls *layerSample) finish(r *report, ops int, workers int) error {
	cpu, wall := cpuTime()-ls.cpu0, time.Since(ls.wall0)
	st, err := ls.prof.stop()
	if err != nil {
		return err
	}
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	if ops < 1 {
		ops = 1
	}
	for _, pkg := range selfPackages {
		r.set(pkg+".self_s", st.byPkg[pkg].Seconds()/float64(ops), "s")
	}
	r.set("runtime.gc_self_s", st.gc.Seconds()/float64(ops), "s")
	r.set("alloc_mb", float64(mem.TotalAlloc-ls.mem0.TotalAlloc)/(1<<20)/float64(ops), "MB")
	r.set("sweep.cpu_util", cpu.Seconds()/(wall.Seconds()*float64(workers)), "ratio")
	r.note("traced pass: %d ops, profile %.2fs CPU sampled of %.2fs process CPU", ops, st.total.Seconds(), cpu.Seconds())
	return nil
}

// liveProcs is the GOMAXPROCS of the live workloads. The emulated cluster
// is mostly idle goroutines woken by loopback I/O and timers; with a second
// P the runtime wakes and parks threads to steal that work a varying number
// of times: voluntary context switches per run varied by 13 % and the
// process CPU per node recovery by 30 % across one set of runs, against
// 3 % and about 14 % on one P.
const liveProcs = 1

// liveWorkload runs one live workload. Untraced: clusters back to back for
// the whole budget. Traced: an untraced stretch, a traced stretch (bus
// sinks, CPU profile), then for link storms the single-node baseline and
// for node failover the misfire probe.
func liveWorkload(sh liveShape, seed int64, budget time.Duration, trace bool) (*report, error) {
	r := &report{}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(liveProcs))
	r.note("the emulated cluster runs with GOMAXPROCS=%d", liveProcs)
	if !trace {
		res, err := runLive(sh, 3, seed, budget, false)
		if err != nil {
			return nil, err
		}
		liveEndToEnd(r, res)
		return r, nil
	}
	zeroPerLayer(r)
	stretch := budget * 2 / 5
	plain, err := runLive(sh, 3, seed, stretch, false)
	if err != nil {
		return nil, err
	}
	ls, err := startLayers()
	if err != nil {
		return nil, err
	}
	traced, err := runLive(sh, 3, seed, stretch, true)
	if err != nil {
		pprofStop(ls)
		return nil, err
	}
	if err := ls.finish(r, traced.attempted, runtime.GOMAXPROCS(0)); err != nil {
		return nil, err
	}
	r.attempted = plain.attempted + traced.attempted
	r.failed = plain.failed + traced.failed
	r.checks = append(plain.checks, traced.checks...)

	var detect, commit, reconfig, notify, apply, residual []float64
	for _, p := range traced.phases {
		if p.node {
			detect = append(detect, ms(p.detect))
		}
		commit = append(commit, ms(p.commit))
		reconfig = append(reconfig, ms(p.reconfig))
		notify = append(notify, ms(p.notify))
		apply = append(apply, float64(p.apply)/float64(time.Microsecond))
		residual = append(residual, ms(p.residual))
	}
	if len(detect) > 0 {
		r.set("ctlnet.detect_ms.p50", quantile(detect, 0.5), "ms")
		r.set("ctlnet.detect_ms.p90", quantile(detect, 0.9), "ms")
	}
	if len(commit) > 0 {
		r.set("ctlnet.notify_ms.p50", median(notify), "ms")
		r.set("ctlplane.commit_ms.p50", quantile(commit, 0.5), "ms")
		r.set("ctlplane.commit_ms.p90", quantile(commit, 0.9), "ms")
		r.set("controller.apply_us.p50", median(apply), "us")
		r.set("circuit.reconfig_ms.p50", median(reconfig), "ms")
		r.set("phase_residual_ms", median(residual), "ms")
	}
	notified := traced.attempted - traced.failed
	if notified > 0 {
		r.set("phase_attributed_ratio", float64(len(traced.phases))/float64(notified), "ratio")
	}
	r.set("ctlnet.keepalives", float64(traced.keepalives), "count")
	r.set("ctlnet.probe_misses", float64(traced.probeMisses), "count")
	r.set("ctlnet.wire_errors", float64(traced.wireErrors), "count")
	if traced.recoveries > 0 {
		r.set("ctlplane.entries_per_recovery", float64(traced.logEntries)/float64(traced.recoveries), "ratio")
	}
	halts := plain.halts + traced.halts
	r.set("gen.late_ms.p99", quantile(append(plain.late, traced.late...), 0.99), "ms")
	r.set("false_recoveries", float64(plain.false_+traced.false_), "count")
	if plain.keepalives > 0 {
		r.set("ka_cpu_ns", float64(plain.kaCPU.Nanoseconds())/float64(plain.keepalives), "ns")
	}
	r.set("cpu_ms_per_op", median(plain.clusterCPU), "ms")
	plainP50, tracedP50 := median(plain.latencies), median(traced.latencies)
	r.set("obs.trace_overhead_ratio", tracedP50/plainP50, "ratio")
	r.note("untraced recovery p50 %.3f ms (n=%d), traced %.3f ms (n=%d), %d traced recoveries attributed",
		plainP50, len(plain.latencies), tracedP50, len(traced.latencies), len(traced.phases))
	if sh.link {
		single, err := runLive(sh, 0, seed, budget-2*stretch, false)
		if err != nil {
			return nil, err
		}
		r.attempted += single.attempted
		r.failed += single.failed
		r.checks = append(r.checks, single.checks...)
		halts += single.halts
		sp50 := median(single.latencies)
		r.set("ctlplane.replication_cost_ms", plainP50-sp50, "ms")
		r.note("single-node storm p50 %.3f ms (n=%d) vs 3-replica %.3f ms", sp50, len(single.latencies), plainP50)
	} else {
		probe := sh
		probe.miss = probeMiss
		spinners := runtime.GOMAXPROCS(0)
		n, alive, err := misfireProbe(probe, budget-2*stretch, spinners)
		if err != nil {
			return nil, err
		}
		r.set("ctlnet.misfires_per_s", float64(n)/alive.Seconds(), "1/s")
		r.note("misfire probe: %d live switches declared dead over %.2fs of fault-free clusters at MissThreshold %d, %d spinning goroutines",
			n, alive.Seconds(), probeMiss, spinners)
	}
	r.set("controller.halts", float64(halts), "count")
	r.set("failed_ratio", float64(r.failed)/float64(r.attempted), "ratio")
	return r, nil
}

func pprofStop(ls *layerSample) { _, _ = ls.prof.stop() }

// liveEndToEnd fills the end-to-end metrics of an untraced live pass.
func liveEndToEnd(r *report, res *liveResult) {
	r.attempted, r.failed, r.checks = res.attempted, res.failed, res.checks
	r.set("setup_s", median(res.setup), "s")
	r.set("op_ms.p50", median(res.clusterP50), "ms")
	r.set("op_ms.p90", median(res.clusterP90), "ms")
	r.set("maxrss_mb", maxRSSMB(), "MB")
	r.note("recovery_ms.p50 %.3f ms, recovery_ms.p90 %.3f ms over n=%d recoveries (%d clusters); pooled p50 %.3f ms, p90 %.3f ms",
		median(res.clusterP50), median(res.clusterP90), len(res.latencies), res.clusters,
		quantile(res.latencies, 0.5), quantile(res.latencies, 0.9))
	r.note("cpu_ms_per_op %.4f ms (median over clusters; pooled %.4f ms)",
		median(res.clusterCPU), ms(res.cpu)/float64(len(res.latencies)))
	r.note("failed_ratio %.4f (%d of %d faults; %d link reports refused, %d controller halts), false_recoveries %d, gen.late_ms.p99 %.3f ms",
		float64(res.failed)/float64(res.attempted), res.failed, res.attempted, res.refused, res.halts, res.false_, quantile(res.late, 0.99))
	if res.keepalives > 0 {
		r.note("ka_cpu_ns %.0f ns whole-process CPU (agents, replicas, circuit switch) per leader-counted keep-alive (%d)",
			float64(res.kaCPU.Nanoseconds())/float64(res.keepalives), res.keepalives)
	}
}

// setupRepeats is how many times a simulator run sets up.
const setupRepeats = 9

// simWorkload warms up (set-up), then times calls over the seed's
// instance sequence for the budget. Every output is checked against the
// reference fingerprints and against earlier calls on the same instance.
func simWorkload(name string, sh simShape, seed int64, budget time.Duration, trace bool) (*report, error) {
	r := &report{}
	refs, err := loadFingerprints(sh.refKey(name))
	if err != nil {
		return nil, err
	}
	var insts []simInstance
	instance := func(j int) (simInstance, error) {
		j %= sh.instances
		for len(insts) <= j {
			in, err := sh.newInstance(seed, len(insts))
			if err != nil {
				return in, err
			}
			insts = append(insts, in)
		}
		return insts[j], nil
	}
	seen := map[string]string{}
	known := 0
	// call runs one instance and checks its output.
	call := func(in simInstance) error {
		fp, err := in.run()
		if err != nil {
			return err
		}
		r.attempted++
		want, ref := refs[in.id]
		prev, again := seen[in.id]
		switch {
		case ref && want != fp:
			r.failed++
			r.checks = append(r.checks, fmt.Sprintf("%s instance %s: fingerprint %s, reference %s", name, in.id, fp, want))
		case again && prev != fp:
			r.failed++
			r.checks = append(r.checks, fmt.Sprintf("%s instance %s: fingerprint %s, earlier call %s", name, in.id, fp, prev))
		}
		if ref && !again {
			known++
		}
		seen[in.id] = fp
		return nil
	}

	// Set-up generates a warm-up input and calls it once, setupRepeats
	// times over; setup_s is the median. The warm-up input is the same for
	// every seed (seed 0's first), so setup_s measures the program, not the
	// seed's draw. The repeats also check that a call's output does not
	// vary.
	var setups []float64
	for i := 0; i < setupRepeats; i++ {
		s0 := time.Now()
		in, err := sh.newInstance(0, 0)
		if err != nil {
			return nil, err
		}
		if err := call(in); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(s0).Seconds())
	}

	next := 0
	calls := func(budget time.Duration) ([]simCall, error) {
		var out []simCall
		t0 := time.Now()
		for len(out) == 0 || time.Since(t0) < budget {
			in, err := instance(next)
			if err != nil {
				return nil, err
			}
			next++
			c0, w0 := cpuTime(), time.Now()
			if err := call(in); err != nil {
				return nil, err
			}
			out = append(out, simCall{wall: time.Since(w0), cpu: cpuTime() - c0})
		}
		return out, nil
	}
	walls := func(cs []simCall) (w, c []float64) {
		for _, x := range cs {
			w = append(w, ms(x.wall))
			c = append(c, ms(x.cpu))
		}
		return w, c
	}
	summary := func() {
		r.note("%d instances run, %d checked against reference fingerprints, the rest for repeat determinism (the warm-up input runs %d times)", len(seen), known, setupRepeats)
	}

	if !trace {
		cs, err := calls(budget)
		if err != nil {
			return nil, err
		}
		w, c := walls(cs)
		r.set("setup_s", median(setups), "s")
		r.set("op_ms.p50", quantile(w, 0.5), "ms")
		r.set("op_ms.p90", quantile(w, 0.9), "ms")
		r.set("maxrss_mb", maxRSSMB(), "MB")
		r.note("cpu_ms_per_op %.4f ms median process CPU per call", median(c))
		if sh.trials > 0 {
			r.note("trials_per_s %.1f (%d rates x %d trials / median call %.3f s, n=%d calls, %d flows)",
				fig1aRates*float64(sh.trials)/(median(w)/1e3), fig1aRates, sh.trials, median(w)/1e3, len(w), sh.flows)
		} else {
			r.note("study_s %.3f s median Fig1c call (n=%d calls, %d flows per study window)", median(w)/1e3, len(w), sh.flows)
		}
		summary()
		return r, nil
	}

	zeroPerLayer(r)
	plain, err := calls(budget / 2)
	if err != nil {
		return nil, err
	}
	pw, pc := walls(plain)
	r.set("cpu_ms_per_op", median(pc), "ms")
	cpuSum, wallSum := 0.0, 0.0
	for i := range pw {
		cpuSum += pc[i]
		wallSum += pw[i]
	}
	reg := obs.NewRegistry()
	fluid.SetDefaultTelemetry(fluid.NewTelemetry(reg))
	ls, err := startLayers()
	if err != nil {
		return nil, err
	}
	traced, err := calls(budget / 2)
	fluid.SetDefaultTelemetry(nil)
	if err != nil {
		pprofStop(ls)
		return nil, err
	}
	if err := ls.finish(r, len(traced), sh.workers); err != nil {
		return nil, err
	}
	// Utilisation of the sweep's workers, from the untraced calls.
	r.set("sweep.cpu_util", cpuSum/(wallSum*float64(sh.workers)), "ratio")
	n := float64(len(traced))
	r.set("fluid.rate_recompute_work", float64(reg.Counter("fluid.rate_recompute_work").Value())/n, "count")
	r.set("fluid.rate_recomputes", float64(reg.Counter("fluid.rate_recomputes").Value())/n, "count")
	r.set("fluid.flows_completed", float64(reg.Counter("fluid.flows_completed").Value())/n, "count")
	tw, _ := walls(traced)
	r.set("obs.trace_overhead_ratio", median(tw)/median(pw), "ratio")
	r.set("failed_ratio", float64(r.failed)/float64(r.attempted), "ratio")
	r.note("untraced call p50 %.3f s (n=%d), traced %.3f s (n=%d)", median(pw)/1e3, len(pw), median(tw)/1e3, len(tw))
	summary()
	return r, nil
}

//go:embed fingerprints.json
var fingerprintsJSON []byte

// loadFingerprints returns the reference fingerprints of one workload
// shape (simShape.refKey), keyed "seed/instance".
func loadFingerprints(key string) (map[string]string, error) {
	all := map[string]map[string]string{}
	if err := json.Unmarshal(fingerprintsJSON, &all); err != nil {
		return nil, fmt.Errorf("fingerprints.json: %w", err)
	}
	return all[key], nil
}

// recordedSeeds is how many seeds, from 0, fingerprints.json covers.
const recordedSeeds = 12

// recordFingerprints computes the reference fingerprints of every
// simulator instance of the recorded seeds and writes them as JSON.
func recordFingerprints(path string) error {
	all := map[string]map[string]string{}
	for name, sh := range map[string]simShape{"sim-fig1c": fig1cShape, "sim-fig1a": fig1aShape} {
		refs := map[string]string{}
		all[sh.refKey(name)] = refs
		for s := 0; s < recordedSeeds; s++ {
			for j := 0; j < sh.instances; j++ {
				in, err := sh.newInstance(int64(s), j)
				if err != nil {
					return err
				}
				fp, err := in.run()
				if err != nil {
					return fmt.Errorf("%s %s: %w", name, in.id, err)
				}
				refs[in.id] = fp
			}
		}
	}
	out, err := json.MarshalIndent(all, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(out, '\n'), 0o644)
}
