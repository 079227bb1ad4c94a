package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"sharebackup/internal/ctlnet"
	"sharebackup/internal/obs"
	"sharebackup/internal/sbnet"
	"sharebackup/internal/topo"
)

// liveShape sizes one live workload's cluster and fault schedule.
type liveShape struct {
	k, n     int
	agents   int
	interval time.Duration
	miss     int
	// link selects the link-storm workload (FailLink bursts) instead of
	// node failover (StopHeartbeats on a fixed schedule).
	link bool
	// lead is the gap between a cluster becoming ready and its first fault;
	// spacing separates node faults; burst is the link reports per cluster.
	lead    time.Duration
	spacing time.Duration
	burst   int
	// faultsPerCluster caps node faults per cluster (its backups).
	faultsPerCluster int
	// noticeTimeout is how long after its scheduled time a fault may go
	// without a notification before it counts as failed.
	noticeTimeout time.Duration
}

// workloadMiss is the MissThreshold of both live workloads: 20 missed 5 ms
// keep-alives (100 ms). On a shared 2-core host the whole process is
// sometimes descheduled for 15-25 ms, and the detector cannot tell that
// stall from agent silence (ROADMAP item 1): at MissThreshold 3 it declared
// live agents dead in bursts, which made the failure counts of two sets of
// runs disagree. probeMiss keeps the 3-interval setting for the misfire
// probe of the traced pass, which shows that defect on its own.
const (
	workloadMiss = 20
	probeMiss    = 3
)

var (
	nodeFailoverShape = liveShape{
		k: 8, n: 4, agents: 32, interval: 5 * time.Millisecond, miss: workloadMiss,
		lead: 50 * time.Millisecond, spacing: 50 * time.Millisecond,
		faultsPerCluster: 32, noticeTimeout: 2 * time.Second,
	}
	linkStormShape = liveShape{
		k: 8, n: 2, agents: 32, interval: 5 * time.Millisecond, miss: workloadMiss, link: true,
		lead: 50 * time.Millisecond, burst: 16, noticeTimeout: 2 * time.Second,
	}
)

// linkGrace is how long the collector waits for notifications after every
// link report of a burst was acknowledged.
const linkGrace = 250 * time.Millisecond

// liveCluster is one freshly built control plane under test: the replicated
// ClusterEmulation, or (replicas == 0) the single-node Emulation used as
// the consensus-free baseline.
type liveCluster struct {
	agents   []*ctlnet.Agent
	failLink func(i int) error
	server   *ctlnet.Server // the leader's (or the single node's) server
	mon      *ctlnet.Monitor
	nets     []*sbnet.Network // every replica's network model, leader first
	servers  []*ctlnet.Server // every replica's server, in nets' order
	leader   *ctlnet.Replica  // nil for the single-node baseline
	ctlBus   *obs.Bus         // the leader's controller bus
	buses    []*obs.Bus       // every bus the traced pass listens on
	close    func()
}

func buildCluster(sh liveShape, replicas int, clusterSeed uint64) (*liveCluster, error) {
	base := ctlnet.EmulationConfig{
		K: sh.k, N: sh.n, NumAgents: sh.agents, NumCS: 1,
		Interval: sh.interval, MissThreshold: sh.miss,
	}
	lc := &liveCluster{}
	if replicas == 0 {
		e, err := ctlnet.NewEmulation(base)
		if err != nil {
			return nil, err
		}
		lc.agents, lc.server, lc.ctlBus = e.Agents, e.Server, e.ServerBus
		lc.failLink = func(i int) error { return e.FailLink(i, 0) }
		lc.nets, lc.servers = []*sbnet.Network{e.Net}, []*ctlnet.Server{e.Server}
		lc.buses = append(append([]*obs.Bus{e.ServerBus}, e.CSBus...), e.AgentBus...)
		lc.close = func() { e.Close() }
	} else {
		e, err := ctlnet.NewClusterEmulation(ctlnet.ClusterConfig{
			EmulationConfig: base, Replicas: replicas, Seed: clusterSeed,
		})
		if err != nil {
			return nil, err
		}
		ld, err := e.Leader(10 * time.Second)
		if err != nil {
			e.Close()
			return nil, err
		}
		lc.leader, lc.agents, lc.server, lc.ctlBus = ld, e.Agents, ld.Server, ld.Bus
		lc.failLink = func(i int) error { return e.FailLink(i, 0) }
		lc.nets, lc.servers = []*sbnet.Network{ld.Net}, []*ctlnet.Server{ld.Server}
		for _, r := range e.Replicas {
			if r != ld {
				lc.nets = append(lc.nets, r.Net)
				lc.servers = append(lc.servers, r.Server)
			}
		}
		lc.buses = append(append([]*obs.Bus{ld.Bus}, e.CSBus...), e.AgentBus...)
		lc.close = func() { e.Close() }
	}
	mon, err := ctlnet.Subscribe(lc.server.Addr())
	if err != nil {
		lc.close()
		return nil, err
	}
	lc.mon = mon
	return lc, nil
}

func (lc *liveCluster) shutdown() {
	lc.mon.Close()
	for range lc.mon.Events {
	}
	lc.close()
}

// varz reads the integer counters of the serving replica's /varz dump.
func (lc *liveCluster) varz() map[string]int64 {
	out := map[string]int64{}
	for _, line := range strings.Split(lc.server.Varz(), "\n") {
		f := strings.Fields(line)
		if len(f) != 2 {
			continue
		}
		if v, err := strconv.ParseInt(f[1], 10, 64); err == nil {
			out[f[0]] = v
		}
	}
	return out
}

// fault is one injected failure: a silenced agent or a link report, named
// by the switch whose notification closes it.
type fault struct {
	sw    sbnet.SwitchID
	agent int
	due   time.Time
	fired atomic.Int64 // UnixNano the injector fired it; read by the collector
	err   error        // link report refused or failed
	seen  time.Time
}

// runCluster drives one cluster and adds its outcome to res: one injector
// goroutine fires the faults on their schedule without waiting for
// outcomes; this goroutine timestamps every monitor notification.
func runCluster(lc *liveCluster, sh liveShape, rng *rand.Rand, traced bool, res *liveResult) error {
	var ring *stampRing
	if traced {
		ring = newStampRing(1 << 16)
		for _, b := range lc.buses {
			b.Attach(ring)
		}
		defer func() {
			for _, b := range lc.buses {
				b.Detach(ring)
			}
		}()
	}
	var leaderEpoch time.Time
	if traced {
		leaderEpoch = time.Now().Add(-lc.server.Now())
	}
	varz0 := lc.varz()
	cpu0 := cpuTime()
	// cpuFired is the process CPU when the first fault fired; the collector
	// reads it at the last notification.
	var cpuFired atomic.Int64

	start := time.Now().Add(sh.lead)
	var faults []*fault
	bySwitch := map[sbnet.SwitchID]*fault{}
	// Switches a correct recovery may name besides the faulted ones: a link
	// report also replaces its aggregation-side peer.
	peers := map[sbnet.SwitchID]bool{}
	if sh.link {
		// The seed picks which agents of each pod report; the burst takes
		// the same number from every pod.
		byPod := map[int][]int{}
		for i, a := range lc.agents {
			pod := lc.nets[0].Group(lc.nets[0].Switch(a.ID).Group).Pod
			byPod[pod] = append(byPod[pod], i)
		}
		perPod := sh.burst / len(byPod)
		for pod := 0; pod < sh.k; pod++ {
			idx := byPod[pod]
			rng.Shuffle(len(idx), func(a, b int) { idx[a], idx[b] = idx[b], idx[a] })
			for _, i := range idx[:perPod] {
				f := &fault{sw: lc.agents[i].ID, agent: i, due: start}
				faults = append(faults, f)
				bySwitch[f.sw] = f
			}
			for _, g := range lc.nets[0].Groups() {
				if g.Pod == pod && g.Kind == topo.KindAgg {
					for _, m := range g.Members {
						peers[m] = true
					}
				}
			}
		}
	} else {
		order := rng.Perm(len(lc.agents))
		if len(order) > sh.faultsPerCluster {
			order = order[:sh.faultsPerCluster]
		}
		for j, i := range order {
			f := &fault{sw: lc.agents[i].ID, agent: i, due: start.Add(time.Duration(j) * sh.spacing)}
			faults = append(faults, f)
			bySwitch[f.sw] = f
		}
	}
	res.attempted += len(faults)

	injDone := make(chan struct{})
	if sh.link {
		// Each reporting switch runs on its own goroutine, gated on the
		// burst; the injector only opens the gate.
		gate := make(chan struct{})
		reported := make(chan struct{}, len(faults)) // one send per reporter
		for _, f := range faults {
			f := f
			go func() {
				<-gate
				f.err = lc.failLink(f.agent)
				reported <- struct{}{}
			}()
		}
		go func() {
			sleepUntil(start)
			cpuFired.Store(int64(cpuTime()))
			now := time.Now().UnixNano()
			for _, f := range faults {
				f.fired.Store(now)
			}
			close(gate)
			for range faults {
				<-reported
			}
			close(injDone)
		}()
	} else {
		go func() {
			for j, f := range faults {
				sleepUntil(f.due)
				if j == 0 {
					cpuFired.Store(int64(cpuTime()))
				}
				f.fired.Store(time.Now().UnixNano())
				lc.agents[f.agent].StopHeartbeats()
			}
			close(injDone)
		}()
	}

	type pair struct{ failed, backup sbnet.SwitchID }
	var pairs []pair
	var cpuLast time.Duration // process CPU at the last matched notification
	pending := len(faults)
	deadline := time.NewTimer(time.Until(faults[len(faults)-1].due.Add(sh.noticeTimeout)))
	defer deadline.Stop()
	// A link report is acknowledged only after the leader applied and
	// published its recovery, so once every report returned, a missing
	// notification is final after a short grace for loopback delivery.
	var acked <-chan struct{}
	var grace <-chan time.Time
	if sh.link {
		acked = injDone
	}
collect:
	for pending > 0 {
		select {
		case <-acked:
			acked = nil
			grace = time.After(linkGrace)
		case <-grace:
			break collect
		case ev, ok := <-lc.mon.Events:
			if !ok {
				return fmt.Errorf("monitor closed: %v", lc.mon.Err())
			}
			at := time.Now()
			res.recoveries++
			for i, sw := range ev.Failed {
				if i < len(ev.Backup) {
					pairs = append(pairs, pair{sw, ev.Backup[i]})
				}
				f := bySwitch[sw]
				wantKind := "node"
				if sh.link {
					wantKind = "link"
				}
				switch {
				// A notification before the fault fired names a live switch:
				// the detector misfired, and the fault, when it fires, finds
				// the switch already replaced.
				case f != nil && ev.Kind == wantKind && f.fired.Load() != 0:
					if f.seen.IsZero() {
						f.seen = at
						cpuLast = cpuTime()
						pending--
					}
				case sh.link && ev.Kind == "link" && peers[sw]:
				default:
					res.false_++
				}
			}
		case <-deadline.C:
			break collect
		}
	}
	<-injDone

	var lat []float64 // this cluster's recovery latencies
	for _, f := range faults {
		res.late = append(res.late, ms(time.Unix(0, f.fired.Load()).Sub(f.due)))
		switch {
		case f.err != nil:
			res.failed++
			res.refused++
		case f.seen.IsZero() || f.seen.Sub(f.due) > sh.noticeTimeout:
			res.failed++
		default:
			lat = append(lat, ms(f.seen.Sub(f.due)))
		}
	}
	res.latencies = append(res.latencies, lat...)
	if len(lat) > 0 {
		res.clusterP50 = append(res.clusterP50, quantile(lat, 0.5))
		res.clusterP90 = append(res.clusterP90, quantile(lat, 0.9))
	}
	// Every notified backup must come from the failed switch's own failure
	// group: ShareBackup never borrows across groups.
	for _, p := range pairs {
		if lc.nets[0].Switch(p.failed).Group != lc.nets[0].Switch(p.backup).Group {
			res.checks = append(res.checks, fmt.Sprintf("backup %d is not in failed switch %d's failure group", p.backup, p.failed))
		}
	}
	if err := replicasAgree(lc.servers, lc.nets); err != nil {
		res.checks = append(res.checks, err.Error())
	}
	// Recovery CPU spans the first fault's firing to the last matched
	// notification, so a failed fault's wait for its deadline (and a refused
	// reporter's retries) does not count; keep-alive CPU spans the same
	// stretch as the keep-alive counter.
	if cpuLast > 0 {
		cpu := cpuLast - time.Duration(cpuFired.Load())
		res.cpu += cpu
		res.clusterCPU = append(res.clusterCPU, ms(cpu)/float64(len(lat)))
	}
	res.kaCPU += cpuTime() - cpu0
	varz := lc.varz()
	res.keepalives += varz["ctlnet.keepalives"] - varz0["ctlnet.keepalives"]
	res.probeMisses += varz["ctlnet.probe_misses"] - varz0["ctlnet.probe_misses"]
	res.wireErrors += varz["ctlnet.wire_errors"] - varz0["ctlnet.wire_errors"]
	// A halted controller (the §5.1 circuit-switch report threshold
	// tripped) refuses every later recovery of its cluster.
	res.halts += varz["controller.halts"] - varz0["controller.halts"]
	if traced {
		if lc.leader != nil {
			if snap, err := lc.leader.Node.TakeSnapshot(5 * time.Second); err == nil {
				res.logEntries += snap.LastIndex
			}
		}
		res.phases = append(res.phases, attribute(ring.snapshot(), lc.ctlBus.Proc(), leaderEpoch, faults)...)
	}
	return nil
}

// replicasAgree checks, after the run drains, that every replica applied
// the same command history and that every replica's network model puts the
// same switch in every failure-group slot. Followers apply the last commit
// a moment after the leader, so it polls until the histories match.
// SnapshotState takes the server lock every apply holds, so the applies it
// reports happened before the network models are read.
func replicasAgree(servers []*ctlnet.Server, nets []*sbnet.Network) error {
	for try := 0; ; try++ {
		want, same := servers[0].SnapshotState(), true
		for _, s := range servers[1:] {
			same = same && bytes.Equal(s.SnapshotState(), want)
		}
		if same {
			break
		}
		if try == 100 {
			return fmt.Errorf("replicas disagree: applied command histories still differ after %d polls", try)
		}
		time.Sleep(10 * time.Millisecond)
	}
	for g := 0; g < nets[0].NumGroups(); g++ {
		want := nets[0].Group(sbnet.GroupID(g)).Slots()
		for r, nw := range nets[1:] {
			if got := nw.Group(sbnet.GroupID(g)).Slots(); fmt.Sprint(got) != fmt.Sprint(want) {
				return fmt.Errorf("replicas disagree: replica %d group %d slots %v, leader %v", r+1, g, got, want)
			}
		}
	}
	return nil
}

func sleepUntil(t time.Time) {
	if d := time.Until(t); d > 0 {
		time.Sleep(d)
	}
}

// liveResult aggregates every cluster of one pass.
type liveResult struct {
	setup     []float64 // s per cluster bring-up
	latencies []float64 // ms, scheduled fault -> monitor notification
	// Per cluster: the p50 and p90 of its latencies (ms) and its recovery
	// CPU per notified recovery (ms). A stretch of host contention spoils
	// whole clusters, so the medians of these move less than the pooled
	// quantiles do.
	clusterP50, clusterP90, clusterCPU  []float64
	late                                []float64 // ms the injector fired behind schedule
	attempted                           int
	failed                              int
	refused                             int // link reports refused by the controller (also in failed)
	false_                              int
	checks                              []string
	cpu                                 time.Duration // process CPU from the first fault fired to the last notification
	kaCPU                               time.Duration // process CPU from ready to the end of the cluster's run
	keepalives, probeMisses, wireErrors int64
	halts                               int64
	logEntries                          uint64
	recoveries                          int
	phases                              []phaseSample
	clusters                            int
}

// runLive builds clusters back to back until the pass has run for budget,
// each cluster taking the next stretch of the seed's fault order.
func runLive(sh liveShape, replicas int, seed int64, budget time.Duration, traced bool) (*liveResult, error) {
	rng := rand.New(rand.NewSource(seed))
	res := &liveResult{}
	t0 := time.Now()
	for i := 0; i == 0 || time.Since(t0) < budget; i++ {
		s0 := time.Now()
		// The election seed depends only on the cluster's position in the
		// pass, so bring-up time does not vary with the workload seed.
		lc, err := buildCluster(sh, replicas, uint64(i+1))
		if err != nil {
			return nil, fmt.Errorf("cluster %d: %w", i, err)
		}
		res.setup = append(res.setup, time.Since(s0).Seconds())
		err = runCluster(lc, sh, rng, traced, res)
		lc.shutdown()
		if err != nil {
			return nil, fmt.Errorf("cluster %d: %w", i, err)
		}
		res.clusters++
	}
	sort.Strings(res.checks)
	return res, nil
}

// misfireProbe runs fault-free clusters of shape sh back to back for
// budget, each for as long as a workload cluster lives, and counts every
// switch a notification names: with no fault injected, each one is a live
// switch the detector declared dead. While a cluster is watched, spinners
// goroutines keep the process' Ps busy.
func misfireProbe(sh liveShape, budget time.Duration, spinners int) (misfires int, watched time.Duration, err error) {
	life := sh.lead + time.Duration(sh.faultsPerCluster)*sh.spacing
	t0 := time.Now()
	for i := 0; i == 0 || time.Since(t0) < budget; i++ {
		lc, err := buildCluster(sh, 3, uint64(i+1))
		if err != nil {
			return 0, 0, fmt.Errorf("probe cluster %d: %w", i, err)
		}
		n, err := watchLoaded(lc, life, spinners)
		lc.shutdown()
		if err != nil {
			return 0, 0, fmt.Errorf("probe cluster %d: %w", i, err)
		}
		misfires += n
		watched += life
	}
	return misfires, watched, nil
}

// watchLoaded counts the switches lc's monitor names during life while
// spinners goroutines spin, and stops them before it returns.
func watchLoaded(lc *liveCluster, life time.Duration, spinners int) (int, error) {
	var stop atomic.Bool
	done := make(chan struct{}, spinners)
	for i := 0; i < spinners; i++ {
		go func() {
			x := uint64(1)
			for !stop.Load() {
				for j := 0; j < 1<<16; j++ {
					x = x*6364136223846793005 + 1442695040888963407
				}
			}
			loadSink.Store(x)
			done <- struct{}{}
		}()
	}
	defer func() {
		stop.Store(true)
		for i := 0; i < spinners; i++ {
			<-done
		}
	}()
	n := 0
	end := time.After(life)
	for {
		select {
		case ev, ok := <-lc.mon.Events:
			if !ok {
				return 0, fmt.Errorf("monitor closed: %v", lc.mon.Err())
			}
			n += len(ev.Failed)
		case <-end:
			return n, nil
		}
	}
}

var loadSink atomic.Uint64
