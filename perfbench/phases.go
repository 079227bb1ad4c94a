package main

import (
	"strings"
	"sync"
	"time"

	"sharebackup/internal/obs"
	"sharebackup/internal/sbnet"
)

// stamped is one bus event with the wall time it reached the sink. Every
// emulated process lives in this process, so one clock orders them all.
type stamped struct {
	ev obs.Event
	at time.Time
}

// stampRing is a bounded in-memory sink shared by every bus of a traced
// cluster. Emit delivers synchronously, so the arrival stamp is the emit
// time. Events past capacity are counted and dropped.
type stampRing struct {
	mu      sync.Mutex
	buf     []stamped
	dropped int
}

func newStampRing(capacity int) *stampRing {
	return &stampRing{buf: make([]stamped, 0, capacity)}
}

func (r *stampRing) Event(ev obs.Event) {
	at := time.Now()
	r.mu.Lock()
	if len(r.buf) < cap(r.buf) {
		r.buf = append(r.buf, stamped{ev, at})
	} else {
		r.dropped++
	}
	r.mu.Unlock()
}

func (r *stampRing) snapshot() []stamped {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]stamped(nil), r.buf...)
}

// phaseSample splits one recovery, from its scheduled fault time to the
// monitor's notification, into hops bounded by bus events:
//
//	detect   fault due -> the leader's failure-declared time (node only)
//	commit   failure declared -> backup assigned (propose queue, Raft
//	         round, apply up to the replacement)
//	reconfig backup assigned -> circuit switch reconfigured (rest of the
//	         apply, the circuit-switch RPC)
//	notify   circuit switch reconfigured -> monitor received the event
//
// The server emits recovery-complete before it mirrors the recovery to the
// circuit switch, so notify is timed from the later, circuit-switch event.
// Residual is total minus the sum; on link storms it is the report hop
// (injector -> reporting agent -> leader), which no event bounds.
type phaseSample struct {
	node                                    bool
	detect, commit, reconfig, notify, total time.Duration
	residual                                time.Duration
	apply                                   time.Duration // server-measured apply (recovery-complete Report)
}

// attribute joins the traced events into per-recovery phase samples.
// obs.Stitch links each recovery's controller span to its circuit-switch
// child span by trace ID; timestamps are the sink's arrival stamps, so the
// stitcher's clock offsets are all zero. The leader's failure-declared
// event carries the detection instant in the server's epoch (T), which
// leaderEpoch maps onto the wall clock.
func attribute(evs []stamped, leaderProc string, leaderEpoch time.Time, faults []*fault) []phaseSample {
	if len(evs) == 0 {
		return nil
	}
	origin := evs[0].at
	type key struct {
		proc string
		seq  uint64
	}
	arrival := make(map[key]stamped, len(evs))
	byProc := map[string][]obs.Event{}
	for _, s := range evs {
		arrival[key{s.ev.Proc, s.ev.Seq}] = s
		ev := s.ev
		ev.T = s.at.Sub(origin)
		byProc[ev.Proc] = append(byProc[ev.Proc], ev)
	}
	var procs []obs.ProcTrace
	for name, list := range byProc {
		procs = append(procs, obs.ProcTrace{Name: name, Events: list})
	}
	res, err := obs.Stitch(procs)
	if err != nil {
		return nil
	}
	due := map[sbnet.SwitchID]*fault{}
	for _, f := range faults {
		due[f.sw] = f
	}
	var out []phaseSample
	for _, tr := range res.Traces {
		var (
			declared, assigned, cs, complete *obs.Event
		)
		for _, ss := range tr.Spans {
			for i := range ss.Span.Events {
				ev := &ss.Span.Events[i]
				switch {
				case ss.Proc == leaderProc && ev.Kind == obs.KindFailureDeclared:
					declared = ev
				case ss.Proc == leaderProc && ev.Kind == obs.KindRecoveryComplete && ev.Wall:
					complete = ev
				case strings.HasPrefix(ss.Proc, "cs-") && ev.Kind == obs.KindCircuitReconfigured:
					if cs == nil || ev.T > cs.T {
						cs = ev
					}
				}
			}
		}
		if declared == nil || complete == nil || cs == nil {
			continue
		}
		f := due[sbnet.SwitchID(declared.Switch)]
		if f == nil || f.seen.IsZero() {
			continue
		}
		for _, ss := range tr.Spans {
			for i := range ss.Span.Events {
				ev := &ss.Span.Events[i]
				if ss.Proc == leaderProc && ev.Kind == obs.KindBackupAssigned && ev.Switch == declared.Switch {
					assigned = ev
				}
			}
		}
		if assigned == nil {
			continue
		}
		at := func(ev *obs.Event) time.Time { return arrival[key{ev.Proc, ev.Seq}].at }
		declaredAt := leaderEpoch.Add(arrival[key{declared.Proc, declared.Seq}].ev.T)
		p := phaseSample{
			node:     declared.Detail == "node",
			commit:   at(assigned).Sub(declaredAt),
			reconfig: at(cs).Sub(at(assigned)),
			notify:   f.seen.Sub(at(cs)),
			total:    f.seen.Sub(f.due),
			apply:    complete.Report,
		}
		if p.node {
			p.detect = declaredAt.Sub(f.due)
		}
		p.residual = p.total - (p.detect + p.commit + p.reconfig + p.notify)
		out = append(out, p)
	}
	return out
}
