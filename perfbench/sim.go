package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"sort"
	"time"

	"sharebackup"
	"sharebackup/internal/coflow"
)

// A simulator workload's calls run a sequence of distinct instances
// generated from the seed. Each instance is sized to a fixed number of
// flows: the study's cost grows with the flow count (roughly its square for
// Fig1c), and the generator's heavy-tailed coflow widths would otherwise
// make one seed's study take ten times another's. Even at a fixed flow
// count one Fig1c instance can cost twice another, so a run times many
// small instances rather than a few large ones.
type simShape struct {
	// instances caps the sequence; a run that gets further wraps around.
	instances int
	// fig1c: flows in the study window (±flowSlack); fig1a: exact flows.
	flows     int
	flowSlack float64
	k         int
	trials    int // fig1a trials per rate
	workers   int
}

var (
	fig1cShape = simShape{instances: 360, flows: 150, flowSlack: 0.02, k: 8, workers: 2}
	fig1aShape = simShape{instances: 128, flows: 2000, k: 16, trials: 256, workers: 2}
)

// refKey names a shape's reference fingerprints: instances of another size
// have other outputs.
func (sh simShape) refKey(workload string) string {
	return fmt.Sprintf("%s k=%d flows=%d trials=%d", workload, sh.k, sh.flows, sh.trials)
}

// fig1cWindow mirrors the default 300 s trace window Fig1c generates.
const (
	fig1cWindow     = 300
	fig1cMaxCoflows = 80 // most coflows one study window may hold
)

// deriveSeed gives instance j of a workload seed its own generator seed;
// attempt advances it when an instance's size falls outside its window.
func deriveSeed(seed int64, j, attempt int) int64 {
	x := uint64(seed)*0x9E3779B97F4A7C15 + uint64(j)*0xBF58476D1CE4E5B9 + uint64(attempt)*0x94D049BB133111EB
	x ^= x >> 31
	x *= 0xD6E8FEEBDA88A95B
	x ^= x >> 29
	return int64(x >> 1)
}

// fig1cInput is one Fig1c study input: its generator seed and the coflow
// count that puts sh.flows (±slack) flows in the window.
type fig1cInput struct {
	seed    int64
	coflows int
	flows   int
}

func makeFig1cInput(sh simShape, seed int64, j int) (fig1cInput, error) {
	racks := sh.k * sh.k / 2 // edge switches of a k-ary fat tree, one rack each
	lo := int(math.Floor(float64(sh.flows) * (1 - sh.flowSlack)))
	hi := int(math.Ceil(float64(sh.flows) * (1 + sh.flowSlack)))
	for attempt := 0; attempt < 1000; attempt++ {
		s := deriveSeed(seed, j, attempt)
		// Generation is sequential in one RNG, so the first n coflows of a
		// longer trace are exactly the trace Fig1c builds with Coflows: n.
		tr, err := coflow.Generate(coflow.GenConfig{Racks: racks, NumCoflows: fig1cMaxCoflows, Duration: fig1cWindow, Seed: s})
		if err != nil {
			return fig1cInput{}, err
		}
		width := make([]int, fig1cMaxCoflows)
		for _, c := range tr.Coflows {
			width[c.ID] = len(c.Flows)
		}
		total := 0
		for n := 1; n <= fig1cMaxCoflows; n++ {
			total += width[n-1]
			if total >= lo && total <= hi && n >= 5 {
				return fig1cInput{seed: s, coflows: n, flows: total}, nil
			}
			if total > hi {
				break
			}
		}
	}
	return fig1cInput{}, fmt.Errorf("fig1c: no input of %d flows for seed %d instance %d", sh.flows, seed, j)
}

// makeFig1aTrace generates a Facebook-like trace over the K-ary fat tree's
// racks and keeps exactly sh.flows of its flows (whole coflows in
// generation order, the last one cut short).
func makeFig1aTrace(sh simShape, seed int64, j int) (*coflow.Trace, int64, error) {
	racks := sh.k * sh.k / 2
	s := deriveSeed(seed, j, 0)
	full, err := coflow.Generate(coflow.GenConfig{Racks: racks, NumCoflows: 2 * 526, Seed: s})
	if err != nil {
		return nil, 0, err
	}
	sort.SliceStable(full.Coflows, func(a, b int) bool { return full.Coflows[a].ID < full.Coflows[b].ID })
	tr := &coflow.Trace{NumRacks: racks}
	left := sh.flows
	for _, c := range full.Coflows {
		if left == 0 {
			break
		}
		if len(c.Flows) > left {
			c.Flows = c.Flows[:left]
		}
		left -= len(c.Flows)
		tr.Coflows = append(tr.Coflows, c)
	}
	if left > 0 {
		return nil, 0, fmt.Errorf("fig1a: trace for seed %d instance %d has fewer than %d flows", seed, j, sh.flows)
	}
	return tr, s, nil
}

// simInstance is one prepared study call and its output fingerprint.
type simInstance struct {
	id  string
	run func() (string, error)
}

// newInstance prepares instance j of the seed's input sequence.
func (sh simShape) newInstance(seed int64, j int) (simInstance, error) {
	in := simInstance{id: fmt.Sprintf("%d/%d", seed, j)}
	if sh.trials > 0 {
		tr, s, err := makeFig1aTrace(sh, seed, j)
		if err != nil {
			return in, err
		}
		in.run = func() (string, error) {
			res, err := sharebackup.Fig1a(sharebackup.Fig1Config{
				K: sh.k, Seed: s, Trials: sh.trials, Trace: tr, Workers: sh.workers,
			})
			if err != nil {
				return "", err
			}
			return fig1aFingerprint(res), nil
		}
		return in, nil
	}
	c, err := makeFig1cInput(sh, seed, j)
	if err != nil {
		return in, err
	}
	in.run = func() (string, error) {
		res, err := sharebackup.Fig1c(sharebackup.Fig1cConfig{
			K: sh.k, Seed: c.seed, Coflows: c.coflows, Workers: sh.workers,
		})
		if err != nil {
			return "", err
		}
		return fig1cFingerprint(res), nil
	}
	return in, nil
}

// fig1aRates is the number of rate points of a default Fig1a sweep.
const fig1aRates = 7

func hashFloats(parts ...[]float64) string {
	h := sha256.New()
	var b [8]byte
	for _, p := range parts {
		binary.BigEndian.PutUint64(b[:], uint64(len(p)))
		h.Write(b[:])
		for _, v := range p {
			binary.BigEndian.PutUint64(b[:], math.Float64bits(v))
			h.Write(b[:])
		}
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// fig1aFingerprint covers the affected-flow and affected-coflow curves.
func fig1aFingerprint(r *sharebackup.Fig1Result) string {
	return hashFloats(r.FlowPct, r.CoflowPct)
}

// fig1cFingerprint covers every architecture's slowdown multiset (sorted)
// and its disconnected-coflow count.
func fig1cFingerprint(archs []sharebackup.ArchSlowdowns) string {
	var parts [][]float64
	for _, a := range archs {
		s := append([]float64(nil), a.Slowdowns...)
		sort.Float64s(s)
		parts = append(parts, s, []float64{float64(a.Disconnected), float64(len(a.Name))})
	}
	return hashFloats(parts...)
}

// simCall is one timed study call.
type simCall struct {
	wall, cpu time.Duration
}
