// Package kmachine implements the k-machine model simulation of Appendix A:
// the n clique nodes are partitioned uniformly at random over k machines;
// every NCC round is executed by routing each clique message over the
// machine-level complete network, where each ordered machine pair's link
// carries a bounded number of words per k-machine round (store-and-forward,
// direct routing). Corollary 2 predicts that a T-round NCC algorithm costs
// about n*T/k^2 k-machine rounds (up to polylog factors).
//
// The accounting rides on the engine's telemetry plane: the partition goes
// into ncc.Config.MachineOf, the engine meters each round's machine-link
// loads, and an Accountant probe turns the per-round figures into k-machine
// rounds. The run itself is untouched.
package kmachine

import (
	"fmt"
	"math/rand/v2"

	"ncc/internal/ncc"
)

// Result summarizes a k-machine simulation.
type Result struct {
	// K is the number of machines, BandwidthWords the per-link words per
	// k-machine round.
	K              int
	BandwidthWords int
	// NCCRounds is the simulated algorithm's round count; KRounds the number
	// of k-machine rounds needed to route all of its traffic.
	NCCRounds int
	KRounds   int64
	// CrossMessages counts clique messages between machines; IntraMessages
	// those between co-located nodes (free).
	CrossMessages int64
	IntraMessages int64
	// MaxMachineNodes is the largest machine population under the random
	// vertex partition (about n/k + deviations).
	MaxMachineNodes int
	// MaxLinkWords is the largest single-round load on one directed link.
	MaxLinkWords int
}

// String renders the headline numbers.
func (r Result) String() string {
	return fmt.Sprintf("k=%d nccRounds=%d kRounds=%d cross=%d intra=%d",
		r.K, r.NCCRounds, r.KRounds, r.CrossMessages, r.IntraMessages)
}

// Accountant accounts a run's communication in the k-machine model without
// owning the run itself: Attach it to any engine configuration
// (kmachine.Simulate, or a scenario run via the scenario package's kmachine
// block) and read the accumulated Result afterwards. The random vertex
// partition is fixed at construction from the seed, so the same (k, n, seed)
// triple always produces the same machine assignment.
type Accountant struct {
	machineOf []int
	bw        int
	res       Result
}

// NewAccountant builds the k-machine accountant for an n-node clique with the
// given per-link bandwidth (words per k-machine round). The vertex partition
// derives deterministically from seed.
func NewAccountant(k, bandwidthWords, n int, seed int64) (*Accountant, error) {
	if k < 1 {
		return nil, fmt.Errorf("kmachine: k = %d, need >= 1", k)
	}
	if bandwidthWords < 1 {
		return nil, fmt.Errorf("kmachine: bandwidth = %d words, need >= 1", bandwidthWords)
	}
	a := &Accountant{
		bw:  bandwidthWords,
		res: Result{K: k, BandwidthWords: bandwidthWords},
	}
	rng := rand.New(rand.NewPCG(uint64(seed), 0x6b6d616368696e65))
	a.machineOf = make([]int, n)
	counts := make([]int, k)
	for i := range a.machineOf {
		a.machineOf[i] = rng.IntN(k)
		counts[a.machineOf[i]]++
	}
	for _, c := range counts {
		if c > a.res.MaxMachineNodes {
			a.res.MaxMachineNodes = c
		}
	}
	return a, nil
}

// Attach installs the accountant on cfg: the machine partition, and its
// Sample probe chained before any probe cfg already carries.
func (a *Accountant) Attach(cfg *ncc.Config) {
	cfg.MachineOf = a.machineOf
	cfg.Probe = ncc.RoundProbe(a.Sample).Then(cfg.Probe)
}

// Sample is the accountant's ncc.RoundProbe: it charges the round's clique
// messages routed over the machine-level complete network. Under direct
// store-and-forward routing the round costs the most loaded link's transfer
// time, and at least one k-machine round for the synchronous barrier.
func (a *Accountant) Sample(s ncc.RoundSample, _ []ncc.ShardTiming) {
	a.res.CrossMessages += int64(s.CrossMachine)
	a.res.IntraMessages += int64(s.Messages - s.CrossMachine)
	a.res.MaxLinkWords = max(a.res.MaxLinkWords, s.MaxLinkWords)
	a.res.KRounds += int64(max(1, (s.MaxLinkWords+a.bw-1)/a.bw))
}

// Result returns the accumulated accounting. NCCRounds is left zero — the
// run's owner fills it from the engine's Stats, which count rounds
// authoritatively (the probe only sees rounds the engine completed).
func (a *Accountant) Result() Result { return a.res }

// Simulate runs program on an NCC clique configured by cfg while accounting
// its communication in the k-machine model with the given per-link bandwidth
// (in words per round). The random vertex partition is derived from
// cfg.Seed; a Probe already present in cfg keeps receiving every sample.
func Simulate(k, bandwidthWords int, cfg ncc.Config, program func(*ncc.Context)) (Result, ncc.Stats, error) {
	a, err := NewAccountant(k, bandwidthWords, cfg.N, cfg.Seed)
	if err != nil {
		return Result{}, ncc.Stats{}, err
	}
	a.Attach(&cfg)
	st, err := ncc.Run(cfg, program)
	res := a.Result()
	res.NCCRounds = st.Rounds
	return res, st, err
}
