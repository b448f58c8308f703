package sched

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"sort"
	"strings"

	"github.com/hpcperf/switchprobe/internal/model"
)

// LeafHealth classifies a leaf's fabric health as seen by the scheduler.
// The zero value is HealthOK so that schedulers without a health feed
// (Config.Health == nil) behave exactly as before health awareness existed.
type LeafHealth int

const (
	// HealthOK: the leaf's uplinks are fully operational.
	HealthOK LeafHealth = iota
	// HealthUnknown: the health feed cannot classify the leaf.  Policies
	// should degrade gracefully (PredictorGuided falls back to pure
	// consolidation when every candidate is unknown).
	HealthUnknown
	// HealthDegraded: the leaf is reachable but its uplinks run slow; jobs
	// placed there progress at half their healthy rate.
	HealthDegraded
	// HealthDead: the leaf is partitioned from the fabric.  The scheduler
	// never offers dead leaves as candidates and requeues their resident
	// jobs with full demand restored.
	HealthDead
)

// String implements fmt.Stringer.
func (h LeafHealth) String() string {
	switch h {
	case HealthOK:
		return "ok"
	case HealthUnknown:
		return "unknown"
	case HealthDegraded:
		return "degraded"
	case HealthDead:
		return "dead"
	default:
		return fmt.Sprintf("health(%d)", int(h))
	}
}

// Candidate is one leaf that can host an arriving job.
type Candidate struct {
	// Leaf is the leaf switch index.
	Leaf int
	// FreeSlots and UsedSlots describe the leaf's occupancy.
	FreeSlots, UsedSlots int
	// Residents are the workloads already running on the leaf — the jobs an
	// arriving job would share a contention domain with.
	Residents []string
	// Health is the leaf's health at offer time.  Dead leaves are filtered
	// out before policies ever see them; degraded and unknown leaves are
	// offered and left to the policy's judgment.
	Health LeafHealth
}

// Policy decides which candidate leaf an arriving job is placed on.
// Candidates are always presented in ascending leaf order and are never
// empty; the returned index selects one of them, and the score is recorded
// in the placement-decision log (0 for score-free policies).
//
// A policy may return Defer instead of an index to leave the job at the
// head of the queue: the scheduler re-offers it after the next completion
// or arrival.  Deferring trades queueing delay against a placement the
// policy predicts to be worse than waiting; it is only meaningful while
// other jobs are running — deferring an idle cluster would deadlock, so
// the scheduler then overrides the deferral and places the job on the
// first candidate leaf.
type Policy interface {
	Name() string
	Choose(job JobSpec, cands []Candidate) (choice int, score float64, err error)
}

// Defer is the Choose return value that postpones the placement.
const Defer = -1

// Policy names, in canonical campaign order.
const (
	PolicyFirstFit  = "firstfit"
	PolicyPack      = "pack"
	PolicySpread    = "spread"
	PolicyRandom    = "random"
	PolicyPredictor = "predictor"
)

// PolicyNames returns every policy name in canonical order.
func PolicyNames() []string {
	return []string{PolicyFirstFit, PolicyPack, PolicySpread, PolicyRandom, PolicyPredictor}
}

// NewPolicy builds the named policy.  Random derives its private stream from
// seed; predictor scores candidates with pred over the oracle's signatures
// and profiles.  Both arguments are ignored by the blind policies.
func NewPolicy(name string, seed int64, pred model.Predictor, oracle Oracle) (Policy, error) {
	switch strings.ToLower(strings.TrimSpace(name)) {
	case PolicyFirstFit:
		return FirstFit{}, nil
	case PolicyPack:
		return Pack{}, nil
	case PolicySpread:
		return Spread{}, nil
	case PolicyRandom:
		return NewRandom(seed), nil
	case PolicyPredictor:
		if pred == nil {
			return nil, fmt.Errorf("sched: predictor policy needs a model.Predictor")
		}
		if oracle == nil {
			return nil, fmt.Errorf("sched: predictor policy needs an oracle")
		}
		return NewPredictorGuided(pred, oracle), nil
	default:
		sorted := PolicyNames()
		sort.Strings(sorted)
		return nil, fmt.Errorf("sched: unknown policy %q (valid: %s)", name, strings.Join(sorted, ", "))
	}
}

// FirstFit places every job on the lowest-indexed leaf with capacity.
type FirstFit struct{}

// Name implements Policy.
func (FirstFit) Name() string { return PolicyFirstFit }

// Choose implements Policy.
func (FirstFit) Choose(JobSpec, []Candidate) (int, float64, error) { return 0, 0, nil }

// Pack consolidates: it places every job on the most-loaded leaf that still
// has capacity (ties go to the lowest index), keeping the cluster's
// footprint small at the price of co-locating jobs even when empty leaves
// exist.
type Pack struct{}

// Name implements Policy.
func (Pack) Name() string { return PolicyPack }

// Choose implements Policy.
func (Pack) Choose(_ JobSpec, cands []Candidate) (int, float64, error) {
	best := 0
	for i, c := range cands {
		if c.UsedSlots > cands[best].UsedSlots {
			best = i
		}
	}
	return best, 0, nil
}

// Spread balances: it places every job on the least-loaded leaf (ties go to
// the lowest index), avoiding co-location as long as free leaves exist but
// pairing blindly once they run out.
type Spread struct{}

// Name implements Policy.
func (Spread) Name() string { return PolicySpread }

// Choose implements Policy.
func (Spread) Choose(_ JobSpec, cands []Candidate) (int, float64, error) {
	best := 0
	for i, c := range cands {
		if c.UsedSlots < cands[best].UsedSlots {
			best = i
		}
	}
	return best, 0, nil
}

// Random places every job on a uniformly random feasible leaf, drawn from a
// private deterministic stream.
type Random struct {
	rng *rand.Rand
}

// NewRandom builds the random policy with its own seed-derived stream.
func NewRandom(seed int64) *Random {
	h := fnv.New64a()
	fmt.Fprintf(h, "sched/random/%d", seed)
	return &Random{rng: rand.New(rand.NewSource(int64(h.Sum64())))}
}

// Name implements Policy.
func (*Random) Name() string { return PolicyRandom }

// Choose implements Policy.
func (r *Random) Choose(_ JobSpec, cands []Candidate) (int, float64, error) {
	return r.rng.Intn(len(cands)), 0, nil
}

// PredictorGuided is the paper's loop closed: before committing a placement
// it scores every candidate leaf by the predicted aggregate slowdown the
// placement would create — the arriving job's predicted degradation next to
// each resident's impact signature, plus each resident's predicted
// degradation next to the arriving job's signature — and places the job on
// the cheapest leaf.
//
// Among candidates predicted equally harmless (within ScoreMarginPct of the
// minimum) it prefers the most-loaded leaf.  This consolidation rule is what
// makes the prediction actionable over time: a compute-heavy job absorbs a
// network-heavy resident's spare slot instead of hiding next to another
// quiet job, so the slots left open for future network-heavy arrivals are
// the compatible ones.  A purely greedy minimum would scatter the quiet jobs
// and leave only catastrophic pairings feasible later.
//
// On fabrics without a shared bottleneck between contention domains
// (Oracle.Contended is false — the single switch, or a non-blocking
// fat-tree) the shared-queue premise behind the paper's predictors does not
// hold for slot-exclusive jobs, so the policy predicts co-residency as free
// and reduces to pure consolidation.
type PredictorGuided struct {
	pred   model.Predictor
	oracle Oracle
	// ScoreMarginPct is the aggregate predicted-slowdown band (percentage
	// points) within which candidates count as equivalent and load breaks
	// the tie.
	ScoreMarginPct float64
	// DeferThresholdPct is the minimum candidate score above which the
	// policy defers the placement instead of committing it: if every
	// feasible leaf predicts a heavily contended pairing, waiting for a
	// completion is cheaper than running at a fraction of solo speed.
	// Zero disables deferral.
	DeferThresholdPct float64
	// DegradedPenaltyPct is added to a candidate's score when its leaf is
	// degraded, so healthy leaves win unless they predict contention worse
	// than the degraded fabric itself.  Zero disables the penalty.
	DegradedPenaltyPct float64
}

// DefaultScoreMarginPct is the default equivalence band for candidate
// scores: well below any contentious pairing (tens to hundreds of points)
// and above prediction noise on quiet pairs.
const DefaultScoreMarginPct = 10.0

// DefaultDeferThresholdPct is the default deferral threshold: contended
// pairings on an oversubscribed fabric predict aggregate slowdowns of
// 100–350 points, quiet ones 0–10, so 50 cleanly separates "ride along"
// from "wait for a better slot".
const DefaultDeferThresholdPct = 50.0

// DefaultDegradedPenaltyPct is the default degraded-leaf penalty.  A
// half-speed leaf costs a resident job 100 points of slowdown, so 75 makes a
// degraded leaf lose to any healthy candidate short of a catastrophic
// pairing while still beating the worst contended ones.
const DefaultDegradedPenaltyPct = 75.0

// NewPredictorGuided builds the predictor-in-the-loop policy.
func NewPredictorGuided(pred model.Predictor, oracle Oracle) *PredictorGuided {
	return &PredictorGuided{
		pred:               pred,
		oracle:             oracle,
		ScoreMarginPct:     DefaultScoreMarginPct,
		DeferThresholdPct:  DefaultDeferThresholdPct,
		DegradedPenaltyPct: DefaultDegradedPenaltyPct,
	}
}

// Name implements Policy.
func (*PredictorGuided) Name() string { return PolicyPredictor }

// Predictor returns the model the policy scores with.
func (p *PredictorGuided) Predictor() model.Predictor { return p.pred }

// Choose implements Policy.
func (p *PredictorGuided) Choose(job JobSpec, cands []Candidate) (int, float64, error) {
	allUnknown := true
	for _, c := range cands {
		if c.Health != HealthUnknown {
			allUnknown = false
			break
		}
	}
	if allUnknown {
		// The health feed says nothing about any candidate: the degraded
		// penalty cannot discriminate, so degrade gracefully to pure
		// consolidation rather than trusting predictions about a fabric in
		// an unknown state.
		return Pack{}.Choose(job, cands)
	}
	if !p.oracle.Contended() {
		// No shared bottleneck between slot-exclusive jobs: the predictors'
		// shared-queue premise does not apply, co-residency is predicted
		// free, and the policy falls back to consolidation — preferring
		// non-degraded leaves when any exist.
		best := -1
		for i, c := range cands {
			if c.Health == HealthDegraded {
				continue
			}
			if best < 0 || c.UsedSlots > cands[best].UsedSlots {
				best = i
			}
		}
		if best >= 0 {
			return best, 0, nil
		}
		return Pack{}.Choose(job, cands)
	}
	scores := make([]float64, len(cands))
	min := 0.0
	for i, c := range cands {
		score, err := p.scoreCandidate(job, c)
		if err != nil {
			return 0, 0, err
		}
		if c.Health == HealthDegraded {
			score += p.DegradedPenaltyPct
		}
		scores[i] = score
		if i == 0 || score < min {
			min = score
		}
	}
	if p.DeferThresholdPct > 0 && min > p.DeferThresholdPct {
		return Defer, min, nil
	}
	best := -1
	for i, c := range cands {
		if scores[i] > min+p.ScoreMarginPct {
			continue
		}
		if best < 0 || c.UsedSlots > cands[best].UsedSlots {
			best = i
		}
	}
	return best, scores[best], nil
}

// scoreCandidate predicts the total slowdown (in percentage points summed
// over affected jobs) that placing job on the candidate leaf would add.
func (p *PredictorGuided) scoreCandidate(job JobSpec, c Candidate) (float64, error) {
	if len(c.Residents) == 0 {
		return 0, nil
	}
	jobProfile, err := p.oracle.Profile(job.Workload)
	if err != nil {
		return 0, err
	}
	jobSig, err := p.oracle.Signature(job.Workload)
	if err != nil {
		return 0, err
	}
	total := 0.0
	for _, resident := range c.Residents {
		resSig, err := p.oracle.Signature(resident)
		if err != nil {
			return 0, err
		}
		inflicted, err := p.pred.Predict(jobProfile, resSig)
		if err != nil {
			return 0, fmt.Errorf("sched: predicting %s next to %s: %w", job.Workload, resident, err)
		}
		resProfile, err := p.oracle.Profile(resident)
		if err != nil {
			return 0, err
		}
		suffered, err := p.pred.Predict(resProfile, jobSig)
		if err != nil {
			return 0, fmt.Errorf("sched: predicting %s next to %s: %w", resident, job.Workload, err)
		}
		if inflicted > 0 {
			total += inflicted
		}
		if suffered > 0 {
			total += suffered
		}
	}
	return total, nil
}
