package experiments

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"github.com/hpcperf/switchprobe/internal/core"
	"github.com/hpcperf/switchprobe/internal/model"
	"github.com/hpcperf/switchprobe/internal/netsim"
	"github.com/hpcperf/switchprobe/internal/sched"
	"github.com/hpcperf/switchprobe/internal/sim"
)

// The faults campaign is the resilience counterpart of the sched campaign:
// it sweeps fault cases (a mid-run uplink failure with repair, a degraded
// uplink, a full leaf partition, and optionally an MTBF/MTTR-generated
// failure process or a user-supplied plan) across every trunked fabric
// scenario, measuring two coupled layers:
//
//   - the packet level: deterministic probe + bulk traffic driven directly
//     through netsim twice — once clean, once under the case's FaultPlan —
//     yielding the probe-latency slowdown and the retransmit/reroute/failure
//     counters of the faulted run;
//   - the job level: every placement policy schedules the same arrival
//     streams as the sched campaign while a leaf-health timeline derived
//     from the case degrades or kills the affected leaf, yielding stretch
//     and requeue counts per policy.
//
// Both layers are deterministic: the packet runs are byte-identical across
// repeats (fault transitions bound the relaxed engine's lookahead), and the
// job level is a pure function of the seed for every -parallel value.

// Fault case names, in canonical campaign order.
const (
	// FaultCaseDownUp fails one uplink of leaf 0 at 40% of the window and
	// repairs it at 80%.
	FaultCaseDownUp = "downup"
	// FaultCaseDegrade slows every uplink of leaf 0 to half bandwidth
	// (serialization factor 2) from 20% of the window onward.
	FaultCaseDegrade = "degrade"
	// FaultCasePartition fails every uplink of leaf 0 at 40% of the window
	// and repairs them at 70%, fully partitioning the leaf in between.
	FaultCasePartition = "partition"
	// FaultCaseMTBF draws trunk failures from the kernel's dedicated fault
	// substream with the spec's MTBF/MTTR (present only when both are set).
	FaultCaseMTBF = "mtbf"
	// FaultCaseCustom runs the spec's explicit FaultPlan (present only when
	// one is supplied, e.g. via swprobe -fault-plan).
	FaultCaseCustom = "custom"
)

// FaultCaseNames returns the default case set (the cases that need no extra
// spec input), in canonical order.
func FaultCaseNames() []string {
	return []string{FaultCaseDownUp, FaultCaseDegrade, FaultCasePartition}
}

// FaultsSpec parameterizes the resilience campaign.  The embedded SchedSpec
// fields size the job level exactly as in the sched campaign; its Scenarios
// are filtered to trunked fabrics (a star has nothing to fail).
type FaultsSpec struct {
	// Sched sizes the job-level portion (jobs, streams, policies, apps,
	// scenarios...).  Zero-value fields resolve to the sched campaign
	// defaults.
	Sched SchedSpec
	// Cases selects the fault cases to sweep (empty = FaultCaseNames, plus
	// mtbf/custom when the fields below are set).
	Cases []string
	// MTBF and MTTR enable the generated-failure case: mean time between
	// trunk failures and mean repair time.  Both must be set together.
	MTBF, MTTR sim.Duration
	// Plan is an explicit fault plan run as the "custom" case.  Trunk
	// labels must exist on every swept scenario.
	Plan *netsim.FaultPlan
}

// FaultRow is one (scenario, case, policy) cell.  The packet-level fields
// (SlowdownPct and the counters) are per (scenario, case) and repeat across
// that case's policy rows.
type FaultRow struct {
	// Scenario and Oversubscription identify the fabric.
	Scenario         string
	Oversubscription float64
	// Case is the fault case name.
	Case string
	// Policy is the placement policy of the job-level run.
	Policy string
	// SlowdownPct is the mean probe-latency slowdown of the faulted packet
	// run over the clean one, in percent.
	SlowdownPct float64
	// TrunksFailed, Retransmits and Reroutes are the faulted packet run's
	// netsim counters.
	TrunksFailed, Retransmits, Reroutes int64
	// Jobs, MeanStretch, P95Stretch, Requeues and Deferrals summarize the
	// policy's job-level runs under the case's leaf-health timeline.
	Jobs                    int
	MeanStretch, P95Stretch float64
	Requeues                int
	Deferrals               int
}

// FaultsResult is the full resilience campaign.
type FaultsResult struct {
	// Spec is the fully resolved specification the campaign ran with.
	Spec FaultsSpec
	// Scenarios, Cases and Policies give the row order (scenario-major,
	// then case, then policy).
	Scenarios []string
	Cases     []string
	Policies  []string
	// Rows holds one entry per scenario × case × policy.
	Rows []FaultRow
}

// Row returns the (scenario, case, policy) cell.
func (r FaultsResult) Row(scenario, faultCase, policy string) (FaultRow, bool) {
	for _, row := range r.Rows {
		if row.Scenario == scenario && row.Case == faultCase && row.Policy == policy {
			return row, true
		}
	}
	return FaultRow{}, false
}

// withDefaults resolves the spec against the suite configuration and filters
// the scenarios down to trunked fabrics.
func (spec FaultsSpec) withDefaults(cfg Config) (FaultsSpec, error) {
	if (spec.MTBF > 0) != (spec.MTTR > 0) {
		return spec, fmt.Errorf("faults: MTBF and MTTR must be set together (have MTBF=%v, MTTR=%v)",
			spec.MTBF, spec.MTTR)
	}
	spec.Sched = spec.Sched.withDefaults(cfg)
	if err := spec.Sched.validate(); err != nil {
		return spec, fmt.Errorf("faults: %w", err)
	}
	nodes := cfg.Options.Machine.Nodes()
	var trunked []SchedScenario
	for _, scen := range spec.Sched.Scenarios {
		topo := scen.Topology
		if topo == nil {
			continue
		}
		lay, err := topo.Build(nodes)
		if err != nil {
			return spec, fmt.Errorf("faults %s: %w", scen.Label, err)
		}
		if len(lay.Trunks) == 0 {
			continue // a star has nothing to fail
		}
		if spec.Plan.Active() {
			// Reject a bad explicit plan before any case runs, with the
			// network the custom case will build (degrade factors are
			// bounded by its MTU serialization).
			ncfg := cfg.Options.Machine.Net
			ncfg.Topology = topo
			ncfg.Faults = spec.Plan
			if err := ncfg.Validate(); err != nil {
				return spec, fmt.Errorf("faults %s: %w", scen.Label, err)
			}
		}
		trunked = append(trunked, scen)
	}
	if len(trunked) == 0 {
		return spec, fmt.Errorf("faults: no trunked scenario to fail (star topologies have no trunks)")
	}
	spec.Sched.Scenarios = trunked
	if len(spec.Cases) == 0 {
		spec.Cases = FaultCaseNames()
		if spec.MTBF > 0 {
			spec.Cases = append(spec.Cases, FaultCaseMTBF)
		}
		if spec.Plan.Active() {
			spec.Cases = append(spec.Cases, FaultCaseCustom)
		}
	}
	for _, c := range spec.Cases {
		switch c {
		case FaultCaseDownUp, FaultCaseDegrade, FaultCasePartition:
		case FaultCaseMTBF:
			if spec.MTBF <= 0 {
				return spec, fmt.Errorf("faults: case %q needs MTBF and MTTR", c)
			}
		case FaultCaseCustom:
			if !spec.Plan.Active() {
				return spec, fmt.Errorf("faults: case %q needs an explicit fault plan", c)
			}
		default:
			return spec, fmt.Errorf("faults: unknown case %q (valid: %s, %s, %s)",
				c, strings.Join(FaultCaseNames(), ", "), FaultCaseMTBF, FaultCaseCustom)
		}
	}
	return spec, nil
}

// leafUplinks returns the trunk labels of leaf 0's uplinks, the links every
// built-in case fails.
func leafUplinks(lay netsim.Layout) []string {
	var ups []string
	for _, tr := range lay.Trunks {
		if strings.HasPrefix(tr.Label, "leaf0.up") {
			ups = append(ups, tr.Label)
		}
	}
	sort.Strings(ups)
	return ups
}

// faultPlanFor builds the netsim plan of one case for a concrete layout and
// measurement window.
func (spec FaultsSpec) faultPlanFor(faultCase string, lay netsim.Layout, window sim.Duration) (*netsim.FaultPlan, error) {
	ups := leafUplinks(lay)
	if len(ups) == 0 {
		return nil, fmt.Errorf("faults: layout has no leaf0 uplinks")
	}
	downAt := window * 2 / 5
	switch faultCase {
	case FaultCaseDownUp:
		return &netsim.FaultPlan{Events: []netsim.FaultEvent{
			{At: downAt, Trunk: ups[0], Kind: netsim.FaultTrunkDown},
			{At: window * 4 / 5, Trunk: ups[0], Kind: netsim.FaultTrunkUp},
		}}, nil
	case FaultCaseDegrade:
		var evs []netsim.FaultEvent
		for _, u := range ups {
			evs = append(evs, netsim.FaultEvent{At: window / 5, Trunk: u, Kind: netsim.FaultDegrade, Factor: 2})
		}
		return &netsim.FaultPlan{Events: evs}, nil
	case FaultCasePartition:
		var evs []netsim.FaultEvent
		for _, u := range ups {
			evs = append(evs,
				netsim.FaultEvent{At: downAt, Trunk: u, Kind: netsim.FaultTrunkDown},
				netsim.FaultEvent{At: window * 7 / 10, Trunk: u, Kind: netsim.FaultTrunkUp})
		}
		return &netsim.FaultPlan{Events: evs}, nil
	case FaultCaseMTBF:
		return &netsim.FaultPlan{MTBF: spec.MTBF, MTTR: spec.MTTR}, nil
	case FaultCaseCustom:
		return spec.Plan, nil
	default:
		return nil, fmt.Errorf("faults: unknown case %q", faultCase)
	}
}

// schedHealthFor maps a fault case onto a deterministic leaf-health
// timeline: the job-level proxy of what the packet level simulates.  The
// affected leaf (leaf 0 for the built-in cases, the first failed trunk's
// leaf for custom plans) is degraded — or dead, for the partition case —
// over a fixed fraction of the arrival stream's span.
func schedHealthFor(faultCase string, plan *netsim.FaultPlan) schedHealthTimeline {
	leaf := 0
	startFrac, endFrac := 0.3, 0.6
	state := sched.HealthDegraded
	switch faultCase {
	case FaultCasePartition:
		state = sched.HealthDead
	case FaultCaseDegrade:
		startFrac, endFrac = 0.2, 0 // never lifts
	case FaultCaseCustom:
		if plan != nil && len(plan.Events) > 0 {
			fmt.Sscanf(plan.Events[0].Trunk, "leaf%d.", &leaf)
		}
	}
	return func(span float64) (func(int, float64) sched.LeafHealth, []float64) {
		t1 := startFrac * span
		t2 := endFrac * span
		health := func(l int, now float64) sched.LeafHealth {
			if l != leaf || now < t1 || (endFrac > 0 && now >= t2) {
				return sched.HealthOK
			}
			return state
		}
		events := []float64{t1}
		if endFrac > 0 {
			events = append(events, t2)
		}
		return health, events
	}
}

// faultNetMeasure drives one deterministic packet-level run: cross-leaf bulk
// senders plus a steady probe stream over the measurement window, with a
// saturating burst just ahead of the plan's first trunk failure so packets
// are genuinely in flight when it drops.  It returns the mean probe latency
// and the run's fault counters; plan == nil measures the clean baseline.
func faultNetMeasure(o core.Options, topo netsim.Topology, plan *netsim.FaultPlan, window sim.Duration) (float64, netsim.Stats, error) {
	ncfg := o.Machine.Net
	ncfg.Topology = topo
	ncfg.Faults = plan
	nodes := ncfg.Nodes
	lay, err := topo.Build(nodes)
	if err != nil {
		return 0, netsim.Stats{}, err
	}
	var leaf0, leaf1 []int
	for node, leaf := range lay.LeafOf {
		switch leaf {
		case 0:
			leaf0 = append(leaf0, node)
		case 1:
			leaf1 = append(leaf1, node)
		}
	}
	if len(leaf0) == 0 || len(leaf1) == 0 {
		return 0, netsim.Stats{}, fmt.Errorf("faults: topology %s has fewer than 2 leaves", topo.Name())
	}

	k := sim.NewKernel(o.Seed)
	n, err := netsim.New(k, ncfg)
	if err != nil {
		return 0, netsim.Stats{}, err
	}
	start := time.Now()

	// Bulk senders: every leaf-0 node streams 16KB messages to a leaf-1
	// peer across the window.
	for i, src := range leaf0 {
		src, dst := src, leaf1[i%len(leaf1)]
		for at := window / 100; at < window; at += window / 50 {
			k.CallAt(sim.Time(at), func(any) {
				n.SendMessage(src, dst, 16*1024, netsim.Flow{Class: "bulk", ID: src}, nil)
			}, nil)
		}
	}
	// Saturating burst 20µs ahead of the first scheduled failure, so the
	// trunks have queued and in-flight packets at the transition (otherwise
	// a quiet fabric fails over with nothing to lose).
	if plan != nil {
		firstDown := sim.Duration(-1)
		for _, e := range plan.Events {
			if e.Kind == netsim.FaultTrunkDown && (firstDown < 0 || e.At < firstDown) {
				firstDown = e.At
			}
		}
		if plan.MTBF > 0 {
			firstDown = window * 2 / 5 // generated failures: keep mid-window pressure
		}
		if firstDown > 0 {
			burstAt := firstDown - 20*sim.Microsecond
			if burstAt < 0 {
				burstAt = 0
			}
			for i, src := range leaf0 {
				src, dst := src, leaf1[i%len(leaf1)]
				for j := 0; j < 8; j++ {
					k.CallAt(sim.Time(burstAt), func(any) {
						n.SendMessage(src, dst, 32*1024, netsim.Flow{Class: "bulk", ID: src}, nil)
					}, nil)
				}
			}
		}
	}
	// Probe stream: fixed-size probes cross the faulted trunk region on a
	// steady cadence; their latencies are the slowdown metric.
	var latSum float64
	var latCnt int
	for at := sim.Duration(0); at < window; at += window / 200 {
		k.CallAt(sim.Time(at), func(any) {
			n.SendProbe(leaf0[0], leaf1[0], 512, netsim.Flow{Class: "impact", ID: 0}, func(d netsim.Delivery) {
				latSum += float64(d.Latency())
				latCnt++
			})
		}, nil)
	}

	// Bound the run: an MTBF generator perpetually schedules its next
	// failure, so the queue never drains; 4x the window lets retransmit
	// backoffs and post-repair traffic settle deterministically.
	k.RunUntil(sim.Time(4 * window))
	core.RecordSimRun(k, n, time.Since(start))
	if latCnt == 0 {
		return 0, netsim.Stats{}, fmt.Errorf("faults: no probe delivered within the run bound")
	}
	return latSum / float64(latCnt), n.Stats(), nil
}

// Faults runs the resilience campaign.
func (s *Suite) Faults(spec FaultsSpec) (FaultsResult, error) {
	spec, err := spec.withDefaults(s.cfg)
	if err != nil {
		return FaultsResult{}, err
	}
	pred, err := model.ByName(spec.Sched.Predictor)
	if err != nil {
		return FaultsResult{}, err
	}
	o := s.cfg.Options
	nodes := o.Machine.Nodes()
	res := FaultsResult{Spec: spec, Cases: spec.Cases, Policies: spec.Sched.Policies}
	for _, scen := range spec.Sched.Scenarios {
		res.Scenarios = append(res.Scenarios, scen.Label)
		lay, err := scen.Topology.Build(nodes)
		if err != nil {
			return FaultsResult{}, fmt.Errorf("faults %s: %w", scen.Label, err)
		}
		cleanMean, _, err := faultNetMeasure(o, scen.Topology, nil, o.Window)
		if err != nil {
			return FaultsResult{}, fmt.Errorf("faults %s clean: %w", scen.Label, err)
		}
		oversub := schedOversubscription(scen.Topology, nodes)
		for _, faultCase := range spec.Cases {
			plan, err := spec.faultPlanFor(faultCase, lay, o.Window)
			if err != nil {
				return FaultsResult{}, fmt.Errorf("faults %s/%s: %w", scen.Label, faultCase, err)
			}
			if err := plan.Validate(lay); err != nil {
				return FaultsResult{}, fmt.Errorf("faults %s/%s: %w", scen.Label, faultCase, err)
			}
			faultMean, st, err := faultNetMeasure(o, scen.Topology, plan, o.Window)
			if err != nil {
				return FaultsResult{}, fmt.Errorf("faults %s/%s: %w", scen.Label, faultCase, err)
			}
			slowdown := 0.0
			if cleanMean > 0 {
				slowdown = (faultMean/cleanMean - 1) * 100
			}
			rows, err := s.schedScenarioHealth(spec.Sched, scen, pred, schedHealthFor(faultCase, plan))
			if err != nil {
				return FaultsResult{}, fmt.Errorf("faults %s/%s: %w", scen.Label, faultCase, err)
			}
			for _, prow := range rows {
				res.Rows = append(res.Rows, FaultRow{
					Scenario:         scen.Label,
					Oversubscription: oversub,
					Case:             faultCase,
					Policy:           prow.Policy,
					SlowdownPct:      slowdown,
					TrunksFailed:     st.TrunksFailed,
					Retransmits:      st.PacketsRetransmitted,
					Reroutes:         st.RoutesRecomputed,
					Jobs:             prow.Jobs,
					MeanStretch:      prow.MeanStretch,
					P95Stretch:       prow.P95Stretch,
					Requeues:         prow.Requeues,
					Deferrals:        prow.Deferrals,
				})
			}
		}
	}
	return res, nil
}

// FaultsSummary renders the campaign's headline: per scenario, the heaviest
// packet-level slowdown and the policy spread under failures.
func FaultsSummary(r FaultsResult) string {
	var b strings.Builder
	for _, scen := range r.Scenarios {
		worstCase, worst := "", 0.0
		for _, c := range r.Cases {
			if row, ok := r.Row(scen, c, r.Policies[0]); ok && row.SlowdownPct > worst {
				worstCase, worst = c, row.SlowdownPct
			}
		}
		if worstCase == "" {
			continue
		}
		fmt.Fprintf(&b, "%s: heaviest probe slowdown %.1f%% (%s)", scen, worst, worstCase)
		if pg, ok := r.Row(scen, worstCase, sched.PolicyPredictor); ok {
			if pack, ok := r.Row(scen, worstCase, sched.PolicyPack); ok {
				fmt.Fprintf(&b, "; stretch under %s: predictor %.2f vs pack %.2f",
					worstCase, pg.MeanStretch, pack.MeanStretch)
			}
		}
		b.WriteString("\n")
	}
	return b.String()
}
