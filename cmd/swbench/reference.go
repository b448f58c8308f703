package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"strconv"

	"github.com/hpcperf/switchprobe/internal/experiments"
	"github.com/hpcperf/switchprobe/internal/sched"
)

// summary holds the result values an iteration's correctness checks read:
// the campaign numbers the statistical-equivalence gates of
// internal/experiments/equivalence_test.go bound, plus the model-quality
// figures reported for warm-replay.
type summary struct {
	Fig3Mean  map[string]float64     `json:"fig3_mean_us,omitempty"`
	Fig3Freq  map[string][]float64   `json:"fig3_freq_pct,omitempty"`
	Table1    map[string]float64     `json:"table1_pct,omitempty"`
	XSwitch   map[string]float64     `json:"xswitch_pct,omitempty"`
	Sched     map[string]float64     `json:"sched_stretch,omitempty"`
	Faults    map[string]faultValues `json:"faults,omitempty"`
	QueueMAE  float64                `json:"queue_mae_pts,omitempty"`
	SchedGain float64                `json:"sched_gain_pct,omitempty"`
}

// faultValues is one (scenario, case, policy) row of the faults campaign.
type faultValues struct {
	TrunksFailed int64   `json:"trunks_failed"`
	Reroutes     int64   `json:"reroutes"`
	Retransmits  int64   `json:"retransmits"`
	Requeues     int     `json:"requeues"`
	SlowdownPct  float64 `json:"slowdown_pct"`
	MeanStretch  float64 `json:"mean_stretch"`
}

func (s *summary) addFig3(r experiments.Fig3Result) {
	s.Fig3Mean = map[string]float64{}
	s.Fig3Freq = map[string][]float64{}
	for _, col := range r.Columns {
		s.Fig3Mean[col] = r.MeanMicros[col]
		s.Fig3Freq[col] = r.FrequencyPct[col]
	}
}

func (s *summary) addTable1(r experiments.Table1Result) {
	s.Table1 = map[string]float64{}
	for i, target := range r.Apps {
		for j, co := range r.Apps {
			s.Table1[target+"+"+co] = r.SlowdownPct[i][j]
		}
	}
}

func (s *summary) addXSwitch(r experiments.XSwitchResult) {
	s.XSwitch = map[string]float64{}
	for _, p := range r.Points {
		s.XSwitch[fmt.Sprintf("uplinks=%d/%s", p.Uplinks, p.Placement)] = p.MeasuredPct
	}
}

// addSched records every mean stretch and the predictor policy's gain over
// pack on the contended fabric, which DefaultSchedScenarios always lists
// last.
func (s *summary) addSched(r experiments.SchedResult) {
	s.Sched = map[string]float64{}
	for _, row := range r.Rows {
		s.Sched[row.Scenario+"/"+row.Policy] = row.MeanStretch
	}
	if len(r.Scenarios) > 0 {
		contended := r.Scenarios[len(r.Scenarios)-1]
		pack, okPack := r.MeanStretch(contended, sched.PolicyPack)
		pred, okPred := r.MeanStretch(contended, sched.PolicyPredictor)
		if okPack && okPred && pack > 0 {
			s.SchedGain = (pack - pred) / pack * 100
		}
	}
}

func (s *summary) addFaults(r experiments.FaultsResult) {
	s.Faults = map[string]faultValues{}
	for _, row := range r.Rows {
		s.Faults[row.Scenario+"/"+row.Case+"/"+row.Policy] = faultValues{
			TrunksFailed: row.TrunksFailed,
			Reroutes:     row.Reroutes,
			Retransmits:  row.Retransmits,
			Requeues:     row.Requeues,
			SlowdownPct:  row.SlowdownPct,
			MeanStretch:  row.MeanStretch,
		}
	}
}

// finite reports every value of the summary that is NaN or infinite.
func (s summary) finite() []string {
	var bad []string
	check := func(what string, v float64) {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			bad = append(bad, fmt.Sprintf("%s is %v", what, v))
		}
	}
	for k, v := range s.Fig3Mean {
		check("fig3 mean "+k, v)
	}
	for k, vs := range s.Fig3Freq {
		for i, v := range vs {
			check(fmt.Sprintf("fig3 bin %s[%d]", k, i), v)
		}
	}
	for k, v := range s.Table1 {
		check("table1 "+k, v)
	}
	for k, v := range s.XSwitch {
		check("xswitch "+k, v)
	}
	for k, v := range s.Sched {
		check("sched "+k, v)
	}
	for k, v := range s.Faults {
		check("faults slowdown "+k, v.SlowdownPct)
		check("faults stretch "+k, v.MeanStretch)
	}
	check("queue mean abs error", s.QueueMAE)
	check("sched gain", s.SchedGain)
	sort.Strings(bad)
	return bad
}

// The tolerances below are copied from the relaxed-vs-strict gates in
// internal/experiments/equivalence_test.go, so an engine change those gates
// accept also stays inside these bands.

// fig3MeanTol bounds a column's mean probe latency (µs).
func fig3MeanTol(ref float64) float64 { return math.Max(0.6, 0.12*ref) }

// fig3MaxCDFGap bounds the largest CDF gap of a latency histogram.
const fig3MaxCDFGap = 0.20

// table1Tol bounds one Table 1 slowdown entry (points).
func table1Tol(ref float64) float64 { return math.Max(4.0, 0.40*math.Abs(ref)) }

// xswitchTol bounds one cross-switch degradation (points).
func xswitchTol(ref float64) float64 { return math.Max(5.0, 0.35*math.Abs(ref)) }

// stretchTol bounds a mean job stretch, in the sched and faults campaigns.
func stretchTol(ref float64) float64 { return math.Max(0.08, 0.12*ref) }

// retransmitTol bounds a faulted run's retransmit count.
func retransmitTol(ref int64) float64 { return math.Max(16, 0.6*float64(ref)) }

// faultSlowdownTol bounds a faulted run's probe slowdown (points).
func faultSlowdownTol(ref float64) float64 { return math.Max(12.0, 0.45*math.Abs(ref)) }

// cdfGap returns the maximum CDF gap (0..1) between two histograms given as
// per-bin percentages on a shared binning.
func cdfGap(a, b []float64) float64 {
	var ca, cb, gap float64
	n := min(len(a), len(b))
	for i := 0; i < n; i++ {
		ca += a[i] / 100
		cb += b[i] / 100
		gap = math.Max(gap, math.Abs(ca-cb))
	}
	return gap
}

// bandViolations compares an iteration's summary with the reference summary
// of the same workload and seed and describes every value outside its band.
// Reference entries missing from got are violations; extra entries in got
// are not checked.
func bandViolations(ref, got summary) []string {
	var out []string
	fail := func(format string, args ...any) { out = append(out, fmt.Sprintf(format, args...)) }
	within := func(what string, want, have, tol float64) {
		if math.Abs(have-want) > tol {
			fail("%s = %.4g, reference %.4g ± %.4g", what, have, want, tol)
		}
	}
	for _, k := range sortedKeys(ref.Fig3Mean) {
		have, ok := got.Fig3Mean[k]
		if !ok {
			fail("fig3 column %s missing", k)
			continue
		}
		within("fig3 mean "+k, ref.Fig3Mean[k], have, fig3MeanTol(ref.Fig3Mean[k]))
		if gap := cdfGap(ref.Fig3Freq[k], got.Fig3Freq[k]); gap > fig3MaxCDFGap {
			fail("fig3 %s latency CDF gap %.4f exceeds %.2f", k, gap, fig3MaxCDFGap)
		}
	}
	bands := []struct {
		name     string
		ref, got map[string]float64
		tol      func(float64) float64
	}{
		{"table1", ref.Table1, got.Table1, table1Tol},
		{"xswitch", ref.XSwitch, got.XSwitch, xswitchTol},
		{"sched stretch", ref.Sched, got.Sched, stretchTol},
	}
	for _, b := range bands {
		for _, k := range sortedKeys(b.ref) {
			have, ok := b.got[k]
			if !ok {
				fail("%s %s missing", b.name, k)
				continue
			}
			within(b.name+" "+k, b.ref[k], have, b.tol(b.ref[k]))
		}
	}
	for _, k := range sortedKeys(ref.Faults) {
		want, have := ref.Faults[k], got.Faults[k]
		if _, ok := got.Faults[k]; !ok {
			fail("faults %s missing", k)
			continue
		}
		// The fault timeline and failover routing are traffic-independent,
		// so these counts are exact.
		if have.TrunksFailed != want.TrunksFailed || have.Reroutes != want.Reroutes || have.Requeues != want.Requeues {
			fail("faults %s: trunks failed/reroutes/requeues %d/%d/%d, reference %d/%d/%d", k,
				have.TrunksFailed, have.Reroutes, have.Requeues, want.TrunksFailed, want.Reroutes, want.Requeues)
		}
		within("faults retransmits "+k, float64(want.Retransmits), float64(have.Retransmits), retransmitTol(want.Retransmits))
		within("faults slowdown "+k, want.SlowdownPct, have.SlowdownPct, faultSlowdownTol(want.SlowdownPct))
		within("faults stretch "+k, want.MeanStretch, have.MeanStretch, stretchTol(want.MeanStretch))
	}
	return out
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// referenceJSON holds the reference summaries of every workload at full
// size for seeds 1 and 2 (regenerate with go test -run TestReference -update).
//
//go:embed testdata/reference.json
var referenceJSON []byte

// references maps a seed and a workload name to its reference summary.
type references map[string]map[string]summary

func loadReferences() (references, error) {
	var refs references
	if err := json.Unmarshal(referenceJSON, &refs); err != nil {
		return nil, fmt.Errorf("reference bands: %w", err)
	}
	return refs, nil
}

// lookup returns the reference summary of a workload at a seed, if any.
func (r references) lookup(seed int64, workload string) (summary, bool) {
	s, ok := r[strconv.FormatInt(seed, 10)][workload]
	return s, ok
}
