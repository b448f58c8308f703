// Package switchprobe is an active-measurement toolkit for quantifying how
// much of a network switch a parallel application uses and how the
// application's performance degrades when switch capability is shared with
// other software.  It reproduces the methodology of
//
//	Marc Casas and Greg Bronevetsky,
//	"Active Measurement of the Impact of Network Switch Utilization on
//	Application Performance", IPDPS 2014,
//
// on a packet-level simulated cluster (the paper's LLNL Cab testbed is not
// generally available), including:
//
//   - the ImpactB probe benchmark and per-component impact signatures,
//   - the CompressionB traffic injector and its 40-configuration grid,
//   - the M/G/1 queue model of switch utilization (Pollaczek–Khinchine
//     inversion),
//   - the four slowdown predictors (AverageLT, AverageStDevLT, PDFLT,
//     Queue),
//   - six HPC application skeletons (AMG, FFTW, Lulesh, MCB, MILC, VPFFT),
//   - an experiment harness regenerating every table and figure of the
//     paper's evaluation,
//   - and a contention-aware cluster scheduler simulator that closes the
//     paper's loop: job streams are placed over the fabric's contention
//     domains by pluggable policies, with the predictor-guided policy
//     scoring candidate placements before committing them.
//
// This file is the public facade: it re-exports the library's primary types
// and entry points so downstream users never import internal packages
// directly.  The deeper building blocks (the discrete-event kernel, the
// switch model, the MPI-like runtime) remain internal.
package switchprobe

import (
	"github.com/hpcperf/switchprobe/internal/cluster"
	"github.com/hpcperf/switchprobe/internal/core"
	"github.com/hpcperf/switchprobe/internal/engine"
	"github.com/hpcperf/switchprobe/internal/experiments"
	"github.com/hpcperf/switchprobe/internal/inject"
	"github.com/hpcperf/switchprobe/internal/model"
	"github.com/hpcperf/switchprobe/internal/netsim"
	"github.com/hpcperf/switchprobe/internal/predict"
	"github.com/hpcperf/switchprobe/internal/probe"
	"github.com/hpcperf/switchprobe/internal/queuing"
	"github.com/hpcperf/switchprobe/internal/report"
	"github.com/hpcperf/switchprobe/internal/sched"
	"github.com/hpcperf/switchprobe/internal/workload"
)

// --- topology and placement --------------------------------------------------

// Topology describes the fabric connecting the simulated nodes (set it on
// MachineConfig.Net.Topology; nil means the paper's single switch).
type Topology = netsim.Topology

// Star is the paper's single-switch topology.
type Star = netsim.Star

// FatTree is a two-stage multi-switch fabric with tunable oversubscription.
type FatTree = netsim.FatTree

// ParseTopology builds a topology from textual CLI-style parameters.
func ParseTopology(kind string, leaves, uplinks int) (Topology, error) {
	return netsim.ParseTopology(kind, leaves, uplinks)
}

// PlacementPolicy selects how application nodes are picked across the
// topology's leaf switches (set it on Options.Placement).
type PlacementPolicy = cluster.PlacementPolicy

// Placement policies.
const (
	PlacePack   = cluster.PlacePack
	PlaceSpread = cluster.PlaceSpread
	PlaceRandom = cluster.PlaceRandom
)

// Slot restricts an application to one half of the machine for placed
// co-run experiments.
type Slot = core.Slot

// Machine slots for placed co-run measurements.
const (
	SlotAll = core.SlotAll
	SlotA   = core.SlotA
	SlotB   = core.SlotB
)

// --- measurement methodology -------------------------------------------------

// Options configures a measurement campaign (machine, window, probe, scale).
type Options = core.Options

// Signature is a component's switch-usage fingerprint as observed by ImpactB.
type Signature = core.Signature

// Calibration holds the idle-switch M/G/1 calibration.
type Calibration = core.Calibration

// Runtime is an application's measured iteration rate.
type Runtime = core.Runtime

// Profile is an application's compression profile (utilization → slowdown).
type Profile = core.Profile

// ProfilePoint is one compression measurement in a Profile.
type ProfilePoint = core.ProfilePoint

// MachineConfig describes the simulated cluster (nodes, sockets, switch).
type MachineConfig = cluster.Config

// ServiceModel is the switch's M/G/1 service model (µ, Var(S)).
type ServiceModel = queuing.ServiceModel

// ProbeConfig configures the ImpactB probe benchmark.
type ProbeConfig = probe.Config

// DefaultOptions returns paper-scale measurement options (18-node Cab-like
// switch, full problem sizes).
func DefaultOptions() Options { return core.DefaultOptions() }

// ReducedOptions returns small, fast options suitable for tests and
// exploration (6 nodes, strongly reduced problem sizes).
func ReducedOptions() Options { return core.TestOptions() }

// Calibrate measures the idle switch with ImpactB and derives the M/G/1
// service model used by the queue predictor.
func Calibrate(o Options) (Calibration, error) {
	art, err := core.ExecuteSpec(core.CalibrateSpec(o), nil)
	if err != nil {
		return Calibration{}, err
	}
	return *art.Calibration, nil
}

// MeasureAppImpact measures an application's impact signature: the probe
// latency distribution (and inferred switch utilization) while it runs.
func MeasureAppImpact(o Options, cal Calibration, app App) (Signature, error) {
	return measureSignature(core.AppImpactSpec(o, app, core.SlotAll), cal)
}

// MeasureInjectorImpact measures a CompressionB configuration's impact
// signature.
func MeasureInjectorImpact(o Options, cal Calibration, cfg InjectorConfig) (Signature, error) {
	return measureSignature(core.InjectorImpactSpec(o, cfg), cal)
}

// MeasureAppBaseline measures an application's iteration rate on an otherwise
// idle switch.
func MeasureAppBaseline(o Options, app App) (Runtime, error) {
	return measureRuntime(core.BaselineSpec(o, app, core.SlotAll))
}

// MeasureAppUnderInjector measures an application's iteration rate while a
// CompressionB configuration consumes part of the switch.
func MeasureAppUnderInjector(o Options, app App, cfg InjectorConfig) (Runtime, error) {
	return measureRuntime(core.CompressSpec(o, app, cfg, core.SlotAll))
}

// MeasureAppPair measures the iteration rates of two applications sharing the
// switch.
func MeasureAppPair(o Options, a, b App) (Runtime, Runtime, error) {
	return measurePair(core.PairSpec(o, a, b, false))
}

// MeasureAppPairPlaced measures a co-run with each application restricted to
// one half of the machine's placement-policy node order (a on SlotA, b on
// SlotB) — the cross-switch ground truth on multi-leaf topologies.
func MeasureAppPairPlaced(o Options, a, b App) (Runtime, Runtime, error) {
	return measurePair(core.PairSpec(o, a, b, true))
}

// MeasureAppBaselineSlot measures an application's iteration rate alone in
// one half of the machine, the baseline placed co-runs are judged against.
func MeasureAppBaselineSlot(o Options, app App, slot Slot) (Runtime, error) {
	return measureRuntime(core.BaselineSpec(o, app, slot))
}

// BuildProfile builds an application's compression profile over the given
// injector grid.
func BuildProfile(o Options, cal Calibration, app App, grid []InjectorConfig,
	injSignatures map[string]Signature) (Profile, error) {
	return core.AssembleProfile(func(spec RunSpec) (core.Artifact, error) {
		if spec.Kind == core.RunInjectorImpact {
			if sig, ok := injSignatures[spec.Injector.Label()]; ok {
				return core.Artifact{Signature: &sig}, nil
			}
		}
		return core.ExecuteSpec(spec, &cal)
	}, o, app, grid, core.SlotAll)
}

// measureSignature runs an impact spec live and returns its signature.
func measureSignature(spec RunSpec, cal Calibration) (Signature, error) {
	art, err := core.ExecuteSpec(spec, &cal)
	if err != nil {
		return Signature{}, err
	}
	return *art.Signature, nil
}

// measureRuntime runs a baseline or compression spec live and returns its
// runtime.
func measureRuntime(spec RunSpec) (Runtime, error) {
	art, err := core.ExecuteSpec(spec, nil)
	if err != nil {
		return Runtime{}, err
	}
	return *art.Runtime, nil
}

// measurePair runs a pair spec live and returns both runtimes.
func measurePair(spec RunSpec) (Runtime, Runtime, error) {
	art, err := core.ExecuteSpec(spec, nil)
	if err != nil {
		return Runtime{}, Runtime{}, err
	}
	return *art.Runtime, *art.RuntimeB, nil
}

// DegradationPercent is the paper's slowdown metric:
// (T_observed − T_baseline) / T_baseline × 100.
func DegradationPercent(baseline, observed Runtime) float64 {
	return core.DegradationPercent(baseline, observed)
}

// --- workloads ----------------------------------------------------------------

// App is an application model that can be measured and co-scheduled.  One
// App value is shared by every world that runs it, and campaigns run worlds
// concurrently, so an implementation's Rank method binds the application to
// one rank at launch and keeps everything per-rank (neighbour lists, request
// buffers, loop variables) in the Loop it returns, never on the App.
type App = workload.App

// Scale adjusts application problem sizes.
type Scale = workload.Scale

// FullScale is the paper-like problem size.
var FullScale = workload.FullScale

// ReducedScale returns a proportionally reduced problem size for fast runs.
func ReducedScale(f float64) Scale { return workload.Reduced(f) }

// Applications returns the paper's six applications at the given scale, in
// the order used by its tables and figures.
func Applications(s Scale) []App { return workload.Registry(s) }

// ApplicationNames returns the application names in canonical order.
func ApplicationNames() []string { return workload.Names() }

// ApplicationByName returns the named application at the given scale.
func ApplicationByName(name string, s Scale) (App, error) { return workload.ByName(name, s) }

// --- traffic injection ----------------------------------------------------------

// InjectorConfig is one CompressionB configuration (P partners, M messages,
// B sleep cycles).
type InjectorConfig = inject.Config

// NewInjectorConfig builds a CompressionB configuration with the paper's
// fixed 40 KB message size.
func NewInjectorConfig(partners, messages int, sleepCycles float64) InjectorConfig {
	return inject.NewConfig(partners, messages, sleepCycles)
}

// InjectorGrid returns the paper's 40 CompressionB configurations.
func InjectorGrid() []InjectorConfig { return inject.Grid() }

// ReducedInjectorGrid returns a small representative configuration grid.
func ReducedInjectorGrid() []InjectorConfig { return inject.ReducedGrid() }

// --- prediction -----------------------------------------------------------------

// Predictor predicts co-run slowdowns from impact and compression
// measurements.
type Predictor = model.Predictor

// Predictors returns the paper's four predictors (AverageLT, AverageStDevLT,
// PDFLT, Queue).
func Predictors() []Predictor { return model.All() }

// ExtendedPredictors returns the paper's predictors plus this library's
// phase-aware queue model (QueuePhase), which relaxes the paper's
// constant-utilization assumption.
func ExtendedPredictors() []Predictor { return model.Extended() }

// PredictorByName returns the named predictor.
func PredictorByName(name string) (Predictor, error) { return model.ByName(name) }

// Pairing identifies an ordered application pair (target + co-runner).
type Pairing = predict.Pairing

// PairPrediction is the measured and predicted slowdown of one pairing.
type PairPrediction = predict.PairPrediction

// Study is a full pairwise prediction evaluation.
type Study = predict.Study

// NewStudy evaluates the given predictors on every ordered pair of apps.
func NewStudy(models []Predictor, apps []string, profiles map[string]Profile,
	signatures map[string]Signature, measured map[Pairing]float64) (Study, error) {
	return predict.NewStudy(models, apps, profiles, signatures, measured)
}

// EvaluatePair predicts one pairing with every given model.
func EvaluatePair(models []Predictor, target Profile, coRunner Signature,
	measuredPct float64) (PairPrediction, error) {
	return predict.Evaluate(models, target, coRunner, measuredPct)
}

// --- declarative runs and the artifact engine --------------------------------

// RunSpec fully describes one simulation run as a value, with a canonical
// encoding and a stable content hash; it is the unit of caching.
type RunSpec = core.RunSpec

// RunArtifact is the result of executing one RunSpec.
type RunArtifact = core.Artifact

// RunSpec constructors, one per measurement primitive.
func CalibrateRunSpec(o Options) RunSpec { return core.CalibrateSpec(o) }
func AppImpactRunSpec(o Options, app App, slot Slot) RunSpec {
	return core.AppImpactSpec(o, app, slot)
}
func InjectorImpactRunSpec(o Options, cfg InjectorConfig) RunSpec {
	return core.InjectorImpactSpec(o, cfg)
}
func BaselineRunSpec(o Options, app App, slot Slot) RunSpec { return core.BaselineSpec(o, app, slot) }
func CompressRunSpec(o Options, app App, cfg InjectorConfig, slot Slot) RunSpec {
	return core.CompressSpec(o, app, cfg, slot)
}
func PairRunSpec(o Options, a, b App, placed bool) RunSpec { return core.PairSpec(o, a, b, placed) }

// Engine executes RunSpecs through an in-memory + on-disk content-addressed
// artifact cache with deduplication of concurrent identical runs.
type Engine = engine.Engine

// CacheStats counts how an engine satisfied artifact requests.
type CacheStats = engine.Stats

// NewEngine creates an artifact engine.  A non-empty cacheDir persists
// artifacts to a content-addressed store (shared by swprobe and swpredict);
// an empty cacheDir memoizes in-process only.
func NewEngine(cacheDir string) (*Engine, error) { return engine.New(cacheDir) }

// SpecVersion identifies the canonical RunSpec encoding and the simulator
// generations beneath it; persisted artifacts are keyed on it.
func SpecVersion() string { return core.SpecVersion() }

// --- experiment harness ----------------------------------------------------------

// Preset selects an experiment scale (paper, default, ci).
type Preset = experiments.Preset

// Experiment presets.
const (
	PresetPaper   = experiments.PresetPaper
	PresetDefault = experiments.PresetDefault
	PresetCI      = experiments.PresetCI
)

// ExperimentConfig describes an experiment campaign.
type ExperimentConfig = experiments.Config

// Suite runs the paper's experiments and caches shared measurements.
type Suite = experiments.Suite

// NewExperimentConfig builds the configuration of a preset.
func NewExperimentConfig(preset Preset, seed int64) (ExperimentConfig, error) {
	return experiments.NewConfig(preset, seed)
}

// NewSuite creates an experiment suite with an in-process artifact engine.
func NewSuite(cfg ExperimentConfig) *Suite { return experiments.NewSuite(cfg) }

// NewSuiteWithEngine creates a suite on an existing (typically persistent)
// artifact engine, so repeated or overlapping campaigns reuse runs.
func NewSuiteWithEngine(cfg ExperimentConfig, eng *Engine) *Suite {
	return experiments.NewSuiteWithEngine(cfg, eng)
}

// Experiment result types, one per table/figure of the paper's evaluation.
type (
	// Fig3Result holds the probe-latency distributions (paper Fig. 3).
	Fig3Result = experiments.Fig3Result
	// Fig6Result holds the CompressionB utilization sweep (paper Fig. 6).
	Fig6Result = experiments.Fig6Result
	// Fig7Result holds the degradation-vs-utilization curves (paper Fig. 7).
	Fig7Result = experiments.Fig7Result
	// Table1Result holds the measured pairwise slowdown matrix (paper
	// Table I).
	Table1Result = experiments.Table1Result
	// Fig8Result holds the per-pair prediction errors (paper Fig. 8).
	Fig8Result = experiments.Fig8Result
	// Fig9Result holds the per-model error summary (paper Fig. 9).
	Fig9Result = experiments.Fig9Result
	// XSwitchResult holds the cross-switch campaign: measured and predicted
	// co-run degradation across fat-tree oversubscription ratios and
	// placement policies.
	XSwitchResult = experiments.XSwitchResult
)

// --- contention-aware scheduling ---------------------------------------------

// SchedJob is one job of a scheduler arrival stream.
type SchedJob = sched.JobSpec

// SchedArrivals deterministically generates a job stream from a seed.
type SchedArrivals = sched.ArrivalSpec

// SchedPolicy decides where each arriving job is placed; implementations
// include FirstFit, Pack, Spread, Random and the predictor-in-the-loop
// PredictorGuided.
type SchedPolicy = sched.Policy

// SchedOracle resolves the scheduler model's measured coefficients (solo
// durations, placed co-run slowdowns, signatures and profiles).
type SchedOracle = sched.Oracle

// SchedulerConfig describes one scheduler simulation run.
type SchedulerConfig = sched.Config

// SchedulerResult is one policy's schedule with its summary metrics,
// decision log and utilization timeline.
type SchedulerResult = sched.Result

// RunScheduler executes one deterministic scheduler simulation.
func RunScheduler(cfg SchedulerConfig) (SchedulerResult, error) { return sched.Run(cfg) }

// SchedPolicyNames returns every placement policy name in canonical order.
func SchedPolicyNames() []string { return sched.PolicyNames() }

// NewSchedPolicy builds a placement policy by name; the predictor policy
// scores candidates with pred over the oracle's signatures and profiles.
func NewSchedPolicy(name string, seed int64, pred Predictor, oracle SchedOracle) (SchedPolicy, error) {
	return sched.NewPolicy(name, seed, pred, oracle)
}

// NewSchedOracle builds the engine-backed oracle: every coefficient it
// serves is a cached core RunSpec measured on the options' fabric.
func NewSchedOracle(eng *Engine, o Options, grid []InjectorConfig) SchedOracle {
	return sched.NewEngineOracle(eng, o, grid)
}

// SchedSpec parameterizes the Suite.Sched scheduler campaign.
type SchedSpec = experiments.SchedSpec

// SchedScenario is one fabric the scheduler campaign runs on.
type SchedScenario = experiments.SchedScenario

// SchedCampaignResult is the full scheduler campaign (scenario × policy).
type SchedCampaignResult = experiments.SchedResult

// DefaultSchedScenarios returns the standard fabric set for a node count:
// star plus non-blocking and oversubscribed fat-trees.
func DefaultSchedScenarios(nodes int) []SchedScenario {
	return experiments.DefaultSchedScenarios(nodes)
}

// SchedSummary renders the campaign's per-scenario policy comparison.
func SchedSummary(r SchedCampaignResult) string { return experiments.SchedSummary(r) }

// ResultTable is a rendered result: aligned text via Render, CSV via
// WriteCSV.
type ResultTable = report.Table

// Render helpers turning experiment results into tables.
func RenderFig3(r Fig3Result) ResultTable       { return report.Fig3Table(r) }
func RenderFig6(r Fig6Result) ResultTable       { return report.Fig6Table(r) }
func RenderFig7(r Fig7Result) ResultTable       { return report.Fig7Table(r) }
func RenderTable1(r Table1Result) ResultTable   { return report.Table1Table(r) }
func RenderFig8(r Fig8Result) ResultTable       { return report.Fig8Table(r) }
func RenderFig9(r Fig9Result) ResultTable       { return report.Fig9Table(r) }
func RenderXSwitch(r XSwitchResult) ResultTable { return report.XSwitchTable(r) }

// RenderSched renders the scheduler campaign table.
func RenderSched(r SchedCampaignResult) ResultTable { return report.SchedTable(r) }
