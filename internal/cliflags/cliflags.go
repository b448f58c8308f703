// Package cliflags holds the flag cross-validation logic shared by the
// swprobe and swpredict commands, so the two CLIs cannot drift apart on what
// combinations of fault-injection flags are legal.  Each helper validates
// one concern and returns the same error text both commands used to produce
// inline.
package cliflags

import (
	"fmt"
	"time"

	"github.com/hpcperf/switchprobe/internal/netsim"
	"github.com/hpcperf/switchprobe/internal/sim"
)

// ParseFaultFlags cross-validates the fault-injection flags and parses the
// -fault-plan grammar.  It returns the parsed plan (nil-safe: an empty flag
// yields an inactive plan) and whether any fault flag was actually set.
func ParseFaultFlags(planStr string, mtbf, mttr time.Duration) (plan *netsim.FaultPlan, active bool, err error) {
	if (mtbf > 0) != (mttr > 0) {
		return nil, false, fmt.Errorf("-mtbf and -mttr must be set together (e.g. -mtbf 50ms -mttr 5ms), got -mtbf %v -mttr %v", mtbf, mttr)
	}
	if mtbf < 0 || mttr < 0 {
		return nil, false, fmt.Errorf("-mtbf and -mttr must be positive virtual durations, got -mtbf %v -mttr %v", mtbf, mttr)
	}
	plan, err = netsim.ParseFaultPlan(planStr)
	if err != nil {
		return nil, false, err
	}
	return plan, mtbf > 0 || plan.Active(), nil
}

// WithGenerated folds the -mtbf/-mttr renewal generator into the plan,
// allocating one when only the generator flags were given.  A zero mtbf
// returns the plan unchanged.
func WithGenerated(plan *netsim.FaultPlan, mtbf, mttr time.Duration) *netsim.FaultPlan {
	if mtbf <= 0 {
		return plan
	}
	if plan == nil {
		plan = &netsim.FaultPlan{}
	}
	plan.MTBF = sim.Duration(mtbf)
	plan.MTTR = sim.Duration(mttr)
	return plan
}

// CheckFaultTopology rejects the explicit combination of fault flags with a
// trunkless -topology star: there is no trunk to fail and no alternate route
// to fail over to.  topologySet distinguishes an explicit -topology star
// (rejected with guidance) from the default value (left for the campaign or
// the plan's layout validation to resolve).
func CheckFaultTopology(faultsSet, topologySet bool, topology string) error {
	if faultsSet && topologySet && topology == "star" {
		return fmt.Errorf("fault injection needs a topology with trunks and -topology star has none; " +
			"valid combinations: -exp faults with -topology fattree, or without -topology (the campaign sweeps every trunked fabric)")
	}
	return nil
}

// ValidatePlanAgainst builds the topology's layout for nodes and validates
// the plan's trunk references against it, wrapping failures with the flag
// guidance both CLIs print.  An inactive plan passes trivially.
func ValidatePlanAgainst(plan *netsim.FaultPlan, topo netsim.Topology, nodes int) error {
	if !plan.Active() {
		return nil
	}
	lay, err := topo.Build(nodes)
	if err != nil {
		return err
	}
	if err := plan.Validate(lay); err != nil {
		return fmt.Errorf("%w; valid combinations: -topology fattree [-leaves N -uplinks N] with trunk labels leafL.upU or leafL.downU", err)
	}
	return nil
}
