package cliflags

import (
	"strings"
	"testing"
	"time"

	"github.com/hpcperf/switchprobe/internal/netsim"
)

func TestValidateExec(t *testing.T) {
	if err := ValidateExec(0, false); err != nil {
		t.Fatalf("default flags rejected: %v", err)
	}
	if err := ValidateExec(4, false); err != nil {
		t.Fatalf("-workers 4 rejected: %v", err)
	}
	if err := ValidateExec(1, true); err != nil {
		t.Fatalf("-workers 1 with -strict-order rejected: %v", err)
	}
	if err := ValidateExec(-1, false); err == nil {
		t.Fatal("negative -workers accepted")
	}
	err := ValidateExec(4, true)
	if err == nil || !strings.Contains(err.Error(), "strict-order") {
		t.Fatalf("-workers with -strict-order should be rejected naming the flag: %v", err)
	}
}

func TestParseFaultFlags(t *testing.T) {
	plan, active, err := ParseFaultFlags("", 0, 0)
	if err != nil || active {
		t.Fatalf("no fault flags: active=%v err=%v", active, err)
	}
	if plan.Active() {
		t.Fatal("empty plan reported active")
	}

	if _, _, err := ParseFaultFlags("", 50*time.Millisecond, 0); err == nil || !strings.Contains(err.Error(), "-mtbf") {
		t.Fatalf("-mtbf without -mttr should be rejected naming the flag: %v", err)
	}
	if _, _, err := ParseFaultFlags("", 0, 5*time.Millisecond); err == nil {
		t.Fatal("-mttr without -mtbf accepted")
	}
	if _, _, err := ParseFaultFlags("gibberish", 0, 0); err == nil {
		t.Fatal("unparseable -fault-plan accepted")
	}

	plan, active, err = ParseFaultFlags("down:leaf0.up0@2ms,up:leaf0.up0@7ms", 0, 0)
	if err != nil {
		t.Fatalf("valid plan rejected: %v", err)
	}
	if !active || !plan.Active() || len(plan.Events) != 2 {
		t.Fatalf("plan not parsed: active=%v events=%d", active, len(plan.Events))
	}

	if _, active, err = ParseFaultFlags("", 50*time.Millisecond, 5*time.Millisecond); err != nil || !active {
		t.Fatalf("generator-only flags: active=%v err=%v", active, err)
	}
}

func TestWithGenerated(t *testing.T) {
	if got := WithGenerated(nil, 0, 0); got != nil {
		t.Fatalf("zero mtbf must not allocate a plan, got %+v", got)
	}
	p := WithGenerated(nil, 50*time.Millisecond, 5*time.Millisecond)
	if p == nil || p.MTBF == 0 || p.MTTR == 0 {
		t.Fatalf("generator not folded into fresh plan: %+v", p)
	}
	base := &netsim.FaultPlan{Events: []netsim.FaultEvent{{Trunk: "leaf0.up0", Kind: netsim.FaultTrunkDown}}}
	p = WithGenerated(base, 50*time.Millisecond, 5*time.Millisecond)
	if p != base || len(p.Events) != 1 || p.MTBF == 0 {
		t.Fatalf("generator not folded into existing plan: %+v", p)
	}
}

func TestCheckFaultTopology(t *testing.T) {
	if err := CheckFaultTopology(true, true, "star"); err == nil {
		t.Fatal("fault flags with explicit -topology star accepted")
	}
	for _, c := range []struct {
		faults, topoSet bool
		topo            string
	}{
		{false, true, "star"},   // no fault flags
		{true, false, "star"},   // default topology: campaign resolves it
		{true, true, "fattree"}, // trunked topology is fine
	} {
		if err := CheckFaultTopology(c.faults, c.topoSet, c.topo); err != nil {
			t.Fatalf("CheckFaultTopology(%+v) = %v", c, err)
		}
	}
}

func TestValidatePlanAgainst(t *testing.T) {
	fattree, err := netsim.ParseTopology("fattree", 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	star, err := netsim.ParseTopology("star", 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	plan, _, err := ParseFaultFlags("down:leaf0.up0@2ms", 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := ValidatePlanAgainst(plan, fattree, 8); err != nil {
		t.Fatalf("valid plan on fattree rejected: %v", err)
	}
	if err := ValidatePlanAgainst(plan, star, 8); err == nil {
		t.Fatal("plan on trunkless star accepted")
	}
	bad, _, err := ParseFaultFlags("down:leaf9.up9@2ms", 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	err = ValidatePlanAgainst(bad, fattree, 8)
	if err == nil || !strings.Contains(err.Error(), "leafL.upU") {
		t.Fatalf("unknown trunk should fail with flag guidance: %v", err)
	}
	// Non-finite degrade factors are malformed plans on any fabric.
	for _, factor := range []string{"NaN", "Inf"} {
		nonFinite, _, err := ParseFaultFlags("degrade:leaf0.up0@1ms:"+factor, 0, 0)
		if err != nil {
			t.Fatal(err)
		}
		if err := ValidatePlanAgainst(nonFinite, fattree, 8); err == nil || !strings.Contains(err.Error(), "degrade:leaf0.up0@1ms:") {
			t.Fatalf("degrade factor %s: want an error naming the event, got %v", factor, err)
		}
	}
	var nilPlan *netsim.FaultPlan
	if err := ValidatePlanAgainst(nilPlan, star, 8); err != nil {
		t.Fatalf("inactive plan must pass on any topology: %v", err)
	}
}

// FuzzParseFaultFlags checks the fault-flag cross-validation contract for
// any -fault-plan text and -mtbf/-mttr pair: an error returns no plan and
// reports no fault flags; success means the generator pair is both set or
// both unset and non-negative, and active is true exactly when the generator
// is on or the parsed plan has events.
func FuzzParseFaultFlags(f *testing.F) {
	f.Fuzz(func(t *testing.T, planStr string, mtbfNS, mttrNS int64) {
		mtbf, mttr := time.Duration(mtbfNS), time.Duration(mttrNS)
		plan, active, err := ParseFaultFlags(planStr, mtbf, mttr)
		if err != nil {
			if plan != nil || active {
				t.Fatalf("error %v returned plan %v and active=%v", err, plan, active)
			}
			return
		}
		if (mtbf > 0) != (mttr > 0) || mtbf < 0 || mttr < 0 {
			t.Fatalf("accepted -mtbf %v -mttr %v", mtbf, mttr)
		}
		if want := mtbf > 0 || plan.Active(); active != want {
			t.Fatalf("active = %v for plan %q, -mtbf %v; want %v", active, planStr, mtbf, want)
		}
	})
}
