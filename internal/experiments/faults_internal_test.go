package experiments

import (
	"testing"

	"github.com/hpcperf/switchprobe/internal/netsim"
	"github.com/hpcperf/switchprobe/internal/sched"
)

// TestCustomFaultDegradesFirstFailedLeaf: the custom case's job-level
// timeline degrades the leaf whose trunk goes down first in time, whatever
// order the events were written in, and the earliest event's leaf when no
// trunk goes down.
func TestCustomFaultDegradesFirstFailedLeaf(t *testing.T) {
	for _, c := range []struct {
		plan string
		leaf int
	}{
		{"down:leaf0.up0@1ms,down:leaf1.up0@5ms", 0},
		{"down:leaf1.up0@5ms,down:leaf0.up0@1ms", 0},
		{"degrade:leaf1.up0@1ms:2,down:leaf0.up0@2ms", 0},
		{"down:leaf2.up0@1ms,down:leaf1.up0@1ms", 1},
		{"degrade:leaf2.up0@3ms:2,degrade:leaf1.up0@1ms:2", 1},
	} {
		plan, err := netsim.ParseFaultPlan(c.plan)
		if err != nil {
			t.Fatal(err)
		}
		// The custom timeline holds from 0.3 to 0.6 of the span.
		health, _ := schedHealthFor(FaultCaseCustom, plan)(10)
		for leaf := 0; leaf < 3; leaf++ {
			want := sched.HealthOK
			if leaf == c.leaf {
				want = sched.HealthDegraded
			}
			if got := health(leaf, 4.5); got != want {
				t.Errorf("%s: leaf %d health %v, want %v", c.plan, leaf, got, want)
			}
		}
	}
}
