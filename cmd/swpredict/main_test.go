package main

import (
	"strings"
	"testing"
)

func TestRunRejectsBadFlags(t *testing.T) {
	if err := run([]string{"-nosuchflag"}); err == nil {
		t.Fatal("expected flag parse error")
	}
}

func TestRunRejectsUnknownPreset(t *testing.T) {
	if err := run([]string{"-preset", "bogus"}); err == nil {
		t.Fatal("expected error for unknown preset")
	}
}

func TestRunRejectsUnknownApplications(t *testing.T) {
	if err := run([]string{"-preset", "ci", "-target", "NotAnApp"}); err == nil {
		t.Fatal("expected error for unknown target")
	}
	if err := run([]string{"-preset", "ci", "-corunner", "NotAnApp"}); err == nil {
		t.Fatal("expected error for unknown co-runner")
	}
}

// TestRunValidatesExecutionFlags: -workers is not a flag; each simulation
// runs on one goroutine.
func TestRunValidatesExecutionFlags(t *testing.T) {
	err := run([]string{"-preset", "ci", "-workers", "2"})
	if err == nil || !strings.Contains(err.Error(), "flag provided but not defined: -workers") {
		t.Fatalf("-workers should be an unknown flag, got %v", err)
	}
}

func TestRunValidatesFaultFlags(t *testing.T) {
	if err := run([]string{"-preset", "ci", "-mtbf", "50ms"}); err == nil {
		t.Fatal("expected error for -mtbf without -mttr")
	}
	if err := run([]string{"-preset", "ci", "-mttr", "5ms"}); err == nil {
		t.Fatal("expected error for -mttr without -mtbf")
	}
	if err := run([]string{"-preset", "ci", "-fault-plan", "meteor"}); err == nil {
		t.Fatal("expected error for malformed -fault-plan")
	}
	// The default star fabric has no trunks: an explicit plan must be
	// rejected upfront, before any measurement starts.
	if err := run([]string{"-preset", "ci", "-fault-plan", "down:leaf0.up0@1ms"}); err == nil {
		t.Fatal("expected error for a fault plan on the trunkless star")
	}
	// An unknown trunk label on a real fat-tree is caught upfront too.
	if err := run([]string{"-preset", "ci", "-topology", "fattree", "-leaves", "2",
		"-fault-plan", "down:leaf9.up9@1ms"}); err == nil {
		t.Fatal("expected error for an unknown trunk label")
	}
	// Non-finite degrade factors, and one whose degraded MTU serialization
	// overflows the virtual clock, are rejected upfront naming the event.
	for _, factor := range []string{"Inf", "NaN", "1e300"} {
		err := run([]string{"-preset", "ci", "-topology", "fattree", "-leaves", "2",
			"-fault-plan", "degrade:leaf0.up0@1ms:" + factor})
		if err == nil || !strings.Contains(err.Error(), "degrade:leaf0.up0@1ms:") {
			t.Fatalf("degrade factor %s: want an error naming the event, got %v", factor, err)
		}
	}
}
