package main

import (
	"bytes"
	"runtime/pprof"
	"strings"
	"testing"
	"time"

	"github.com/hpcperf/switchprobe/internal/sim"
)

// raceDetector is set when the tests run under the race detector.
var raceDetector bool

// spinSink keeps spin's loop from being optimized away.
var spinSink uint64

// spin burns CPU in this package, outside every internal package.
func spin(d time.Duration) {
	x := uint64(1)
	for end := time.Now().Add(d); time.Now().Before(end); {
		for i := 0; i < 1_000_000; i++ {
			x = x*6364136223846793005 + 1442695040888963407
		}
	}
	spinSink = x
}

// simChain burns CPU inside internal/sim: one kernel event posting the
// next until d has passed.
func simChain(d time.Duration) {
	k := sim.NewKernel(1)
	end := time.Now().Add(d)
	n := 0
	var fire func()
	fire = func() {
		n++
		if n%4096 != 0 || time.Now().Before(end) {
			k.Post(1, fire)
		}
	}
	k.Post(1, fire)
	k.Run()
}

func TestProfileAttribution(t *testing.T) {
	if raceDetector {
		t.Skip("most samples land in the race runtime's C code, which has no Go stack to attribute")
	}
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Fatal(err)
	}
	spin(400 * time.Millisecond)
	simChain(400 * time.Millisecond)
	pprof.StopCPUProfile()

	p, err := parseProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	names := map[string]bool{}
	for _, idx := range p.funcName {
		names[p.strings[idx]] = true
	}
	for _, want := range []string{
		"github.com/hpcperf/switchprobe/cmd/swbench.spin",
		"github.com/hpcperf/switchprobe/internal/sim.(*Kernel).Run",
	} {
		if !names[want] {
			t.Errorf("profile has no function %s", want)
		}
	}
	counts, err := p.bucketCounts()
	if err != nil {
		t.Fatal(err)
	}
	var total int64
	for _, n := range counts {
		total += n
	}
	if total < 20 {
		t.Fatalf("only %d samples in 0.8s of busy loops", total)
	}
	// spin has no internal frame on its stack, so it lands in "runtime";
	// the kernel loop lands in "sim".  Each ran for half the profile.
	for _, b := range []string{"runtime", "sim"} {
		if share := float64(counts[b]) / float64(total); share < 0.25 {
			t.Errorf("share.%s = %.2f of %d samples, want about half (counts %v)", b, share, total, counts)
		}
	}
}

func TestBucketOf(t *testing.T) {
	cases := map[string]string{
		"github.com/hpcperf/switchprobe/internal/netsim.(*Network).drainNic":      "netsim",
		"github.com/hpcperf/switchprobe/internal/sim.(*Kernel).Run":               "sim",
		"github.com/hpcperf/switchprobe/internal/experiments.(*Suite).Fig3.func1": "experiments",
		"github.com/hpcperf/switchprobe/internal/inject.(*Injector).run":          "other",
		"github.com/hpcperf/switchprobe/internal/report.Fig3Table":                "other",
	}
	for fn, want := range cases {
		if got, ok := bucketOf(fn); !ok || got != want {
			t.Errorf("bucketOf(%s) = %q, %v; want %q", fn, got, ok, want)
		}
	}
	for _, fn := range []string{"runtime.mallocgc", "internal/bytealg.IndexByte", "github.com/hpcperf/switchprobe/cmd/swbench.spin"} {
		if b, ok := bucketOf(fn); ok {
			t.Errorf("bucketOf(%s) = %q, want no internal package", fn, b)
		}
	}
}

func TestParseProfileRejectsCorruptInput(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Fatal(err)
	}
	spin(50 * time.Millisecond)
	pprof.StopCPUProfile()
	if _, err := parseProfile(buf.Bytes()); err != nil {
		t.Fatalf("valid profile: %v", err)
	}
	for name, data := range map[string][]byte{
		"truncated gzip":  buf.Bytes()[:buf.Len()/2],
		"bad length":      {0x12, 0x7f, 0x01},
		"bad varint":      {0x08, 0xff},
		"bad wire type":   {0x0e},
		"not a profile":   []byte(strings.Repeat("\xff", 16)),
		"truncated fixed": {0x09, 0x01},
	} {
		if _, err := parseProfile(data); err == nil {
			t.Errorf("%s: parsed without error", name)
		}
	}
}
