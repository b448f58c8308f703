package telemetry

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("events_total", "events")
	c.Add(3)
	c.Inc()
	if got := c.Value(); got != 4 {
		t.Fatalf("counter = %d, want 4", got)
	}
	if c2 := r.Counter("events_total", "events"); c2 != c {
		t.Fatal("same name+labels must return the same counter")
	}
	g := r.Gauge("depth", "queue depth")
	g.Set(2.5)
	g.Add(-1)
	if got := g.Value(); got != 1.5 {
		t.Fatalf("gauge = %v, want 1.5", got)
	}
}

func TestLabeledSeriesAreDistinct(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("hits_total", "hits", "policy", "pack")
	b := r.Counter("hits_total", "hits", "policy", "spread")
	a.Add(2)
	b.Add(5)
	if a == b {
		t.Fatal("different labels must be different series")
	}
	if got := r.CounterValue("hits_total", "policy", "spread"); got != 5 {
		t.Fatalf("CounterValue = %d, want 5", got)
	}
	// Label order must not matter for identity.
	c1 := r.Counter("multi_total", "", "a", "1", "b", "2")
	c2 := r.Counter("multi_total", "", "b", "2", "a", "1")
	if c1 != c2 {
		t.Fatal("label order must not change series identity")
	}
}

func TestTypeConflictPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("x_total", "")
	defer func() {
		if recover() == nil {
			t.Fatal("re-registering a counter as a gauge must panic")
		}
	}()
	r.Gauge("x_total", "")
}

func TestHistogramCumulativeBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("latency_us", "probe latency", []float64{1, 10, 100})
	for _, v := range []float64{0.5, 0.7, 5, 50, 5000} {
		h.Observe(v)
	}
	s := h.snapshot()
	if want := []int64{2, 3, 4}; fmt.Sprint(s.Counts) != fmt.Sprint(want) {
		t.Fatalf("cumulative counts = %v, want %v", s.Counts, want)
	}
	if s.CountInf != 5 || s.Count != 5 {
		t.Fatalf("count = %d/%d, want 5/5", s.CountInf, s.Count)
	}
	if s.Sum != 0.5+0.7+5+50+5000 {
		t.Fatalf("sum = %v", s.Sum)
	}
}

func TestResetZeroesEverySeries(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("a_total", "")
	g := r.Gauge("b", "")
	h := r.Histogram("c", "", []float64{1})
	c.Add(7)
	g.Set(3)
	h.Observe(0.5)
	r.Reset()
	if c.Value() != 0 || g.Value() != 0 {
		t.Fatalf("reset left counter=%d gauge=%v", c.Value(), g.Value())
	}
	if s := h.snapshot(); s.Count != 0 || s.Sum != 0 || s.Counts[0] != 0 {
		t.Fatalf("reset left histogram %+v", s)
	}
}

func TestConcurrentUpdatesAreLossless(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("con_total", "")
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				// Get-or-create races against sibling goroutines too.
				r.Counter("con_total", "").Inc()
			}
		}()
	}
	wg.Wait()
	if got := c.Value(); got != 8000 {
		t.Fatalf("counter = %d, want 8000", got)
	}
}

func TestPrometheusExposition(t *testing.T) {
	r := NewRegistry()
	r.Counter("sim_events_total", "Events fired", "kind", "fired").Add(12)
	r.Gauge("load", "Current load").Set(0.75)
	r.Histogram("lat_us", "Latency", []float64{1, 10}, "leaf", "0").Observe(3)
	var b bytes.Buffer
	if err := WritePrometheus(&b, r); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# HELP sim_events_total Events fired",
		"# TYPE sim_events_total counter",
		`sim_events_total{kind="fired"} 12`,
		"# TYPE load gauge",
		"load 0.75",
		"# TYPE lat_us histogram",
		`lat_us_bucket{leaf="0",le="1"} 0`,
		`lat_us_bucket{leaf="0",le="10"} 1`,
		`lat_us_bucket{leaf="0",le="+Inf"} 1`,
		`lat_us_sum{leaf="0"} 3`,
		`lat_us_count{leaf="0"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q in:\n%s", want, out)
		}
	}
	// Every non-comment line must be "name{labels} value" with a parseable
	// value — the shape the obs-smoke CI validator checks too.
	for _, line := range strings.Split(strings.TrimSpace(out), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 2 {
			t.Fatalf("malformed exposition line %q", line)
		}
	}
}

func TestTraceExport(t *testing.T) {
	var buf bytes.Buffer
	StartTrace(&buf, 2)
	defer func() { _ = StopTrace() }()
	pid := NextTracePid()
	EmitProcessName(pid, "scenario fattree")
	EmitThreadName(pid, 3, "leaf 3")
	EmitSpan("sched", "j01-FFTW", pid, 3, 1_000, 2_500, map[string]any{"stretch": 1.2})
	EmitInstant("fault", "down leaf0.up0", pid, 0, 2_000, nil)
	// Two simulations' samplers count independently: each keeps its own 2nd,
	// 4th, ... event however their calls interleave.
	var a, b Sampler
	var keptA, keptB []int
	for i := 1; i <= 10; i++ {
		if a.Hit() {
			keptA = append(keptA, i)
			EmitInstant("net", "deliver", pid, 1, int64(i)*100, nil)
		}
		if i%3 == 0 && b.Hit() {
			keptB = append(keptB, i)
		}
	}
	if fmt.Sprint(keptA) != "[2 4 6 8 10]" || fmt.Sprint(keptB) != "[6]" {
		t.Fatalf("sampling 1/2 kept calls %v and %v, want [2 4 6 8 10] and [6]", keptA, keptB)
	}
	if err := StopTrace(); err != nil {
		t.Fatal(err)
	}
	if TraceEnabled() {
		t.Fatal("trace still enabled after StopTrace")
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("trace output is not valid JSON: %v", err)
	}
	if len(doc.TraceEvents) != 2+2+5 {
		t.Fatalf("trace has %d events, want 9", len(doc.TraceEvents))
	}
	span := doc.TraceEvents[2]
	if span["ph"] != "X" || span["ts"].(float64) != 1.0 || span["dur"].(float64) != 2.5 {
		t.Fatalf("span event malformed: %v", span)
	}
}

func TestTraceDisabledIsCheap(t *testing.T) {
	if TraceEnabled() {
		t.Fatal("trace enabled with no active tracer")
	}
	var s Sampler
	if s.Hit() {
		t.Fatal("sample hit with no active tracer")
	}
	// Emissions without an active tracer must be silent no-ops.
	EmitInstant("x", "y", 1, 1, 0, nil)
}

func TestServerEndpoints(t *testing.T) {
	r := NewRegistry()
	r.Counter("swprobe_kernel_events_fired_total", "").Add(42)
	p := &Progress{}
	p.Start()
	p.SetPhase("table1")
	p.AddPlanned(10)
	p.MarkDone()
	s, err := NewServer("127.0.0.1:0", r, p)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	get := func(path string) string {
		resp, err := http.Get("http://" + s.Addr() + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return string(body)
	}

	metrics := get("/metrics")
	if !strings.Contains(metrics, "swprobe_kernel_events_fired_total 42") {
		t.Fatalf("/metrics missing counter:\n%s", metrics)
	}
	var snap ProgressSnapshot
	if err := json.Unmarshal([]byte(get("/progress")), &snap); err != nil {
		t.Fatalf("/progress is not JSON: %v", err)
	}
	if snap.Phase != "table1" || snap.TasksPlanned != 10 || snap.TasksDone != 1 {
		t.Fatalf("/progress = %+v", snap)
	}
	if snap.EventsFired != 42 {
		t.Fatalf("/progress events = %d, want 42", snap.EventsFired)
	}
	if !strings.Contains(get("/debug/pprof/"), "profile") {
		t.Fatal("/debug/pprof index not served")
	}
}

// FuzzPrometheusEscaping renders a counter with an arbitrary label value and
// help text and parses the exposition back: every series stays on one line,
// the HELP line appears only for a non-empty help, and unescaping the HELP
// text and the quoted label value recovers the inputs byte for byte.
func FuzzPrometheusEscaping(f *testing.F) {
	f.Fuzz(func(t *testing.T, value, help string) {
		r := NewRegistry()
		r.Counter("fuzz_total", help, "policy", value).Add(2)
		var b bytes.Buffer
		if err := WritePrometheus(&b, r); err != nil {
			t.Fatal(err)
		}
		lines := strings.Split(strings.TrimSuffix(b.String(), "\n"), "\n")
		want := 2
		if help != "" {
			want = 3
			const pre = "# HELP fuzz_total "
			if got, ok := unescapeExposition(strings.TrimPrefix(lines[0], pre), false); !strings.HasPrefix(lines[0], pre) || !ok || got != help {
				t.Fatalf("help %q rendered as %q", help, lines[0])
			}
		}
		if len(lines) != want {
			t.Fatalf("value %q, help %q: %d exposition lines, want %d:\n%s", value, help, len(lines), want, b.String())
		}
		const pre, suf = `fuzz_total{policy="`, `"} 2`
		sample := lines[want-1]
		if !strings.HasPrefix(sample, pre) || !strings.HasSuffix(sample, suf) || len(sample) < len(pre)+len(suf) {
			t.Fatalf("value %q: malformed sample line %q", value, sample)
		}
		if got, ok := unescapeExposition(sample[len(pre):len(sample)-len(suf)], true); !ok || got != value {
			t.Fatalf("label value %q rendered as %q", value, sample)
		}
	})
}

// unescapeExposition reverses the text format's escaping: \\ and \n, plus \"
// inside a quoted label value.  It reports false on a dangling or unknown
// escape and, for label values, on an unescaped double quote.
func unescapeExposition(s string, label bool) (string, bool) {
	var b strings.Builder
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c == '"' && label {
			return "", false
		}
		if c != '\\' {
			b.WriteByte(c)
			continue
		}
		if i++; i == len(s) {
			return "", false
		}
		switch {
		case s[i] == '\\':
			b.WriteByte('\\')
		case s[i] == 'n':
			b.WriteByte('\n')
		case s[i] == '"' && label:
			b.WriteByte('"')
		default:
			return "", false
		}
	}
	return b.String(), true
}
