package engine

import (
	"encoding/json"
	"errors"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"github.com/hpcperf/switchprobe/internal/core"
	"github.com/hpcperf/switchprobe/internal/inject"
	"github.com/hpcperf/switchprobe/internal/workload"
)

// testOptions returns the small 6-node CI options every engine test runs
// with, so live simulations stay fast.
func testOptions() core.Options { return core.TestOptions() }

// jsonBlobs lists every artifact blob under a cache directory.
func jsonBlobs(t *testing.T, dir string) []string {
	t.Helper()
	var files []string
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() && strings.HasSuffix(path, ".json") {
			files = append(files, path)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return files
}

// TestStoreRoundTrip is the persistence fidelity test: an artifact loaded by
// a fresh engine (fresh process, as far as the store can tell) must be
// deeply identical to the one the simulation produced, including histogram
// bins, per-sample latencies and phase windows.
func TestStoreRoundTrip(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real measurements; skipped in -short mode")
	}
	dir := t.TempDir()
	o := testOptions()
	e1 := MustNew(dir)
	cal1, err := e1.Calibration(o)
	if err != nil {
		t.Fatal(err)
	}
	if st := e1.Stats(); st.Simulated != 1 || st.Stored != 1 {
		t.Fatalf("cold stats = %+v", st)
	}
	if n := len(jsonBlobs(t, dir)); n != 1 {
		t.Fatalf("store holds %d blobs, want 1", n)
	}

	e2 := MustNew(dir)
	cal2, err := e2.Calibration(o)
	if err != nil {
		t.Fatal(err)
	}
	if st := e2.Stats(); st.DiskHits != 1 || st.Simulated != 0 {
		t.Fatalf("warm stats = %+v", st)
	}
	if !reflect.DeepEqual(cal1, cal2) {
		t.Fatal("calibration artifact not identical after disk round-trip")
	}

	// The same engine serves repeats from memory.
	if _, err := e2.Calibration(o); err != nil {
		t.Fatal(err)
	}
	if st := e2.Stats(); st.MemoryHits != 1 {
		t.Fatalf("repeat not served from memory: %+v", st)
	}
}

// TestCorruptArtifactFallsBack: a truncated/garbage blob must be counted,
// fall back to a live simulation and be repaired in place.
func TestCorruptArtifactFallsBack(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real measurements; skipped in -short mode")
	}
	dir := t.TempDir()
	o := testOptions()
	e1 := MustNew(dir)
	cal1, err := e1.Calibration(o)
	if err != nil {
		t.Fatal(err)
	}
	blobs := jsonBlobs(t, dir)
	if len(blobs) != 1 {
		t.Fatalf("store holds %d blobs, want 1", len(blobs))
	}
	if err := os.WriteFile(blobs[0], []byte("{definitely not json"), 0o644); err != nil {
		t.Fatal(err)
	}

	e2 := MustNew(dir)
	cal2, err := e2.Calibration(o)
	if err != nil {
		t.Fatalf("corrupt blob should fall back to simulation, got %v", err)
	}
	st := e2.Stats()
	if st.LoadErrors != 1 || st.Simulated != 1 || st.DiskHits != 0 {
		t.Fatalf("fallback stats = %+v", st)
	}
	if !reflect.DeepEqual(cal1, cal2) {
		t.Fatal("re-simulated artifact differs from the original")
	}

	// The rewrite repaired the store: a third engine hits disk again.
	e3 := MustNew(dir)
	if _, err := e3.Calibration(o); err != nil {
		t.Fatal(err)
	}
	if st := e3.Stats(); st.DiskHits != 1 {
		t.Fatalf("store not repaired: %+v", st)
	}
}

// TestMemoryOnlyEngine: with caching disabled the engine simulates live,
// writes nothing, and still memoizes in-process.
func TestMemoryOnlyEngine(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real measurements; skipped in -short mode")
	}
	e := MustNew("")
	if e.Persistent() {
		t.Fatal("memory-only engine claims persistence")
	}
	if e.StoreDir() != "" {
		t.Fatalf("memory-only engine has store dir %q", e.StoreDir())
	}
	o := testOptions()
	if _, err := e.Calibration(o); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Calibration(o); err != nil {
		t.Fatal(err)
	}
	st := e.Stats()
	if st.Simulated != 1 || st.MemoryHits != 1 || st.Stored != 0 || st.DiskHits != 0 {
		t.Fatalf("memory-only stats = %+v", st)
	}
}

// TestSingleflightDeduplication: concurrent identical specs run one
// simulation; everyone gets the same artifact.
func TestSingleflightDeduplication(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real measurements; skipped in -short mode")
	}
	e := MustNew("")
	o := testOptions()
	const n = 8
	cals := make([]core.Calibration, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			cals[i], errs[i] = e.Calibration(o)
		}(i)
	}
	wg.Wait()
	for i := 0; i < n; i++ {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		if !reflect.DeepEqual(cals[0], cals[i]) {
			t.Fatalf("goroutine %d got a different artifact", i)
		}
	}
	if st := e.Stats(); st.Simulated != 1 {
		t.Fatalf("%d simulations for one spec: %+v", st.Simulated, st)
	}
}

// TestEngineResolvesCalibrationDependency: an impact request on a cold
// engine runs (and caches) the calibration it depends on.
func TestEngineResolvesCalibrationDependency(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real measurements; skipped in -short mode")
	}
	e := MustNew("")
	o := testOptions()
	sig, err := e.InjectorImpact(o, inject.NewConfig(1, 1, 2.5e4))
	if err != nil {
		t.Fatal(err)
	}
	if sig.UtilizationPct <= 0 {
		t.Fatalf("injector utilization = %v, want > 0", sig.UtilizationPct)
	}
	// calibrate + injector impact.
	if st := e.Stats(); st.Simulated != 2 {
		t.Fatalf("stats = %+v, want 2 simulated", st)
	}
	// A direct calibration request now hits memory.
	if _, err := e.Calibration(o); err != nil {
		t.Fatal(err)
	}
	if st := e.Stats(); st.MemoryHits != 1 {
		t.Fatalf("calibration dependency not cached: %+v", st)
	}
}

// TestBuildProfileFromCache: BuildProfile on a warm engine performs no new
// simulations and produces one point per grid configuration.
func TestBuildProfileFromCache(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real measurements; skipped in -short mode")
	}
	e := MustNew("")
	o := testOptions()
	grid := inject.ReducedGrid()[:2]
	app, err := workload.ByName("FFTW", o.Scale)
	if err != nil {
		t.Fatal(err)
	}
	prof, err := e.BuildProfile(o, app, grid, core.SlotAll)
	if err != nil {
		t.Fatal(err)
	}
	if len(prof.Points) != len(grid) {
		t.Fatalf("profile has %d points, want %d", len(prof.Points), len(grid))
	}
	cold := e.Stats()
	prof2, err := e.BuildProfile(o, app, grid, core.SlotAll)
	if err != nil {
		t.Fatal(err)
	}
	warm := e.Stats()
	if warm.Simulated != cold.Simulated {
		t.Fatalf("warm BuildProfile simulated %d new runs", warm.Simulated-cold.Simulated)
	}
	if !reflect.DeepEqual(prof, prof2) {
		t.Fatal("warm profile differs from cold profile")
	}
}

func TestParallelBoundsWorkersAndJoinsErrors(t *testing.T) {
	var cur, peak atomic.Int64
	boom := errors.New("boom")
	err := Parallel(32, 4,
		func(i int) string { return "job" },
		func(i int) error {
			n := cur.Add(1)
			for {
				p := peak.Load()
				if n <= p || peak.CompareAndSwap(p, n) {
					break
				}
			}
			defer cur.Add(-1)
			if i%8 == 0 {
				return boom
			}
			return nil
		})
	if peak.Load() > 4 {
		t.Fatalf("worker pool peaked at %d concurrent tasks, want <= 4", peak.Load())
	}
	if !errors.Is(err, boom) {
		t.Fatalf("error not propagated: %v", err)
	}
	if got := strings.Count(err.Error(), "boom"); got != 4 {
		t.Fatalf("joined error reports %d failures, want 4:\n%v", got, err)
	}
	if err := Parallel(0, 4, nil, func(int) error { return errors.New("never") }); err != nil {
		t.Fatalf("zero tasks should succeed: %v", err)
	}
}

// TestStatsString: the one-line summary carries the warm-campaign signal.
func TestStatsString(t *testing.T) {
	s := Stats{MemoryHits: 2, DiskHits: 3, Simulated: 0}
	if got := s.String(); !strings.Contains(got, "0 simulated") {
		t.Fatalf("warm stats line missing zero-simulations signal: %q", got)
	}
	s = Stats{Simulated: 5, Deduped: 1, LoadErrors: 2}
	line := s.String()
	for _, want := range []string{"5 simulated", "1 deduplicated", "2 load errors"} {
		if !strings.Contains(line, want) {
			t.Fatalf("stats line %q missing %q", line, want)
		}
	}
}

// TestUnusableCacheDirDegradesToMemory pins the open-path fallback: a cache
// directory that cannot be created (here: a path through a regular file,
// which fails even for root) must not fail the campaign — the engine comes
// up memory-only and measures live.
func TestUnusableCacheDirDegradesToMemory(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real measurements; skipped in -short mode")
	}
	blocker := filepath.Join(t.TempDir(), "not-a-dir")
	if err := os.WriteFile(blocker, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	e, err := New(filepath.Join(blocker, "cache"))
	if err != nil {
		t.Fatalf("an unusable cache dir must degrade, not fail: %v", err)
	}
	if e.Persistent() {
		t.Fatal("engine claims persistence behind an unusable directory")
	}
	if _, err := e.Calibration(testOptions()); err != nil {
		t.Fatal(err)
	}
	if st := e.Stats(); st.Simulated != 1 || st.Stored != 0 {
		t.Fatalf("memory-only fallback stats = %+v", st)
	}
}

// TestUnwritableStoreFallsBackToLiveResults pins the write-path fallback: a
// store that opens fine but cannot persist (the blob's fan-out directory is
// blocked by a regular file) still returns every artifact, counting the
// failed persist instead of surfacing it.
func TestUnwritableStoreFallsBackToLiveResults(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real measurements; skipped in -short mode")
	}
	dir := t.TempDir()
	e := MustNew(dir)
	o := testOptions()
	hash := core.CalibrateSpec(o).Hash()
	// Block the fan-out subdirectory with a file; MkdirAll then fails with
	// ENOTDIR regardless of privileges (chmod-based read-only dirs are
	// bypassed by root, which CI containers run as).
	if err := os.WriteFile(filepath.Join(e.StoreDir(), hash[:2]), []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	cal, err := e.Calibration(o)
	if err != nil {
		t.Fatalf("a read-only store must not fail the run: %v", err)
	}
	if cal.Idle.Mean <= 0 {
		t.Fatalf("live result incomplete: %+v", cal.Idle)
	}
	st := e.Stats()
	if st.Simulated != 1 || st.Stored != 0 || st.StoreErrors != 1 {
		t.Fatalf("write-path fallback stats = %+v", st)
	}
	// The result is still memoized in-process: a second request costs
	// nothing and never touches the broken store again.
	if _, err := e.Calibration(o); err != nil {
		t.Fatal(err)
	}
	if st := e.Stats(); st.MemoryHits != 1 || st.StoreErrors != 1 {
		t.Fatalf("post-fallback memoization stats = %+v", st)
	}
}

// FuzzStoreLoad writes arbitrary bytes as the stored blob of one hash and
// loads it under an arbitrary kind.  Load must never panic; it serves the
// blob only when it decodes to a complete artifact of the store's schema and
// the requested kind, and otherwise returns (zero, false, err) so the engine
// counts the corruption and re-simulates.  The checked-in corpus holds
// corrupt, truncated, wrong-kind, wrong-schema and incomplete blobs; the
// seeds added here track the current schema.
func FuzzStoreLoad(f *testing.F) {
	valid, err := json.Marshal(envelope{
		Schema:   core.SpecVersion(),
		Kind:     string(core.RunBaseline),
		Spec:     "kind=baseline\n",
		Artifact: core.Artifact{Runtime: &core.Runtime{App: "FFTW", Iterations: 3, TimePerIteration: 1500}},
	})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid, string(core.RunBaseline))
	f.Add(valid[:len(valid)-2], string(core.RunBaseline))
	const hash = "00abababababababababababababababababababababababababababababababab"
	f.Fuzz(func(t *testing.T, blob []byte, kind string) {
		s, err := OpenStore(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		path := s.path(hash)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, blob, 0o644); err != nil {
			t.Fatal(err)
		}
		art, ok, err := s.Load(hash, core.RunKind(kind))
		var env envelope
		servable := json.Unmarshal(blob, &env) == nil && env.Schema == core.SpecVersion() &&
			env.Kind == kind && env.Artifact.Complete(core.RunKind(kind))
		switch {
		case ok != servable:
			t.Fatalf("Load(kind %q) ok = %v, want %v (err %v) for blob %q", kind, ok, servable, err, blob)
		case ok && (err != nil || !reflect.DeepEqual(art, env.Artifact)):
			t.Fatalf("served blob %q as %+v, err %v; want %+v", blob, art, err, env.Artifact)
		case !ok && (err == nil || !reflect.DeepEqual(art, core.Artifact{})):
			t.Fatalf("rejected blob %q returned (%+v, false, %v), want (zero, false, err)", blob, art, err)
		}
	})
}
