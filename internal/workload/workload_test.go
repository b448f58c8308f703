package workload

import (
	"testing"
	"testing/quick"

	"github.com/hpcperf/switchprobe/internal/cluster"
	"github.com/hpcperf/switchprobe/internal/mpisim"
	"github.com/hpcperf/switchprobe/internal/sim"
)

// runApp executes iters iterations of app on a small machine and returns the
// virtual completion time and the bytes its traffic pushed through the
// switch.
func runApp(t testing.TB, app App, nodes, iters int) (sim.Duration, int64) {
	t.Helper()
	k := sim.NewKernel(42)
	cfg := cluster.CabConfig()
	cfg.Net.Nodes = nodes
	m := cluster.MustNew(k, cfg)
	rps, use := app.Placement(nodes)
	job, err := m.AllocateSpread(app.Name(), rps, use)
	if err != nil {
		t.Fatal(err)
	}
	w, err := mpisim.NewWorld(m, job, mpisim.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	w.LaunchProgram(iterations(app, iters))
	k.Run()
	if !w.Done() {
		t.Fatalf("%s did not finish", app.Name())
	}
	at, _ := w.CompletionTime()
	return sim.Duration(at), m.Network().Stats().BytesByClass[app.Name()]
}

// iterations is the Program that runs iters iterations of app on every rank.
func iterations(app App, iters int) mpisim.Program {
	return func(r *mpisim.Rank, done mpisim.Cont) {
		i := 0
		var loop mpisim.Cont
		loop = func() {
			if i == iters {
				r.Continue(done)
				return
			}
			i++
			app.IterateThen(r, i-1, loop)
		}
		loop()
	}
}

func TestRegistryNamesAndOrder(t *testing.T) {
	apps := Registry(Reduced(0.1))
	want := Names()
	if len(apps) != 6 || len(want) != 6 {
		t.Fatalf("registry size = %d", len(apps))
	}
	for i, a := range apps {
		if a.Name() != want[i] {
			t.Fatalf("registry[%d] = %s, want %s", i, a.Name(), want[i])
		}
	}
}

func TestByName(t *testing.T) {
	for _, name := range Names() {
		a, err := ByName(name, FullScale)
		if err != nil {
			t.Fatal(err)
		}
		if a.Name() != name {
			t.Fatalf("ByName(%q).Name() = %q", name, a.Name())
		}
	}
	if _, err := ByName("nosuchapp", FullScale); err == nil {
		t.Fatal("expected error for unknown app")
	}
}

func TestScaleHelpers(t *testing.T) {
	s := Scale{}.valid()
	if s.Volume != 1 || s.Compute != 1 {
		t.Fatalf("invalid scale not clamped: %+v", s)
	}
	r := Reduced(0.25)
	if r.Volume != 0.25 || r.Compute != 0.5 {
		t.Fatalf("Reduced = %+v (compute should shrink as sqrt of volume)", r)
	}
	if Reduced(-1) != FullScale || Reduced(0) != FullScale {
		t.Fatal("non-positive factors should fall back to full scale")
	}
	if Reduced(5).Volume != 1 {
		t.Fatal("factors above 1 should clamp to full scale volume")
	}
	if r.bytes(4) != 1 {
		t.Fatalf("bytes(4) at 0.25 = %d, want 1", r.bytes(4))
	}
	if Reduced(0.0001).bytes(10) != 1 {
		t.Fatal("bytes should clamp to at least 1")
	}
	if FullScale.compute(100) != 100*sim.Microsecond {
		t.Fatalf("compute(100µs) = %v", FullScale.compute(100))
	}
}

func TestPlacements(t *testing.T) {
	const nodes = 18
	for _, a := range Registry(FullScale) {
		rps, use := a.Placement(nodes)
		switch a.Name() {
		case "Lulesh":
			if rps != 2 || use != 16 {
				t.Errorf("Lulesh placement = %d/%d, want 2/16", rps, use)
			}
		default:
			if rps != 4 || use != 18 {
				t.Errorf("%s placement = %d/%d, want 4/18", a.Name(), rps, use)
			}
		}
	}
	// Lulesh placement degenerates gracefully on tiny machines.
	l := NewLulesh(FullScale)
	if _, use := l.Placement(2); use != 2 {
		t.Errorf("Lulesh on 2 nodes should use both, got %d", use)
	}
}

func TestGridNeighbors(t *testing.T) {
	const size = 64
	for rank := 0; rank < size; rank++ {
		nbs := gridNeighbors(rank, size, 3)
		if len(nbs) == 0 || len(nbs) > 6 {
			t.Fatalf("rank %d: %d neighbors", rank, len(nbs))
		}
		seen := map[int]bool{}
		for _, nb := range nbs {
			if nb < 0 || nb >= size {
				t.Fatalf("rank %d: neighbor %d out of range", rank, nb)
			}
			if nb == rank {
				t.Fatalf("rank %d: neighbor is self", rank)
			}
			seen[nb] = true
		}
	}
	// Degenerate world of 2 ranks still has a neighbor.
	if nbs := gridNeighbors(0, 2, 3); len(nbs) == 0 {
		t.Fatal("no neighbors in a 2-rank world")
	}
}

func TestGridNeighborsSymmetric(t *testing.T) {
	// If b is a neighbor of a, then a must be a neighbor of b (needed so the
	// halo exchange sends and receives match up).
	const size = 48
	neighborSet := func(rank int) map[int]bool {
		out := map[int]bool{}
		for _, nb := range gridNeighbors(rank, size, 4) {
			out[nb] = true
		}
		return out
	}
	sets := make([]map[int]bool, size)
	for rank := 0; rank < size; rank++ {
		sets[rank] = neighborSet(rank)
	}
	for a := 0; a < size; a++ {
		for b := range sets[a] {
			if !sets[b][a] {
				t.Fatalf("asymmetric neighborship: %d -> %d but not back", a, b)
			}
		}
	}
}

func TestFactorGridProduct(t *testing.T) {
	cases := []struct{ n, dims int }{
		{64, 3}, {144, 3}, {144, 4}, {48, 3}, {7, 2}, {1, 3}, {100, 2},
	}
	for _, c := range cases {
		shape := factorGrid(c.n, c.dims)
		prod := 1
		for _, s := range shape {
			if s < 1 {
				t.Fatalf("factorGrid(%d,%d) has non-positive factor: %v", c.n, c.dims, shape)
			}
			prod *= s
		}
		if prod != c.n {
			t.Fatalf("factorGrid(%d,%d) = %v, product %d", c.n, c.dims, shape, prod)
		}
	}
}

func TestFactorGridProperty(t *testing.T) {
	prop := func(nRaw, dimsRaw uint8) bool {
		n := int(nRaw)%200 + 1
		dims := int(dimsRaw)%4 + 1
		shape := factorGrid(n, dims)
		prod := 1
		for _, s := range shape {
			if s < 1 {
				return false
			}
			prod *= s
		}
		return prod == n && len(shape) == dims
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestRankCoordsRoundTrip(t *testing.T) {
	shape := []int{4, 3, 2}
	for rank := 0; rank < 24; rank++ {
		coords := rankToCoords(rank, shape)
		if got := coordsToRank(coords, shape); got != rank {
			t.Fatalf("round trip failed for rank %d: coords=%v got=%d", rank, coords, got)
		}
	}
}

func TestEveryAppRunsToCompletion(t *testing.T) {
	if testing.Short() {
		t.Skip("application runs are slow in -short mode")
	}
	for _, app := range Registry(Reduced(0.1)) {
		app := app
		t.Run(app.Name(), func(t *testing.T) {
			elapsed, bytes := runApp(t, app, 4, 3)
			if elapsed <= 0 {
				t.Fatalf("%s: non-positive elapsed time", app.Name())
			}
			if bytes <= 0 {
				t.Fatalf("%s: no switch traffic at all", app.Name())
			}
		})
	}
}

func TestCommunicationIntensityOrdering(t *testing.T) {
	if testing.Short() {
		t.Skip("application runs are slow in -short mode")
	}
	// FFTW must push far more bytes through the switch per unit of runtime
	// than MCB; this ordering is what drives the paper's Figure 7.
	scale := Reduced(0.1)
	elapsedFFTW, bytesFFTW := runApp(t, NewFFTW(scale), 4, 3)
	elapsedMCB, bytesMCB := runApp(t, NewMCB(scale), 4, 3)
	rateFFTW := float64(bytesFFTW) / elapsedFFTW.Seconds()
	rateMCB := float64(bytesMCB) / elapsedMCB.Seconds()
	if rateFFTW < 5*rateMCB {
		t.Fatalf("FFTW switch-byte rate (%.3g B/s) not clearly above MCB (%.3g B/s)", rateFFTW, rateMCB)
	}
}

func TestVPFFTComputeVariesAcrossIterations(t *testing.T) {
	if testing.Short() {
		t.Skip("application runs are slow in -short mode")
	}
	// Run two different iteration counts and check per-iteration time is not
	// constant (the oscillation the paper reports for VPFFT).
	app := NewVPFFT(Reduced(0.1))
	e3, _ := runApp(t, app, 2, 3)
	e6, _ := runApp(t, app, 2, 6)
	perIterFirst := float64(e3) / 3
	perIterSecond := float64(e6-e3) / 3
	if perIterFirst == perIterSecond {
		t.Fatal("VPFFT iterations are perfectly uniform; expected variation")
	}
}

func TestAMGDensePhase(t *testing.T) {
	if testing.Short() {
		t.Skip("application runs are slow in -short mode")
	}
	// With the dense phase enabled every iteration, runtime must grow
	// substantially compared to the same model without dense phases.
	scale := Reduced(0.1)
	base := NewAMG(scale)
	base.DensePhaseInterval = 0
	dense := NewAMG(scale)
	dense.DensePhaseInterval = 1
	eBase, _ := runApp(t, base, 2, 4)
	eDense, _ := runApp(t, dense, 2, 4)
	if eDense <= eBase {
		t.Fatalf("dense phases should lengthen iterations: base=%v dense=%v", eBase, eDense)
	}
}

func TestScaleReducesTraffic(t *testing.T) {
	if testing.Short() {
		t.Skip("application runs are slow in -short mode")
	}
	_, big := runApp(t, NewMILC(Reduced(0.5)), 2, 2)
	_, small := runApp(t, NewMILC(Reduced(0.05)), 2, 2)
	if small >= big {
		t.Fatalf("reduced scale should reduce traffic: %d vs %d", small, big)
	}
}

func BenchmarkFFTWIteration(b *testing.B) {
	k := sim.NewKernel(1)
	cfg := cluster.CabConfig()
	cfg.Net.Nodes = 4
	m := cluster.MustNew(k, cfg)
	app := NewFFTW(Reduced(0.1))
	job, err := m.AllocateSpread(app.Name(), 4, 4)
	if err != nil {
		b.Fatal(err)
	}
	w := mpisim.MustNewWorld(m, job, mpisim.DefaultConfig())
	w.LaunchProgram(iterations(app, b.N))
	b.ResetTimer()
	k.Run()
}
