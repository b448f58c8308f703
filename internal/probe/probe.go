// Package probe implements ImpactB, the paper's light-weight active probe
// (Fig. 2): pairs of processes on neighbouring nodes exchange 1 KB ping-pong
// messages through the switch, separated by long pauses so the probe itself
// does not perturb the measured application.  The observed one-way latencies
// (half the round-trip time) sample the switch capability left available by
// whatever else is running.
package probe

import (
	"fmt"

	"github.com/hpcperf/switchprobe/internal/cluster"
	"github.com/hpcperf/switchprobe/internal/mpisim"
	"github.com/hpcperf/switchprobe/internal/sim"
	"github.com/hpcperf/switchprobe/internal/stats"
)

// JobName is the job/flow class name under which ImpactB traffic appears.
const JobName = "impact"

// Config parameterizes the probe.
type Config struct {
	// MessageBytes is the ping-pong message size; 1 KB in the paper so each
	// message is a single switch packet.
	MessageBytes int
	// Pause separates consecutive ping-pong exchanges.  The paper uses
	// 100 ms over minutes-long runs; simulated measurement windows are tens
	// of milliseconds, so the default pause is proportionally shorter while
	// keeping the probe load far below 1% of link capacity.
	Pause sim.Duration
	// RanksPerSocket is the number of probe processes per socket (1 in the
	// paper, i.e. 2 per node).
	RanksPerSocket int
	// Tag is the message tag used by probe traffic.
	Tag int
}

// DefaultConfig returns the paper-faithful probe configuration adapted to
// simulated time windows.
func DefaultConfig() Config {
	return Config{
		MessageBytes:   1024,
		Pause:          200 * sim.Microsecond,
		RanksPerSocket: 1,
		Tag:            1,
	}
}

// Validate reports whether the configuration is usable.
func (c Config) Validate() error {
	if c.MessageBytes <= 0 {
		return fmt.Errorf("probe: non-positive message size %d", c.MessageBytes)
	}
	if c.Pause < 0 {
		return fmt.Errorf("probe: negative pause %v", c.Pause)
	}
	if c.RanksPerSocket <= 0 {
		return fmt.Errorf("probe: non-positive ranks per socket %d", c.RanksPerSocket)
	}
	return nil
}

// Collector accumulates probe latency samples (seconds).
type Collector struct {
	latencies []float64
	times     []sim.Time
}

// add records one one-way latency observed at time at.
func (c *Collector) add(at sim.Time, latency sim.Duration) {
	c.latencies = append(c.latencies, latency.Seconds())
	c.times = append(c.times, at)
}

// Count returns the number of samples collected.
func (c *Collector) Count() int { return len(c.latencies) }

// Times returns the virtual time at which each sample was taken, aligned with
// Latencies.
func (c *Collector) Times() []sim.Time {
	return append([]sim.Time(nil), c.times...)
}

// Latencies returns the collected one-way latencies in seconds.
func (c *Collector) Latencies() []float64 {
	return append([]float64(nil), c.latencies...)
}

// LatenciesMicros returns the collected one-way latencies in microseconds,
// the unit used in the paper's figures.
func (c *Collector) LatenciesMicros() []float64 {
	out := make([]float64, len(c.latencies))
	for i, l := range c.latencies {
		out[i] = l * 1e6
	}
	return out
}

// Summary returns descriptive statistics of the latencies (seconds).
func (c *Collector) Summary() stats.Summary { return stats.Summarize(c.latencies) }

// Histogram bins the latencies (in microseconds) over [loMicros, hiMicros).
func (c *Collector) Histogram(loMicros, hiMicros float64, bins int) (*stats.Histogram, error) {
	h, err := stats.NewHistogram(loMicros, hiMicros, bins)
	if err != nil {
		return nil, err
	}
	h.AddAll(c.LatenciesMicros())
	return h, nil
}

// Probe is a running ImpactB instance.
type Probe struct {
	cfg       Config
	job       *cluster.Job
	world     *mpisim.World
	collector *Collector
}

// Job returns the core allocation of the probe.
func (p *Probe) Job() *cluster.Job { return p.job }

// Collector returns the probe's sample collector.
func (p *Probe) Collector() *Collector { return p.collector }

// World returns the probe's message-passing world.
func (p *Probe) World() *mpisim.World { return p.world }

// Launch allocates ImpactB's cores (RanksPerSocket per socket on every node),
// builds its world and starts the ping-pong loops.  The loops run until the
// kernel's measurement window ends (the caller stops them via
// Kernel.Shutdown).
func Launch(m *cluster.Machine, mpiCfg mpisim.Config, cfg Config) (*Probe, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	nodes := m.Config().Nodes()
	job, err := m.AllocateSpread(JobName, cfg.RanksPerSocket, nodes)
	if err != nil {
		return nil, fmt.Errorf("probe: allocating cores: %w", err)
	}
	world, err := mpisim.NewWorld(m, job, mpiCfg)
	if err != nil {
		m.Release(job)
		return nil, err
	}
	p := &Probe{cfg: cfg, job: job, world: world, collector: &Collector{}}
	tasksPerNode := cfg.RanksPerSocket * m.Config().SocketsPerNode
	world.LaunchProgram(func(r *mpisim.Rank, _ mpisim.Cont) {
		p.run(r, tasksPerNode, nodes)
	})
	return p, nil
}

// run is the per-rank ImpactB loop, a direct transcription of the paper's
// pseudo-code: even nodes initiate a ping-pong with the same core on the next
// node, odd nodes answer, and each exchange is followed by a pause.  The
// loops never terminate (the caller stops them via Kernel.Shutdown), so the
// program's done continuation is never invoked.
func (p *Probe) run(r *mpisim.Rank, tasksPerNode, nodes int) {
	size := r.Size()
	myNode := r.Rank() / tasksPerNode
	isInitiator := myNode%2 == 0 && myNode != nodes-1
	isResponder := myNode%2 == 1
	switch {
	case isInitiator:
		partner := (r.Rank() + tasksPerNode) % size
		var start sim.Time
		var loop, measured mpisim.Cont
		loop = func() {
			start = r.Now()
			sreq := r.Isend(partner, p.cfg.Tag, p.cfg.MessageBytes)
			rreq := r.Irecv(partner, p.cfg.Tag)
			r.WaitAllThen(measured, sreq, rreq)
		}
		measured = func() {
			rtt := r.Now().Sub(start)
			p.collector.add(r.Now(), rtt/2)
			r.SleepThen(p.cfg.Pause, loop)
		}
		loop()
	case isResponder:
		// The responder answers each ping only after it arrives, so the
		// initiator's elapsed time covers two serialized one-way traversals
		// and elapsed/2 is the one-way packet latency.
		partner := (r.Rank() - tasksPerNode + size) % size
		var loop, reply mpisim.Cont
		loop = func() { r.RecvThen(partner, p.cfg.Tag, reply) }
		reply = func() { r.SendThen(partner, p.cfg.Tag, p.cfg.MessageBytes, loop) }
		loop()
	default:
		// Unpaired node (odd node count): stay idle.
		var loop mpisim.Cont
		loop = func() { r.SleepThen(time100ms, loop) }
		loop()
	}
}

// time100ms is the idle-loop granularity of unpaired probe ranks.
const time100ms = 100 * sim.Millisecond
