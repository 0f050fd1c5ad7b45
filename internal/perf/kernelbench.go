package perf

import (
	"runtime"
	"time"

	"repro/internal/simnet"
)

// KernelConfig shapes one scheduler benchmark run.
type KernelConfig struct {
	// Seed feeds the kernel; the event count is a pure function of
	// Peers and EventsPerPeer, so the seed only matters for provenance.
	Seed int64
	// Peers is the number of synthetic event chains — each stands in
	// for one simulated peer's maintenance timer.
	Peers int
	// EventsPerPeer is the chain length: how many times each peer's
	// timer fires before going quiet.
	EventsPerPeer int
}

// KernelPoint is one run of the bare simulation kernel.
type KernelPoint struct {
	// Peers and Events are deterministic: Events is exactly Peers x
	// EventsPerPeer.
	Peers  int
	Events uint64
	// EventsPerSec is how fast this host dispatched them, in wall-clock
	// time: the repository benchmark's simnet.events_per_wall_s.
	EventsPerSec float64
}

// chain is one synthetic peer: a self-rescheduling kernel callback that
// fires left more times at a fixed per-peer period. The tick function
// is package-level and the chain travels as the callback argument, so a
// steady-state reschedule allocates nothing — the benchmark measures
// the scheduler, not closure creation.
type chain struct {
	k      *simnet.Kernel
	left   int
	period time.Duration
}

func tick(x any) {
	c := x.(*chain)
	if c.left--; c.left > 0 {
		c.k.AfterCall(c.period, tick, c)
	}
}

// KernelBench boots a fresh simulation kernel, schedules cfg.Peers
// self-rescheduling event chains with deliberately co-prime periods (so
// deadlines interleave through the queue rather than marching in
// lockstep), drains the queue, and times the drain on the wall clock.
// Chains are pure AfterCall events with no processes, so the event
// count is exactly Peers x EventsPerPeer.
func KernelBench(cfg KernelConfig) KernelPoint {
	if cfg.Peers <= 0 {
		cfg.Peers = 1000
	}
	if cfg.EventsPerPeer <= 0 {
		cfg.EventsPerPeer = 10
	}
	k := simnet.New(cfg.Seed)
	defer k.Stop()

	chains := make([]chain, cfg.Peers)
	for i := range chains {
		chains[i] = chain{
			k:    k,
			left: cfg.EventsPerPeer,
			// Periods 1..17ms, skipping lockstep: neighbouring peers land
			// on different virtual instants.
			period: time.Duration(1+i%17) * time.Millisecond,
		}
	}

	// A collection first, so a previous caller's garbage is not charged
	// to the drain.
	runtime.GC()
	start := time.Now()
	for i := range chains {
		c := &chains[i]
		k.AfterCall(c.period, tick, c)
	}
	k.RunUntilIdle()
	wall := time.Since(start)

	point := KernelPoint{Peers: cfg.Peers, Events: k.Events()}
	if wall > 0 {
		point.EventsPerSec = float64(point.Events) / wall.Seconds()
	}
	return point
}
