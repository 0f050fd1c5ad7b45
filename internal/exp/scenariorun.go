package exp

import (
	"math/rand"

	"repro/internal/network"
	"repro/internal/network/simwire"
	"repro/internal/scenario"
	"repro/internal/stats"
)

// scenarioTarget adapts a Deployment to scenario.Target: waves map onto
// Depart/SpawnJoin, partitions and link profiles onto the simwire
// network, and heal re-introduces the sides so the ring re-merges.
type scenarioTarget struct {
	d       *Deployment
	joinRng *rand.Rand
}

var _ scenario.Target = (*scenarioTarget)(nil)

// LivePeers returns live peer names in creation order — deterministic,
// which the engine's victim selection relies on.
func (t *scenarioTarget) LivePeers() []string {
	live := t.d.LivePeers()
	names := make([]string, len(live))
	for i, p := range live {
		names[i] = p.Name
	}
	return names
}

// peer resolves a name to the peer, nil when unknown or departed.
func (t *scenarioTarget) peer(name string) *Peer {
	for _, p := range t.d.Peers {
		if p.Name == name && p.Alive() {
			return p
		}
	}
	return nil
}

// Crash implements scenario.Target.
func (t *scenarioTarget) Crash(name string) {
	if p := t.peer(name); p != nil {
		t.d.Depart(p, true)
	}
}

// Leave implements scenario.Target.
func (t *scenarioTarget) Leave(name string) {
	if p := t.peer(name); p != nil {
		t.d.Depart(p, false)
	}
}

// Join implements scenario.Target.
func (t *scenarioTarget) Join() string {
	p := t.d.SpawnJoin(t.joinRng)
	if p == nil {
		return ""
	}
	return p.Name
}

// Restartable implements scenario.Target: the crashed peers whose
// identities are free to resume, latest incarnation only.
func (t *scenarioTarget) Restartable() []string {
	return t.d.RestartablePeers()
}

// Restart implements scenario.Target: the peer rejoins at its old name
// (and, under a durable deployment, resumes its retained store).
func (t *scenarioTarget) Restart(name string) bool {
	return t.d.RestartWithState(name, t.joinRng) != nil
}

// Partition implements scenario.Target.
func (t *scenarioTarget) Partition(groups [][]string) {
	t.d.Net.Partition(toAddrGroups(groups)...)
}

// Heal implements scenario.Target: it removes the partition and nudges
// every live peer through a bootstrap from the next former group, the
// rendezvous without which the stabilized sides would stay disjoint
// rings forever.
func (t *scenarioTarget) Heal(groups [][]string) {
	t.d.Net.Heal()
	if len(groups) < 2 {
		return
	}
	env := t.d.Net.Env()
	for gi, g := range groups {
		boot := t.firstLive(groups[(gi+1)%len(groups)])
		if boot == nil {
			continue
		}
		bootAddr := boot.EP.Addr()
		for _, name := range g {
			p := t.peer(name)
			if p == nil {
				continue
			}
			node := p.Node
			env.Go(func() { node.Nudge(bootAddr) })
		}
	}
}

// firstLive returns the first live peer named in g.
func (t *scenarioTarget) firstLive(g []string) *Peer {
	for _, name := range g {
		if p := t.peer(name); p != nil {
			return p
		}
	}
	return nil
}

// SetLinkProfile implements scenario.Target: the profile applies to
// both directions between the selected sets.
func (t *scenarioTarget) SetLinkProfile(from, to []string, p scenario.Profile) {
	m := t.d.Net.Model()
	prof := toSimwireProfile(p)
	fromA, toA := toAddrs(from), toAddrs(to)
	m.SetProfile(fromA, toA, prof)
	m.SetProfile(toA, fromA, prof)
}

// ClearLinkProfiles implements scenario.Target.
func (t *scenarioTarget) ClearLinkProfiles() { t.d.Net.Model().ClearProfiles() }

func toAddrs(names []string) []network.Addr {
	if names == nil {
		return nil
	}
	out := make([]network.Addr, len(names))
	for i, n := range names {
		out[i] = network.Addr(n)
	}
	return out
}

func toAddrGroups(groups [][]string) [][]network.Addr {
	out := make([][]network.Addr, len(groups))
	for i, g := range groups {
		out[i] = toAddrs(g)
	}
	return out
}

// toSimwireProfile translates the scenario's scalar profile into the
// transport's distribution form. Latency draws are clamped at 1ms like
// the Table 1 model; a zero bandwidth inherits the base model.
func toSimwireProfile(p scenario.Profile) simwire.Profile {
	out := simwire.Profile{
		LatencyMS: stats.Normal{Mean: p.LatencyMeanMS, Variance: p.LatencyVarMS, Min: 1},
		JitterMS:  p.JitterMS,
		Loss:      p.Loss,
	}
	if p.BandwidthKbps > 0 {
		out.BandwidthKbps = stats.Normal{Mean: p.BandwidthKbps, Min: 1}
	}
	return out
}

// PlayScript starts scripted scenario playback against this deployment:
// events are scheduled in virtual time relative to now and apply as the
// kernel advances. The returned engine exposes the applied-event Trace.
func (d *Deployment) PlayScript(s scenario.Script) (*scenario.Engine, error) {
	eng := scenario.NewEngine(d.Net.Env(), &scenarioTarget{
		d:       d,
		joinRng: d.K.NewRand("scenario-join"),
	})
	if err := eng.Play(s); err != nil {
		return nil, err
	}
	return eng, nil
}
