// Package brk implements the baseline the paper compares against: the
// BRICKS approach (Knezevic et al., GLOBE 2005, the paper's [13]).
//
// BRICKS replicates data under multiple correlated keys and tracks
// currency with per-replica version numbers. Its two structural
// weaknesses — both demonstrated by this package's tests and measured by
// the evaluation harness — are:
//
//  1. a retrieve must fetch ALL replicas and pick the highest version, so
//     its cost scales linearly with the replication factor (Figures 9
//     and 10), and
//  2. concurrent updates can assign the same version number to different
//     data, making it impossible to decide which replica is current.
package brk

import (
	"context"
	"fmt"

	"repro/internal/core"
	"repro/internal/dht"
	"repro/internal/hashing"
	"repro/internal/network"
	"repro/internal/obs"
)

// Namespace is the storage namespace BRK replicas live in (kept apart
// from UMS replicas so both can run over one DHT deployment).
const Namespace = "brk"

// Service is the per-peer BRK instance. The paper's correlated keys are
// realised with the same replication hash functions Hr that UMS uses, so
// both algorithms place replicas identically and differ only in their
// update/retrieve protocols.
type Service struct {
	ring   dht.Ring
	set    hashing.Set
	client *dht.Client
	tracer obs.Tracer // nil: untraced unless the context carries one
}

// New attaches a BRK instance to a peer.
func New(ring dht.Ring, set hashing.Set) *Service {
	return &Service{ring: ring, set: set, client: dht.NewClient(ring, Namespace)}
}

// SetTracer installs the default op tracer, used when the operation's
// context does not carry one (obs.WithTracer wins). Install before
// serving traffic; operations read the field without synchronization.
func (s *Service) SetTracer(t obs.Tracer) { s.tracer = t }

// Insert performs a BRICKS update: read the replicas to learn the
// current highest version, then write every replica with version+1.
// Two concurrent inserts can read the same highest version and thus
// write the same new version — the undecidability the paper points out.
func (s *Service) Insert(ctx context.Context, k core.Key, data []byte) (res dht.OpResult, err error) {
	env := s.ring.Env()
	ctx, span := dht.TraceOp(ctx, env, s.tracer, obs.Op{Op: "put", Alg: "brk", Key: string(k)})
	defer span.End(&res, &err)

	// Learn the highest stored version.
	highest := core.TSZero
	for _, h := range s.set.Hr {
		if cerr := network.CtxError(ctx); cerr != nil {
			return res, fmt.Errorf("brk: insert(%q): %w", k, cerr)
		}
		res.Probed++
		probeStart := env.Now()
		val, gerr := s.client.GetH(ctx, k, h)
		obs.PhasesFrom(ctx).Add(obs.PhaseProbe, env.Now()-probeStart)
		if gerr == nil {
			res.Retrieved++
			highest = highest.Max(val.TS)
		}
	}
	version := highest.Next()
	res.TS = version
	val := core.Value{Data: data, TS: version}
	for _, h := range s.set.Hr {
		if cerr := network.CtxError(ctx); cerr != nil {
			return res, fmt.Errorf("brk: insert(%q): %w", k, cerr)
		}
		// Version ties overwrite arbitrarily (PutIfNewerOrEqual): with
		// concurrent same-version writers, which data survives at each
		// replica is timing-dependent — the baseline's flaw.
		if err := s.client.PutH(ctx, k, h, val, dht.PutIfNewerOrEqual); err == nil {
			res.Stored++
		}
	}
	if res.Stored == 0 {
		return res, fmt.Errorf("brk: insert(%q): no replica stored: %w", k, core.ErrUnreachable)
	}
	return res, nil
}

// Retrieve fetches ALL replicas and returns one with the highest version
// — there is no way to stop early, because any unprobed replica might
// hold a higher version. With duplicate versions the returned data is
// whichever replica was fetched first, and currency cannot be decided.
func (s *Service) Retrieve(ctx context.Context, k core.Key) (res dht.OpResult, err error) {
	env := s.ring.Env()
	ctx, span := dht.TraceOp(ctx, env, s.tracer, obs.Op{Op: "get", Alg: "brk", Key: string(k)})
	defer span.End(&res, &err)

	var best []byte
	bestVersion := core.TSZero
	for _, h := range s.set.Hr {
		if cerr := network.CtxError(ctx); cerr != nil {
			return res, fmt.Errorf("brk: retrieve(%q): %w", k, cerr)
		}
		res.Probed++
		probeStart := env.Now()
		val, err := s.client.GetH(ctx, k, h)
		obs.PhasesFrom(ctx).Add(obs.PhaseProbe, env.Now()-probeStart)
		if err != nil {
			continue
		}
		res.Retrieved++
		if best == nil || bestVersion.Less(val.TS) {
			best, bestVersion = val.Data, val.TS
		}
	}
	if best == nil {
		return res, fmt.Errorf("brk: retrieve(%q): no replica available: %w", k, core.ErrNotFound)
	}
	res.Data, res.TS = best, bestVersion
	// BRK cannot prove currency; the verdict stays Unknown by
	// construction (OpResult.Current() is therefore always false).
	return res, nil
}
