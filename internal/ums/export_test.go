package ums

import (
	"context"

	"repro/internal/core"
	"repro/internal/dht"
	"repro/internal/obs"
)

// Repair runs the §4.2.2 repair hook KTS calls after a counter
// correction.
func (s *Service) Repair(k core.Key, oldTS, newTS core.Timestamp) { s.repair(k, oldTS, newTS) }

// InsertWithTS is Insert with the key's timestamp ts already in hand:
// it replicates (k, {data, ts}) without a KTS round trip, so a test
// controls the timestamp a put writes.
func (s *Service) InsertWithTS(ctx context.Context, k core.Key, data []byte, ts core.Timestamp) (res dht.OpResult, err error) {
	ctx, span := dht.TraceOp(ctx, s.ring.Env(), s.tracer, obs.Op{Op: "put", Alg: "ums", Key: string(k)})
	defer span.End(&res, &err)
	res.TS = ts
	return res, s.replicate(ctx, k, core.Value{Data: data, TS: ts}, &res, nil, nil)
}
