package db

import (
	"fmt"

	"unixhash/internal/core"
	"unixhash/internal/oplog"
	"unixhash/internal/telemetry"
)

// ServeTelemetry starts a telemetry HTTP server over an open database
// (see internal/telemetry for the endpoint list). Every method serves
// /stats from db.Stats; the hash method additionally mounts its metrics
// registry (/metrics), tracer (/debug/events) and bucket heatmap
// (/debug/heatmap). A sharded database mounts the shared registry every
// shard aggregates into, the shards' tracer, a per-shard heatmap array,
// and a /stats document whose "Shards" member breaks the aggregate down
// — one ops dashboard for the whole fleet of shards (dbserver points
// its -telemetry flag here). A non-nil rec, the recorder the callers of
// the OpDB methods record their ledgers into, is served on /debug/oplog
// and /debug/oplog/exemplars; nil leaves those endpoints unmounted.
// addr ":0" picks a free port — read it back with the server's Addr.
// The caller owns the returned server and must Close it before closing
// the database.
func ServeTelemetry(d DB, addr string, rec *oplog.Recorder) (*telemetry.Server, error) {
	o := telemetry.Options{
		Stats: func() (any, error) {
			s, err := d.Stats()
			if err != nil {
				return nil, err
			}
			return s, nil
		},
	}
	if rec != nil {
		o.Oplog = func() (any, error) { return rec.Snapshot(), nil }
		o.OplogExemplars = func() (any, error) { return rec.Exemplars(), nil }
	}
	switch x := d.(type) {
	case *hashDB:
		t := x.table()
		o.Registry = t.MetricsRegistry()
		o.Tracer = t.Tracer()
		o.Heatmap = func() (any, error) { return t.Heatmap() }
	case *Sharded:
		o.Registry = x.reg
		o.Tracer = x.shards[0].table().Tracer()
		o.Heatmap = func() (any, error) { return shardedHeatmap(x) }
	}
	return telemetry.Serve(addr, o)
}

// shardHeat is one shard's slice of the sharded heatmap document.
type shardHeat struct {
	Shard   int           `json:"shard"`
	Heatmap *core.Heatmap `json:"heatmap"`
}

// shardedHeatmap walks every shard's buckets; each shard takes its own
// table lock shared, so the walk runs against live traffic just like
// the single-table endpoint.
func shardedHeatmap(s *Sharded) (any, error) {
	out := make([]shardHeat, 0, len(s.shards))
	for i, sh := range s.shards {
		hm, err := sh.table().Heatmap()
		if err != nil {
			return nil, fmt.Errorf("shard %d: %w", i, err)
		}
		out = append(out, shardHeat{Shard: i, Heatmap: hm})
	}
	return out, nil
}
