package db

import (
	"fmt"
	"testing"

	"unixhash/internal/core"
	"unixhash/internal/oplog"
	"unixhash/internal/trace"
)

// TestShardedLedgerTraceSpan checks that one ledger's trace span covers
// every trace event its op caused on every shard it touched: a batch
// whose sub-batches run on concurrent fan-out goroutines, and a
// transaction whose sub-transactions commit shard after shard. Nothing
// else runs, so the op's events are exactly the ring's [from, to). Under
// -race (make race) the batch also checks that the fan-out goroutines
// mark the one ledger without a data race.
func TestShardedLedgerTraceSpan(t *testing.T) {
	tr := trace.New(0)
	s, err := OpenSharded("", 4, &Config{Hash: &core.Options{WAL: true, Trace: tr}})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	pairs := make([]Pair, 64)
	for i := range pairs {
		pairs[i] = Pair{Key: []byte(fmt.Sprintf("k%02d", i)), Data: []byte("v")}
	}
	for _, c := range []struct {
		name     string
		perShard trace.Type // one per shard touched
		op       func(led *oplog.Ledger) error
	}{
		{"batch", trace.EvBatchBegin, func(led *oplog.Ledger) error { return s.PutBatchOp(led, pairs) }},
		{"txn", trace.EvWalAppend, func(led *oplog.Ledger) error {
			x, err := s.BeginOp(led)
			if err != nil {
				return err
			}
			for _, p := range pairs {
				if err := x.Put(p.Key, p.Data); err != nil {
					return err
				}
			}
			return x.Commit()
		}},
	} {
		t.Run(c.name, func(t *testing.T) {
			from := tr.Ring().Next()
			var led oplog.Ledger
			led.StartOp(oplog.CmdBatch, nil)
			if err := c.op(&led); err != nil {
				t.Fatal(err)
			}
			to := tr.Ring().Next()
			shards := 0
			for _, e := range tr.Events(0, c.perShard) {
				if e.Seq >= from {
					shards++
				}
			}
			if shards != s.NShards() {
				t.Fatalf("op emitted %d %v events, want one per shard (%d)", shards, c.perShard, s.NShards())
			}
			if seq0, seq1 := led.TraceSpan(); seq0 != from || seq1 != to {
				t.Fatalf("ledger trace span [%d, %d), want the op's events [%d, %d)", seq0, seq1, from, to)
			}
		})
	}
}
