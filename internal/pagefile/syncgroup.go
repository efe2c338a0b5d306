package pagefile

import "sync"

// SyncGroup is the leader/follower group-sync protocol behind every
// durable flush in the stack: the hash table's Sync and the write-ahead
// log's SyncTo both run it, so N concurrent callers pay for one device
// sync instead of N.
//
// Progress is a monotonic mark chosen by the owner — the table's
// mutation sequence number, the log's byte offset. A caller asks for its
// mark to be covered. If a completed round already covers it, the call
// returns at once (a join). If a round is in flight, the caller waits
// for it. Otherwise the caller leads a round: it runs the owner's flush,
// which snapshots the mark it will cover before touching the device, and
// publishes that mark for everyone who arrived meanwhile. A follower
// that waited out a round whose leader failed, and is still uncovered,
// gets that leader's error: the device just refused a sync, and a retry
// from every waiter would turn one failure into a stampede of doomed
// flushes. The next call starts the protocol afresh.
//
// The covered mark only rises with successful rounds; Reset is the one
// way to move it back (a log truncated to its header restarts its
// offsets). The zero value is ready to use and covers mark 0.
type SyncGroup struct {
	mu       sync.Mutex
	cond     sync.Cond // L is &mu, set on first use
	inflight bool      // a leader is running its flush
	synced   uint64    // highest mark durably covered
	round    uint64    // completed rounds, successful or not
	lastErr  error     // outcome of the most recent round
}

// Sync returns once mark want is durably covered, or with the error of
// the round that should have covered it. flush performs the device sync
// and returns the mark it covered; it runs only in the leading caller
// and never concurrently with another flush of the same group. led
// reports whether this caller ran flush.
func (g *SyncGroup) Sync(want uint64, flush func() (uint64, error)) (led bool, err error) {
	g.mu.Lock()
	if g.cond.L == nil {
		g.cond.L = &g.mu
	}
	for g.synced < want {
		if !g.inflight {
			g.inflight = true
			g.mu.Unlock()
			covered, err := flush()
			g.mu.Lock()
			g.inflight = false
			g.round++
			g.lastErr = err
			if err == nil && covered > g.synced {
				g.synced = covered
			}
			g.cond.Broadcast()
			g.mu.Unlock()
			return true, err
		}
		round := g.round
		g.cond.Wait()
		if g.round != round && g.synced < want && g.lastErr != nil {
			err := g.lastErr
			g.mu.Unlock()
			return false, err
		}
	}
	g.mu.Unlock()
	return false, nil
}

// Reset sets the covered mark to m, in either direction: the owner's
// marks restarted (or, at open, everything below m was already on the
// device). It must not race a round whose flush covers marks of the old
// numbering.
func (g *SyncGroup) Reset(m uint64) {
	g.mu.Lock()
	g.synced = m
	g.mu.Unlock()
}
