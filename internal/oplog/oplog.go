// Package oplog is the per-request op ledger: allocation-free phase
// attribution for one command as it crosses the stack — server decode,
// write coalescing, shard routing, bucket latching, split assists, WAL
// marshalling and group commit, buffer-pool traffic, filter consults
// and the reply flush. The paper evaluates its package by attributing
// cost to concrete mechanisms (overflow chains, splits, page faults);
// the ledger does the same for a live request, so a slow op names the
// layer that ate the time instead of vanishing into a global histogram.
//
// A Ledger is a small fixed-size struct owned by whoever starts the
// request (a server connection, or any caller of the db package's …Op
// methods). It is threaded down the layers as a pointer; every
// recording method is nil-receiver-safe, so an unenabled path pays one
// predictable branch and zero clock reads — the same contract the
// trace package establishes with its nil-tracer checks. Phase
// counters are updated with atomic adds because one ledger can be
// visible to several goroutines at once (a sharded PutBatch fans out,
// a group-commit follower parks while the leader syncs).
//
// Finished ledgers are folded into a Recorder: per-phase latency
// histograms that merge into the shared metrics registry (the
// oplog_phase_* / oplog_op_* series), per-command × per-shard
// breakdowns for the /debug/oplog endpoint, and a ring of exemplars —
// the slowest complete ledger per command per window, carrying the
// trace-ring sequence span of the op so the exemplar can be joined
// back to its individual trace events.
package oplog

import (
	"sync/atomic"
	"time"
)

// Phase indices. A phase is one named place time goes; the taxonomy is
// deliberately flat and small so a ledger stays a few cache lines.
const (
	// PhaseParse is server command decode: bytes already buffered on
	// the connection to a parsed argument vector. Network wait is
	// excluded — an idle connection is not a slow parser.
	PhaseParse = iota
	// PhaseCoalesce is the time a staged PUT spent parked in the
	// connection's write-coalescing buffer before its batch flushed.
	PhaseCoalesce
	// PhaseRoute is shard selection and fan-out bookkeeping in the
	// sharded db front end.
	PhaseRoute
	// PhaseLatchWait is bucket-latch acquisition: stripe lock waits on
	// the read and write paths, including a transaction's ascending
	// latch sweep at commit.
	PhaseLatchWait
	// PhaseSplitAssist is cooperative split work done on this
	// request's dime: helping or triggering an incremental bucket
	// split after an insert.
	PhaseSplitAssist
	// PhaseWALMarshal is transaction frame encoding plus the log
	// append write.
	PhaseWALMarshal
	// PhaseWALFsyncLead is a WAL group-commit fsync performed by this
	// request as the leader.
	PhaseWALFsyncLead
	// PhaseWALFsyncJoin is the follower side: parked waiting for a
	// leader's fsync to cover this request's commit offset.
	PhaseWALFsyncJoin
	// PhaseBufHit is buffer-pool time for pages served from memory.
	PhaseBufHit
	// PhaseBufFault is buffer-pool time for pages faulted from the
	// store (allocation, eviction and the read itself).
	PhaseBufFault
	// PhasePrefetch is the vectored chain read-ahead issued before a
	// chain walk descends.
	PhasePrefetch
	// PhaseFilter is the per-bucket tag-filter consult on the read
	// path.
	PhaseFilter
	// PhaseReply is reply serialization and the pipeline-window flush
	// back to the client.
	PhaseReply

	NumPhases
)

// phaseNames index the metric / JSON names for each phase.
var phaseNames = [NumPhases]string{
	"parse", "coalesce_wait", "shard_route", "latch_wait", "split_assist",
	"wal_marshal", "wal_fsync_lead", "wal_fsync_join",
	"buffer_hit", "buffer_fault", "prefetch", "filter", "reply_write",
}

// phaseHelp is the registry HELP line per phase.
var phaseHelp = [NumPhases]string{
	"Command decode time (bytes buffered to parsed argument vector).",
	"Time a staged PUT waited in the connection's coalescing buffer.",
	"Shard selection and fan-out time in the sharded front end.",
	"Bucket-latch (stripe lock) acquisition wait.",
	"Cooperative bucket-split work charged to this request.",
	"WAL transaction frame marshal and log append write.",
	"WAL group-commit fsync performed as leader.",
	"WAL group-commit wait as a follower joining a leader's fsync.",
	"Buffer-pool time for pages served from memory.",
	"Buffer-pool time for pages faulted from the store.",
	"Vectored overflow-chain read-ahead.",
	"Per-bucket tag filter consult on the read path.",
	"Reply serialization and pipeline-window flush.",
}

// PhaseName returns the metric/JSON name of phase p.
func PhaseName(p int) string {
	if p < 0 || p >= NumPhases {
		return "unknown"
	}
	return phaseNames[p]
}

// Cmd classifies the request the ledger describes.
type Cmd uint8

const (
	CmdGet Cmd = iota
	CmdPut
	CmdDelete
	CmdBatch
	CmdTxn
	CmdStats
	CmdOther // window flushes, PING, and anything unclassified

	NumCmds
)

var cmdNames = [NumCmds]string{"get", "put", "delete", "batch", "txn", "stats", "other"}

// CmdName returns the metric/JSON name of command c.
func CmdName(c Cmd) string {
	if c >= NumCmds {
		return "other"
	}
	return cmdNames[c]
}

// clockBase anchors the package clock; Clock values are monotonic
// nanoseconds since process start (time.Since reads the monotonic
// clock and allocates nothing).
var clockBase = time.Now()

// Clock reads the monotonic clock. Callers stamp phase starts with it
// and settle durations with Ledger.Add; a disabled path never calls it.
func Clock() int64 { return int64(time.Since(clockBase)) }

// keyPrefixLen bounds the key bytes an exemplar retains.
const keyPrefixLen = 24

// Ledger accumulates one request's phase timings. The struct is fixed
// size and pointer-free so a copy (into an exemplar) is a memmove, and
// all mutation is by atomic add so concurrent helpers (sharded fan-out
// goroutines) can charge phases to the same ledger without tearing.
type Ledger struct {
	ns    [NumPhases]int64  // accumulated nanoseconds per phase
	count [NumPhases]uint32 // events per phase
	start int64             // Clock() at StartOp
	end   int64             // Clock() at Finish
	seq0  uint64            // trace-ring span [seq0-1, seq1) of the op; seq0 0: unset
	seq1  uint64
	shard int32 // -1 until routed
	cmd   Cmd
	klen  uint8
	key   [keyPrefixLen]byte // prefix of the request key, for exemplars
}

// StartOp resets the ledger for a new request. Safe on a nil receiver.
func (l *Ledger) StartOp(cmd Cmd, key []byte) {
	if l == nil {
		return
	}
	*l = Ledger{cmd: cmd, shard: -1, start: Clock()}
	n := copy(l.key[:], key)
	l.klen = uint8(n)
}

// Add charges d nanoseconds (one event) to phase p. Safe on a nil
// receiver; negative durations (clock retreat) are dropped.
func (l *Ledger) Add(p int, d int64) {
	if l == nil || d < 0 {
		return
	}
	atomic.AddInt64(&l.ns[p], d)
	atomic.AddUint32(&l.count[p], 1)
}

// AddN charges d nanoseconds covering n events to phase p (a coalesced
// batch settles one wait over its members). Safe on a nil receiver.
func (l *Ledger) AddN(p int, d int64, n int) {
	if l == nil || d < 0 || n <= 0 {
		return
	}
	atomic.AddInt64(&l.ns[p], d)
	atomic.AddUint32(&l.count[p], uint32(n))
}

// Now starts timing a phase: Clock() on a live ledger, 0 without a
// clock read on a nil one. Pair it with Since.
func (l *Ledger) Now() int64 {
	if l == nil {
		return 0
	}
	return Clock()
}

// Since charges Clock()-st to phase p. Safe on a nil receiver, where
// it inlines to one branch (the clock read lives in since).
func (l *Ledger) Since(p int, st int64) {
	if l != nil {
		l.since(p, st)
	}
}

func (l *Ledger) since(p int, st int64) { l.Add(p, Clock()-st) }

// SetShard records which shard served the request. Safe on a nil
// receiver.
func (l *Ledger) SetShard(s int) {
	if l == nil {
		return
	}
	atomic.StoreInt32(&l.shard, int32(s))
}

// MarkTrace widens the ledger's trace-ring sequence window [seq0, seq1)
// to reach ring position seq, linking an exemplar to its trace events.
// A layer marks the ring's next position before and after its part of
// the op; every shard of a fanned-out batch and every sub-transaction
// of a cross-shard commit marks the one ledger, concurrently or in
// turn, and the window grows to cover them all. Safe on a nil receiver.
func (l *Ledger) MarkTrace(seq uint64) {
	if l == nil {
		return
	}
	for {
		cur := atomic.LoadUint64(&l.seq0)
		if cur != 0 && cur <= seq+1 || atomic.CompareAndSwapUint64(&l.seq0, cur, seq+1) {
			break
		}
	}
	for {
		cur := atomic.LoadUint64(&l.seq1)
		if cur >= seq || atomic.CompareAndSwapUint64(&l.seq1, cur, seq) {
			break
		}
	}
}

// Finish stamps the end of the request. Safe on a nil receiver.
func (l *Ledger) Finish() {
	if l == nil {
		return
	}
	atomic.StoreInt64(&l.end, Clock())
}

// Elapsed is the end-to-end duration of a finished ledger.
func (l *Ledger) Elapsed() int64 {
	if l == nil || l.end == 0 {
		return 0
	}
	return l.end - l.start
}

// PhaseNS returns the nanoseconds charged to phase p.
func (l *Ledger) PhaseNS(p int) int64 { return atomic.LoadInt64(&l.ns[p]) }

// PhaseCount returns the events charged to phase p.
func (l *Ledger) PhaseCount(p int) uint32 { return atomic.LoadUint32(&l.count[p]) }

// PhaseTotal sums the nanoseconds charged across all phases. Phases on
// a single-threaded request are disjoint, so the total is comparable
// to Elapsed (the overhead contract the oplog bench gates: the sum
// must stay within 10% of end-to-end for exemplar ops).
func (l *Ledger) PhaseTotal() int64 {
	var t int64
	for p := 0; p < NumPhases; p++ {
		t += atomic.LoadInt64(&l.ns[p])
	}
	return t
}

// Key returns the retained key prefix.
func (l *Ledger) Key() []byte { return l.key[:l.klen] }

// Shard returns the recorded shard, or -1 if the request never routed.
func (l *Ledger) Shard() int { return int(atomic.LoadInt32(&l.shard)) }

// Cmd returns the command classification.
func (l *Ledger) Command() Cmd { return l.cmd }

// TraceSpan returns the recorded trace-ring sequence window [seq0,
// seq1); an op that marked no trace position reports 0, 0.
func (l *Ledger) TraceSpan() (seq0, seq1 uint64) {
	if s0 := atomic.LoadUint64(&l.seq0); s0 != 0 {
		return s0 - 1, atomic.LoadUint64(&l.seq1)
	}
	return 0, 0
}
