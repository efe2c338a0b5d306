package trace

import (
	"encoding/json"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestNilTracerIsInert(t *testing.T) {
	var tr *Tracer
	tr.Emit(EvSplitBegin, 1, 2, 3, 0)
	tr.EmitDur(EvSyncEnd, time.Second, 1, 0, 0, 0)
	tr.SlowIO(IORead, 7, 4096, time.Second)
	tr.SetSlowIOThreshold(0)
	if got := tr.Events(0); got != nil {
		t.Fatalf("nil tracer Events = %v, want nil", got)
	}
	if th := tr.SlowIOThreshold(); th != -1 {
		t.Fatalf("nil tracer SlowIOThreshold = %v, want -1", th)
	}
	if tr.Ring() != nil {
		t.Fatal("nil tracer Ring != nil")
	}
}

func TestEmitAndSnapshot(t *testing.T) {
	tr := New(64)
	tr.Emit(EvSplitBegin, 3, 7, 7, 1)
	tr.EmitDur(EvSplitEnd, 5*time.Millisecond, 3, 7, 42, 2)
	tr.Emit(EvOvflAlloc, 2, 11, 2<<11|11, 0)

	evs := tr.Events(0)
	if len(evs) != 3 {
		t.Fatalf("got %d events, want 3", len(evs))
	}
	for i, e := range evs {
		if e.Seq != uint64(i) {
			t.Fatalf("event %d has seq %d", i, e.Seq)
		}
		if e.Time == 0 {
			t.Fatalf("event %d has zero timestamp", i)
		}
	}
	if evs[0].Type != EvSplitBegin || evs[0].Args != [4]uint64{3, 7, 7, 1} {
		t.Fatalf("event 0 = %+v", evs[0])
	}
	if evs[1].Dur != 5*time.Millisecond {
		t.Fatalf("event 1 dur = %v", evs[1].Dur)
	}

	// Filter by type.
	only := tr.Events(0, EvOvflAlloc)
	if len(only) != 1 || only[0].Type != EvOvflAlloc {
		t.Fatalf("filtered events = %v", only)
	}
	// Cap by max keeps the newest.
	last := tr.Events(1)
	if len(last) != 1 || last[0].Type != EvOvflAlloc {
		t.Fatalf("Events(1) = %v", last)
	}
}

func TestRingWrapKeepsNewest(t *testing.T) {
	tr := New(64) // minimum ring: 64 slots
	n := 64 * 3
	for i := 0; i < n; i++ {
		tr.Emit(EvOvflAlloc, uint64(i), 0, 0, 0)
	}
	evs := tr.Events(0)
	if len(evs) != 64 {
		t.Fatalf("got %d events after wrap, want 64", len(evs))
	}
	for i, e := range evs {
		want := uint64(n - 64 + i)
		if e.Seq != want || e.Args[0] != want {
			t.Fatalf("event %d = seq %d args %v, want seq %d", i, e.Seq, e.Args, want)
		}
	}
}

func TestSlowIOCapture(t *testing.T) {
	tr := New(64)
	tr.SetSlowIOThreshold(0) // record every device operation
	tr.SlowIO(IOWrite, 9, 4096, 5*time.Millisecond)

	evs := tr.Events(0, EvSlowIO)
	if len(evs) != 1 {
		t.Fatalf("slow-io events = %v, want 1", evs)
	}
	if e := evs[0]; e.Args != [4]uint64{IOWrite, 9, 4096, 0} || e.Dur != 5*time.Millisecond {
		t.Fatalf("slow-io event = %+v", e)
	}
}

func TestSlowIOThresholdFilters(t *testing.T) {
	tr := New(64)
	if th := tr.SlowIOThreshold(); th != DefaultSlowIO {
		t.Fatalf("new tracer threshold = %v, want %v", th, DefaultSlowIO)
	}
	tr.SlowIO(IORead, 1, 4096, DefaultSlowIO-1) // just under the default
	tr.SetSlowIOThreshold(time.Hour)            // nothing is that slow
	tr.SlowIO(IORead, 2, 4096, time.Second)
	tr.SetSlowIOThreshold(-1) // disabled entirely
	tr.SlowIO(IOSync, 3, 0, time.Hour)
	if th := tr.SlowIOThreshold(); th != -1 {
		t.Fatalf("disabled threshold = %v, want -1", th)
	}
	if evs := tr.Events(0); len(evs) != 0 {
		t.Fatalf("fast or disabled I/O recorded: %v", evs)
	}
	tr.SetSlowIOThreshold(time.Millisecond)
	tr.SlowIO(IOSync, 4, 0, time.Millisecond) // at the threshold counts
	if evs := tr.Events(0, EvSlowIO); len(evs) != 1 || evs[0].Args[1] != 4 {
		t.Fatalf("I/O at the threshold not recorded: %v", evs)
	}
}

func TestTypeNamesRoundTrip(t *testing.T) {
	for ty := EvSplitBegin; ty <= EvSlowIO; ty++ {
		name := ty.String()
		if strings.HasPrefix(name, "type(") {
			t.Fatalf("type %d has no name", ty)
		}
		if got := ParseType(name); got != ty {
			t.Fatalf("ParseType(%q) = %d, want %d", name, got, ty)
		}
	}
	if ParseType("no-such-event") != EvNone {
		t.Fatal("unknown name did not map to EvNone")
	}
}

func TestEventJSON(t *testing.T) {
	e := Event{Seq: 9, Time: 12345, Type: EvSplitBegin, Dur: time.Millisecond, Args: [4]uint64{1, 2, 3, 1}}
	b, err := json.Marshal(e)
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]any
	if err := json.Unmarshal(b, &m); err != nil {
		t.Fatal(err)
	}
	if m["type"] != "split-begin" || m["seq"] != float64(9) {
		t.Fatalf("json = %s", b)
	}
	args, ok := m["args"].(map[string]any)
	if !ok || args["old_bucket"] != float64(1) || args["uncontrolled"] != float64(1) {
		t.Fatalf("json args = %s", b)
	}
}

// TestRingConcurrentNoTears is the -race stress test: many writers
// emitting invariant-carrying events while a reader continuously drains
// snapshots, exactly as /debug/events does. Every observed event must
// be internally consistent (no torn payloads) and every snapshot's
// sequence numbers strictly monotonic.
func TestRingConcurrentNoTears(t *testing.T) {
	tr := New(256) // small ring so wrapping is constant
	const (
		writers = 8
		perW    = 20000
	)
	var wg sync.WaitGroup
	stop := make(chan struct{})

	// Writers: args carry an invariant (a2 = a0^a1, a3 = a0+a1) that any
	// torn mix of two events would violate.
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(id uint64) {
			defer wg.Done()
			for i := uint64(0); i < perW; i++ {
				tr.Emit(EvOvflAlloc, id, i, id^i, id+i)
			}
		}(uint64(w))
	}

	check := func(evs []Event) {
		last := int64(-1)
		for _, e := range evs {
			if int64(e.Seq) <= last {
				t.Errorf("sequence not strictly monotonic: %d after %d", e.Seq, last)
				return
			}
			last = int64(e.Seq)
			if e.Type != EvOvflAlloc {
				t.Errorf("unexpected type %v in seq %d", e.Type, e.Seq)
				return
			}
			a := e.Args
			if a[2] != a[0]^a[1] || a[3] != a[0]+a[1] {
				t.Errorf("torn event seq %d: args %v", e.Seq, a)
				return
			}
		}
	}

	// Reader: drain snapshots concurrently with the writers.
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			check(tr.Events(0))
			select {
			case <-stop:
				return
			default:
			}
		}
	}()

	wg.Wait()
	close(stop)
	<-done

	// Quiescent ring: full, newest events only, and all intact.
	evs := tr.Events(0)
	if len(evs) != tr.Ring().Cap() {
		t.Fatalf("quiescent snapshot has %d events, want %d", len(evs), tr.Ring().Cap())
	}
	check(evs)
	if head := tr.Ring().Next(); head != writers*perW {
		t.Fatalf("ring head = %d, want %d", head, writers*perW)
	}
	if evs[len(evs)-1].Seq != writers*perW-1 {
		t.Fatalf("newest seq = %d, want %d", evs[len(evs)-1].Seq, writers*perW-1)
	}
}

func TestEmitAllocFree(t *testing.T) {
	tr := New(64)
	if n := testing.AllocsPerRun(1000, func() {
		tr.Emit(EvOvflAlloc, 1, 2, 3, 4)
	}); n != 0 {
		t.Fatalf("Emit allocates %.1f times per op, want 0", n)
	}
}

// TestRingLappedWriterCannotTear replays the interleaving behind the
// torn events TestRingConcurrentNoTears can catch under -race: writer A
// claims the slot of sequence s and stalls mid-write while writer B laps
// it twice, then A stores its payload and publishes. No event may ever
// read back carrying another writer's payload, and once both are done
// the ring holds B's newest events.
func TestRingLappedWriterCannotTear(t *testing.T) {
	r := NewRing(64)
	n := uint64(r.Cap())
	s := r.next.Add(1) - 1
	sl := r.claim(s) // A holds the claim and stalls
	if sl == nil {
		t.Fatal("claim of a fresh slot failed")
	}
	emit := func(from, to uint64) { // sequence s+i carries args i
		for i := from; i <= to; i++ {
			r.emit(EvOvflAlloc, int64(i), 0, i, i, i, i)
		}
	}
	emit(1, n-1)
	done := make(chan struct{})
	go func() { // B: sequences s+n .. s+2n, both on A's slot
		defer close(done)
		emit(n, 2*n)
	}()
	// Let B run until it has finished or waits on A's slot.
	buf := make([]byte, 1<<20)
	settled := func() bool {
		select {
		case <-done:
			return true
		default:
			return strings.Contains(string(buf[:runtime.Stack(buf, true)]), "(*Ring).claim")
		}
	}
	for deadline := time.Now().Add(10 * time.Second); !settled(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("writer B neither finished nor waited on A's slot")
		}
	}
	intact := func(when string) {
		t.Helper()
		for seq := s; seq <= s+2*n; seq++ {
			e, ok := r.read(seq)
			if !ok {
				continue
			}
			want := [4]uint64{seq - s, seq - s, seq - s, seq - s}
			if seq == s {
				want = [4]uint64{7, 7, 7, 7}
			}
			if e.Args != want {
				t.Fatalf("%s: event %d reads back args %v, want %v", when, seq, e.Args, want)
			}
		}
	}
	intact("while A is claimed")
	sl.fill(EvOvflAlloc, 1, 0, 7, 7, 7, 7) // A's late payload stores
	intact("after A's payload stores")
	sl.commit.Store(s + 1) // A publishes, as emit does
	<-done
	intact("after both writers finished")
	for seq := s + n + 1; seq <= s+2*n; seq++ {
		if _, ok := r.read(seq); !ok {
			t.Fatalf("newest event %d missing from the ring", seq)
		}
	}
}
