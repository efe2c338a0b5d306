package pagefile

import (
	"errors"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// waitParked blocks until n goroutines are parked inside SyncGroup.Sync
// waiting on an in-flight round, so a test can fail or finish that round
// knowing exactly who followed it.
func waitParked(t *testing.T, n int) {
	t.Helper()
	buf := make([]byte, 1<<20)
	for deadline := time.Now().Add(10 * time.Second); ; {
		parked := 0
		for _, g := range strings.Split(string(buf[:runtime.Stack(buf, true)]), "\n\n") {
			if strings.Contains(g, "(*SyncGroup).Sync") && strings.Contains(g, "(*Cond).Wait") {
				parked++
			}
		}
		if parked >= n {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d of %d followers parked on the round", parked, n)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestSyncGroupContract pins the group-sync protocol the table and the
// log share: a caller whose mark is covered joins without a flush, an
// uncovered caller leads, a follower of a failed round gets the leader's
// error instead of leading a retry, and the covered mark never moves back
// except through Reset.
func TestSyncGroupContract(t *testing.T) {
	var g SyncGroup
	var flushes atomic.Int64
	flushTo := func(covered uint64, err error) func() (uint64, error) {
		return func() (uint64, error) {
			flushes.Add(1)
			return covered, err
		}
	}
	mustNotFlush := func() (uint64, error) {
		t.Error("a covered caller ran a flush")
		return 0, nil
	}

	// The zero value covers mark 0 only: mark 1 leads.
	if led, err := g.Sync(0, mustNotFlush); led || err != nil {
		t.Fatalf("Sync(0) on a zero group: led=%v err=%v, want a join", led, err)
	}
	if led, err := g.Sync(1, flushTo(5, nil)); !led || err != nil {
		t.Fatalf("Sync(1): led=%v err=%v, want to lead", led, err)
	}
	// Covered by that round (it published 5): joins.
	for _, m := range []uint64{1, 4, 5} {
		if led, err := g.Sync(m, mustNotFlush); led || err != nil {
			t.Fatalf("Sync(%d) after covering 5: led=%v err=%v, want a join", m, led, err)
		}
	}
	// A round covering less than the published mark does not lower it.
	if led, err := g.Sync(6, flushTo(3, nil)); !led || err != nil {
		t.Fatalf("Sync(6): led=%v err=%v", led, err)
	}
	if led, _ := g.Sync(5, mustNotFlush); led {
		t.Fatal("a short round moved the covered mark back")
	}

	// A failed round: every parked follower gets the leader's error and
	// none of them flushes.
	errBoom := errors.New("injected sync failure")
	entered, release := make(chan struct{}), make(chan struct{})
	type result struct {
		led bool
		err error
	}
	done := make(chan result, 4)
	go func() {
		led, err := g.Sync(10, func() (uint64, error) {
			close(entered)
			<-release
			flushes.Add(1)
			return 10, errBoom
		})
		done <- result{led, err}
	}()
	<-entered
	const followers = 3
	for i := 0; i < followers; i++ {
		go func() {
			led, err := g.Sync(10, mustNotFlush)
			done <- result{led, err}
		}()
	}
	waitParked(t, followers)
	close(release)
	leaders := 0
	for i := 0; i < followers+1; i++ {
		r := <-done
		if !errors.Is(r.err, errBoom) {
			t.Fatalf("caller %d: err = %v, want the leader's %v", i, r.err, errBoom)
		}
		if r.led {
			leaders++
		}
	}
	if leaders != 1 {
		t.Fatalf("%d callers led the failed round, want 1", leaders)
	}
	// The failure is not sticky: the next caller leads a fresh round.
	if led, err := g.Sync(10, flushTo(10, nil)); !led || err != nil {
		t.Fatalf("Sync after a failed round: led=%v err=%v, want to lead", led, err)
	}

	// Reset is the one way back: marks the group covered before now lead.
	g.Reset(2)
	if led, err := g.Sync(2, mustNotFlush); led || err != nil {
		t.Fatalf("Sync(2) after Reset(2): led=%v err=%v, want a join", led, err)
	}
	if led, err := g.Sync(3, flushTo(3, nil)); !led || err != nil {
		t.Fatalf("Sync(3) after Reset(2): led=%v err=%v, want to lead", led, err)
	}
	if got := flushes.Load(); got != 5 {
		t.Fatalf("%d flushes, want 5 (one per led round)", got)
	}
}
