package core

import (
	"bytes"
	"errors"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"unixhash/internal/pagefile"
)

// gateStore wraps a store so a test can arm its Sync: once armed, the
// first Sync blocks until released and then fails, and every later Sync
// fails immediately. Attempts are counted so a test can detect waiters
// dog-piling onto the failing device.
type gateStore struct {
	pagefile.Store
	armed   atomic.Bool
	entered chan struct{} // closed when the first armed Sync is in flight
	release chan struct{}
	once    sync.Once
	syncs   atomic.Int64
	err     error
}

func (g *gateStore) Sync() error {
	if !g.armed.Load() {
		return g.Store.Sync()
	}
	g.syncs.Add(1)
	g.once.Do(func() {
		close(g.entered)
		<-g.release
	})
	return g.err
}

// TestGroupCommitFollowerSeesLeaderError pins the satellite-2 fix: when
// a group-commit leader's store fsync fails, every follower that waited
// on that round must observe the failure — not return nil (their
// mutations were never made durable), and not retry as a fresh leader
// against a store that just refused an fsync.
func TestGroupCommitFollowerSeesLeaderError(t *testing.T) {
	errBoom := errors.New("injected fsync failure")
	gs := &gateStore{
		Store:   pagefile.NewMem(128, pagefile.CostModel{}),
		entered: make(chan struct{}),
		release: make(chan struct{}),
		err:     errBoom,
	}
	tbl := mustOpen(t, "", &Options{Store: gs, Bsize: 128, Ffactor: 4})

	// A pending mutation, written while the gate is still open (the
	// durable dirty-mark syncs once on the way in).
	if err := tbl.Put(key(0), val(0)); err != nil {
		t.Fatalf("put: %v", err)
	}
	gs.armed.Store(true)

	const followers = 8
	errs := make(chan error, followers+1)
	go func() { errs <- tbl.Sync() }() // leader
	<-gs.entered
	for i := 0; i < followers; i++ {
		go func() { errs <- tbl.Sync() }()
	}
	// Let the followers enqueue on the in-flight round, then fail it.
	time.Sleep(50 * time.Millisecond)
	close(gs.release)

	for i := 0; i < followers+1; i++ {
		if err := <-errs; !errors.Is(err, errBoom) {
			t.Fatalf("waiter %d: err = %v, want %v", i, err, errBoom)
		}
	}
	if n := gs.syncs.Load(); n > 3 {
		t.Fatalf("%d store fsync attempts for one failed round; followers retried as leaders", n)
	}

	// The failure is not sticky: disarm and the next sync succeeds.
	gs.armed.Store(false)
	if err := tbl.Sync(); err != nil {
		t.Fatalf("sync after disarm: %v", err)
	}
	if err := tbl.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
}

// TestSharedAccountingUnderConcurrentSyncs is the satellite-1 regression
// net for the suspected lost-update window between syncLocked's fold of
// the running counters (nkeysA, pairSumA) into the header and a
// concurrent writer's updates. The fold runs under the exclusive table
// lock, so no window should exist; this test drives writers, deleters
// and group-commit syncers together under -race and then verifies the
// final count, the structural Check, and a clean reopen (whose header
// decode would catch a fingerprint that drifted from the pages).
func TestSharedAccountingUnderConcurrentSyncs(t *testing.T) {
	path := filepath.Join(t.TempDir(), "acct.db")
	tbl := mustOpen(t, path, &Options{Bsize: 128, Ffactor: 4, CacheSize: 1 << 16})

	const (
		workers = 8
		perW    = 150
	)
	var writerWG, syncerWG sync.WaitGroup
	errc := make(chan error, workers+4)
	stop := make(chan struct{})

	// Syncers race the writers the whole time.
	for s := 0; s < 4; s++ {
		syncerWG.Add(1)
		go func() {
			defer syncerWG.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if err := tbl.Sync(); err != nil {
					errc <- err
					return
				}
			}
		}()
	}
	expected := int64(0)
	var expMu sync.Mutex
	for w := 0; w < workers; w++ {
		writerWG.Add(1)
		go func(w int) {
			defer writerWG.Done()
			count := int64(0)
			for i := 0; i < perW; i++ {
				n := w*10000 + i
				v := val(n)
				if i%11 == 3 {
					v = bytes.Repeat([]byte{byte('a' + w)}, 300) // big pair
				}
				if err := tbl.Put(key(n), v); err != nil {
					errc <- err
					return
				}
				count++
				if err := tbl.Put(key(n), val2(n)); err != nil { // replace: count unchanged
					errc <- err
					return
				}
				if i%3 == 0 {
					if err := tbl.Delete(key(n)); err != nil {
						errc <- err
						return
					}
					count--
				}
			}
			expMu.Lock()
			expected += count
			expMu.Unlock()
		}(w)
	}

	writerWG.Wait()
	close(stop)
	syncerWG.Wait()
	select {
	case err := <-errc:
		t.Fatal(err)
	default:
	}

	if got := int64(tbl.Len()); got != expected {
		t.Fatalf("Len = %d, want %d", got, expected)
	}
	if err := tbl.Sync(); err != nil {
		t.Fatalf("final sync: %v", err)
	}
	if err := tbl.Check(); err != nil {
		t.Fatalf("check: %v", err)
	}
	g := tbl.Geometry()
	if g.NKeys != expected {
		t.Fatalf("header nkeys %d, want %d", g.NKeys, expected)
	}
	if err := tbl.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	// Reopen and re-verify: the stored fingerprint and count must match
	// the pages exactly (Verify dry-runs the recovery gate on a dirty
	// file and Check walks the structure on a clean one).
	re := mustOpen(t, path, nil)
	defer re.Close()
	if got := int64(re.Len()); got != expected {
		t.Fatalf("reopened Len = %d, want %d", got, expected)
	}
	if err := re.Verify(); err != nil {
		t.Fatalf("verify after reopen: %v", err)
	}
}
