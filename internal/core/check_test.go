package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"path/filepath"
	"testing"
)

func TestCheckAfterWorkloads(t *testing.T) {
	cases := []struct {
		name string
		opts *Options
	}{
		{"default", nil},
		{"tiny-pages", &Options{Bsize: 64, Ffactor: 2}},
		{"overflow-heavy", &Options{Bsize: 128, Ffactor: 64, ControlledOnly: true}},
		{"presized", &Options{Nelem: 5000}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			tbl := mustOpen(t, "", c.opts)
			defer tbl.Close()
			rng := rand.New(rand.NewSource(5))
			for op := 0; op < 4000; op++ {
				k := []byte(fmt.Sprintf("k%04d", rng.Intn(900)))
				switch rng.Intn(4) {
				case 0, 1:
					if err := tbl.Put(k, val(op)); err != nil {
						t.Fatal(err)
					}
				case 2:
					_ = tbl.Delete(k)
				case 3:
					if rng.Intn(5) == 0 {
						if err := tbl.Put(k, bytes.Repeat([]byte{1}, 2000)); err != nil {
							t.Fatal(err)
						}
					}
				}
				if op%1000 == 999 {
					if err := tbl.Check(); err != nil {
						t.Fatalf("op %d: %v", op, err)
					}
				}
			}
			if err := tbl.Check(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestCheckAfterReopen(t *testing.T) {
	path := filepath.Join(t.TempDir(), "chk.db")
	tbl := mustOpen(t, path, &Options{Bsize: 128, Ffactor: 8})
	for i := 0; i < 3000; i++ {
		if err := tbl.Put(key(i), val(i)); err != nil {
			t.Fatal(err)
		}
	}
	tbl.Put([]byte("big"), bytes.Repeat([]byte("B"), 9000))
	if err := tbl.Close(); err != nil {
		t.Fatal(err)
	}
	tbl = mustOpen(t, path, nil)
	defer tbl.Close()
	if err := tbl.Check(); err != nil {
		t.Fatal(err)
	}
}

func TestCheckDetectsWrongBucket(t *testing.T) {
	// Plant a key in the wrong bucket by writing a page directly.
	store := newMemTable(t)
	defer store.Close()
	if err := store.Check(); err != nil {
		t.Fatal(err)
	}

	// Find the primary page of bucket 0 and shove a key that belongs
	// elsewhere onto it.
	var wrong []byte
	for i := 0; ; i++ {
		k := []byte(fmt.Sprintf("wrong%d", i))
		if store.calcBucket(store.hash(k)) != 0 {
			wrong = k
			break
		}
	}
	buf, err := store.getBucketPage(nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	page(buf.Page).addRegular(wrong, []byte("x"))
	buf.Dirty.Store(true)
	store.pool.Put(buf)
	store.nkeysA.Add(1)

	if err := store.Check(); err == nil {
		t.Fatal("Check accepted a key in the wrong bucket")
	}
}

func TestCheckDetectsCountMismatch(t *testing.T) {
	tbl := newMemTable(t)
	defer tbl.Close()
	tbl.nkeysA.Add(5)
	if err := tbl.Check(); err == nil {
		t.Fatal("Check accepted a wrong key count")
	}
}

func TestCheckDetectsLeakedOverflowPage(t *testing.T) {
	tbl := newMemTable(t)
	defer tbl.Close()
	// Allocate an overflow page and reference it from nowhere.
	if _, err := tbl.allocOvfl(); err != nil {
		t.Fatal(err)
	}
	if err := tbl.Check(); err == nil {
		t.Fatal("Check accepted a leaked overflow page")
	}
}

// newMemTable builds a small populated in-memory table for corruption
// tests.
func newMemTable(t *testing.T) *Table {
	t.Helper()
	tbl := mustOpen(t, "", &Options{Bsize: 128, Ffactor: 4})
	for i := 0; i < 500; i++ {
		if err := tbl.Put(key(i), val(i)); err != nil {
			t.Fatal(err)
		}
	}
	return tbl
}
