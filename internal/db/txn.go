package db

import (
	"errors"
	"fmt"

	"unixhash/internal/core"
)

// Transactions at the db layer. The hash method's write-ahead log
// (core Options.WAL) powers a real Begin/Commit; the other methods
// report ErrNoTxn, so a caller holding any DB can feature-test
// transactions with one errors.Is check instead of reaching through
// the adapter to the concrete table.

var (
	// ErrNoTxn reports Begin on an access method without transaction
	// support (btree, recno). The hash method supports transactions when
	// opened with a write-ahead log (core.Options.WAL); without one,
	// Begin reports core.ErrNoWAL instead, naming the missing option.
	ErrNoTxn = errors.New("db: access method does not support transactions")
)

// Txn is an atomic batch of puts and deletes against a DB: operations
// buffer until Commit makes them durable and visible as a unit (one log
// append + fsync on the hash method), and Rollback discards them. A Txn
// is not safe for concurrent use by multiple goroutines; independent
// Txns from the same DB may commit concurrently and share a group-commit
// fsync. After Commit or Rollback the Txn is spent.
type Txn interface {
	// Put buffers an insert-or-replace of key -> data. Bytes are copied,
	// so the caller may reuse its slices.
	Put(key, data []byte) error
	// Delete buffers a delete of key. Deleting an absent key is not an
	// error at commit time (redo-log "ensure absent" semantics).
	Delete(key []byte) error
	// Commit makes every buffered op durable and visible atomically.
	Commit() error
	// Rollback discards the transaction; the database is untouched.
	Rollback() error
}

// Begin on the hash adapter: the core transaction satisfies Txn
// directly (see BeginOp).
func (d *hashDB) Begin() (Txn, error) { return d.BeginOp(nil) }

// Begin on the btree adapter always fails: the btree has no write-ahead
// log and no atomic multi-op apply.
func (d *btreeDB) Begin() (Txn, error) {
	return nil, fmt.Errorf("%w (btree)", ErrNoTxn)
}

// Begin on the recno adapter always fails.
func (d *recnoDB) Begin() (Txn, error) {
	return nil, fmt.Errorf("%w (recno)", ErrNoTxn)
}

// Static check: the core transaction is usable wherever a db.Txn is.
var _ Txn = (*core.Txn)(nil)
