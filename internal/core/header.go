package core

import (
	"fmt"
	"hash/crc32"
	"math/bits"
)

// File header. The header occupies the first hdrPages pages of the file
// and records everything needed to reopen the table: the table geometry
// (bucket size, fill factor, masks, split state), the cumulative count of
// overflow pages at each split point (spares), and the addresses of the
// overflow-use bitmap pages (bitmaps), as the paper describes.
//
// Version 4 adds the durability fields: a monotonically increasing sync
// epoch (bumped on every successful two-phase sync), a dirty flag (set
// durably before the first mutation after an open or sync, cleared only
// after all data pages have reached stable storage), an order-independent
// checksum of the stored key/data pairs (pairSum, used by crash recovery
// to verify that the pages hold exactly the last-synced state), and a
// CRC-32 over the header bytes so a torn header write is detected rather
// than decoded. The checkpoint LSN (walLSN) extends v4 for write-ahead
// logging: every transaction with a commit LSN at or below it has been
// flushed into the pages; commits above it live only in the sibling log
// file and are replayed by Recover.
//
// spares[i] is cumulative: the total number of overflow pages allocated
// at split points 0..i. The page-address calculations depend on it:
//
//	BUCKET_TO_PAGE(b) = b + hdrPages + (b>0 ? spares[ceilLog2(b+1)-1] : 0)
//	OADDR_TO_PAGE(o)  = BUCKET_TO_PAGE((1 << o.split()) - 1) + o.pagenum()
const (
	magic   = 0x061561 // the 4.4BSD hash magic
	version = 5        // v5 reserves the in-page tag-filter region (see filter.go)

	// hdrCrcOff is the offset of the trailing CRC-32; the checksum
	// covers every header byte before it.
	hdrCrcOff = 4 + // magic
		4 + // version
		4 + // lorder
		4 + // bsize
		4 + // bshift
		4 + // ffactor
		4 + // maxBucket
		4 + // highMask
		4 + // lowMask
		4 + // ovflPoint
		4 + // lastFreed
		8 + // nkeys
		4 + // hdrPages
		4 + // checkHash
		4*maxSplits + // spares
		2*maxSplits + // bitmaps
		8 + // syncEpoch
		4 + // flags
		8 + // pairSum
		8 // walLSN

	headerSize = hdrCrcOff + 4 // + crc32
)

// Header flag bits.
const (
	hdrDirty = 1 << 0 // mutations may not have reached stable storage
	// hdrWAL marks the table as WAL-managed. It is stamped durably the
	// first time a writable open attaches a log — before any commit can
	// be acknowledged — so a crashed table proves it has a log even when
	// its checkpoint LSN is still zero (no checkpoint has run yet).
	// Opening a flagged table without its log would silently roll back
	// acknowledged commits; Open refuses, or auto-attaches the sidecar.
	hdrWAL = 1 << 1
)

type header struct {
	lorder    uint32 // byte order tag; this implementation writes 1234
	bsize     uint32
	bshift    uint32
	ffactor   uint32
	maxBucket uint32
	highMask  uint32
	lowMask   uint32
	ovflPoint uint32
	lastFreed uint32 // oaddr hint of the most recently freed overflow page
	nkeys     int64
	hdrPages  uint32
	checkHash uint32 // hash(CheckKey), to detect mismatched hash functions
	spares    [maxSplits]uint32
	bitmaps   [maxSplits]uint16
	syncEpoch uint64 // bumped on every successful sync
	flags     uint32 // hdrDirty
	pairSum   uint64 // XOR of pairHash over every stored pair
	walLSN    uint64 // checkpoint LSN: WAL commits <= this are in the pages
}

const lorderLittle = 1234

func (h *header) dirty() bool { return h.flags&hdrDirty != 0 }

// encode serializes the header into buf, which must be at least headerSize
// bytes (the first header page or a staging buffer), appending a CRC-32
// over the preceding bytes.
func (h *header) encode(buf []byte) {
	le.PutUint32(buf[0:], magic)
	le.PutUint32(buf[4:], version)
	le.PutUint32(buf[8:], h.lorder)
	le.PutUint32(buf[12:], h.bsize)
	le.PutUint32(buf[16:], h.bshift)
	le.PutUint32(buf[20:], h.ffactor)
	le.PutUint32(buf[24:], h.maxBucket)
	le.PutUint32(buf[28:], h.highMask)
	le.PutUint32(buf[32:], h.lowMask)
	le.PutUint32(buf[36:], h.ovflPoint)
	le.PutUint32(buf[40:], h.lastFreed)
	le.PutUint64(buf[44:], uint64(h.nkeys))
	le.PutUint32(buf[52:], h.hdrPages)
	le.PutUint32(buf[56:], h.checkHash)
	off := 60
	for i := range h.spares {
		le.PutUint32(buf[off:], h.spares[i])
		off += 4
	}
	for i := range h.bitmaps {
		le.PutUint16(buf[off:], h.bitmaps[i])
		off += 2
	}
	le.PutUint64(buf[off:], h.syncEpoch)
	le.PutUint32(buf[off+8:], h.flags)
	le.PutUint64(buf[off+12:], h.pairSum)
	le.PutUint64(buf[off+20:], h.walLSN)
	le.PutUint32(buf[hdrCrcOff:], crc32.ChecksumIEEE(buf[:hdrCrcOff]))
}

// decode parses and validates a header from buf. A checksum mismatch —
// a torn or corrupted header write — fails with ErrCorrupt before any
// field is trusted.
func (h *header) decode(buf []byte) error {
	if len(buf) < headerSize {
		return fmt.Errorf("%w: short header (%d bytes)", ErrCorrupt, len(buf))
	}
	if le.Uint32(buf[0:]) != magic {
		return ErrBadMagic
	}
	if v := le.Uint32(buf[4:]); v != version {
		return fmt.Errorf("%w: version %d, want %d", ErrBadVersion, v, version)
	}
	if got, want := crc32.ChecksumIEEE(buf[:hdrCrcOff]), le.Uint32(buf[hdrCrcOff:]); got != want {
		return fmt.Errorf("%w: header checksum %#x, want %#x (torn header write?)", ErrCorrupt, got, want)
	}
	h.lorder = le.Uint32(buf[8:])
	h.bsize = le.Uint32(buf[12:])
	h.bshift = le.Uint32(buf[16:])
	h.ffactor = le.Uint32(buf[20:])
	h.maxBucket = le.Uint32(buf[24:])
	h.highMask = le.Uint32(buf[28:])
	h.lowMask = le.Uint32(buf[32:])
	h.ovflPoint = le.Uint32(buf[36:])
	h.lastFreed = le.Uint32(buf[40:])
	h.nkeys = int64(le.Uint64(buf[44:]))
	h.hdrPages = le.Uint32(buf[52:])
	h.checkHash = le.Uint32(buf[56:])
	off := 60
	for i := range h.spares {
		h.spares[i] = le.Uint32(buf[off:])
		off += 4
	}
	for i := range h.bitmaps {
		h.bitmaps[i] = le.Uint16(buf[off:])
		off += 2
	}
	h.syncEpoch = le.Uint64(buf[off:])
	h.flags = le.Uint32(buf[off+8:])
	h.pairSum = le.Uint64(buf[off+12:])
	h.walLSN = le.Uint64(buf[off+20:])
	return h.validate()
}

// validate sanity-checks decoded geometry so that a corrupt file fails
// cleanly instead of producing wild page addresses.
func (h *header) validate() error {
	if h.lorder != lorderLittle {
		return fmt.Errorf("%w: byte order %d not supported", ErrBadVersion, h.lorder)
	}
	if h.bsize < MinBsize || h.bsize > MaxBsize || !isPow2(int(h.bsize)) {
		return fmt.Errorf("%w: bucket size %d", ErrCorrupt, h.bsize)
	}
	if uint32(1)<<h.bshift != h.bsize {
		return fmt.Errorf("%w: bshift %d does not match bsize %d", ErrCorrupt, h.bshift, h.bsize)
	}
	if h.ffactor == 0 {
		return fmt.Errorf("%w: zero fill factor", ErrCorrupt)
	}
	if h.highMask == 0 || h.maxBucket > h.highMask || h.lowMask != h.highMask>>1 {
		return fmt.Errorf("%w: masks low=%#x high=%#x max=%d", ErrCorrupt, h.lowMask, h.highMask, h.maxBucket)
	}
	if h.ovflPoint >= maxSplits {
		return fmt.Errorf("%w: split point %d", ErrCorrupt, h.ovflPoint)
	}
	if h.nkeys < 0 {
		return fmt.Errorf("%w: negative key count", ErrCorrupt)
	}
	if h.flags&^uint32(hdrDirty|hdrWAL) != 0 {
		return fmt.Errorf("%w: unknown header flags %#x", ErrCorrupt, h.flags)
	}
	want := (uint32(headerSize) + h.bsize - 1) / h.bsize
	if h.hdrPages != want {
		return fmt.Errorf("%w: header pages %d, want %d", ErrCorrupt, h.hdrPages, want)
	}
	for i := 1; i <= int(h.ovflPoint); i++ {
		if h.spares[i] < h.spares[i-1] {
			return fmt.Errorf("%w: spares not cumulative at %d", ErrCorrupt, i)
		}
	}
	return nil
}

// bucketToPage maps a bucket number to its physical page in the store.
// The spares index is the bucket's generation, ceilLog2(b+1)-1, which
// for b > 0 equals bits.Len32(b)-1 — one leading-zero-count instruction
// on the path under every page fetch (see BenchmarkBucketToPage).
func (h *header) bucketToPage(b uint32) uint32 {
	p := b + h.hdrPages
	if b > 0 {
		p += h.spares[bits.Len32(b)-1]
	}
	return p
}

// oaddrToPage maps an overflow address to its physical page.
func (h *header) oaddrToPage(o oaddr) uint32 {
	return h.bucketToPage(1<<o.split()-1) + o.pagenum()
}

// allocatedAt returns the number of overflow pages allocated at split
// point s (spares is cumulative).
func (h *header) allocatedAt(s uint32) uint32 {
	if s == 0 {
		return h.spares[0]
	}
	return h.spares[s] - h.spares[s-1]
}
