package store

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"sort"
	"sync"
	"sync/atomic"
)

// magic opens every store file; a file that does not start with it is
// not a store and Open refuses to touch (or truncate) it.
const magic = "LTPSTORE1\n"

const (
	// recHeaderLen is the fixed per-record prefix: u32 body length and
	// u32 CRC32 (IEEE) of the body, both little-endian.
	recHeaderLen = 8
	// maxBody bounds one record's body (64 MiB). Real records are a few
	// KiB of JSON; the bound keeps a garbage length field read from a
	// damaged file from driving a giant allocation during the scan.
	maxBody = 1 << 26
	// maxKeyLen bounds the key field inside a body. Content addresses
	// are ~70 bytes ("rs2:" + hex sha256); anything near the u16 limit
	// is corruption.
	maxKeyLen = 1 << 10
)

// Stats is a snapshot of one open store's counters. Records and Bytes
// describe the file; the rest count this handle's traffic since Open.
type Stats struct {
	// Records is the number of distinct keys in the index.
	Records int `json:"records"`
	// Bytes is the file size in bytes (magic + valid records).
	Bytes int64 `json:"bytes"`
	// Hits counts Get calls that found their key.
	Hits uint64 `json:"hits"`
	// Misses counts Get calls that did not.
	Misses uint64 `json:"misses"`
	// Appends counts records written by Put.
	Appends uint64 `json:"appends"`
	// CorruptSkipped counts damaged suffixes dropped by the opening
	// scan (0 or 1 per Open: the scan stops at the first bad record).
	CorruptSkipped uint64 `json:"corrupt_skipped"`
}

// recLoc locates one record's payload inside the file.
type recLoc struct {
	off int64
	n   int
}

// Store is a content-addressed, append-only result store: an on-disk
// log of checksummed (key, payload) records with an in-memory index
// rebuilt by scanning the file at Open. Get serves payloads with
// ReadAt; Put appends one record per new key (a duplicate key is a
// no-op — content addressing makes re-deriving the same key mean the
// same payload). A torn or corrupted tail — a crash mid-append — is
// detected by the scan and truncated away, so the store self-repairs
// to its longest valid prefix.
//
// One read-write handle per file is the supported regime (the engine
// owns its store); any number of read-only handles (OpenRead) may scan
// the same file concurrently, e.g. to snapshot a manifest.
type Store struct {
	mu       sync.RWMutex // guards index, size, writeErr
	f        *os.File
	path     string
	readOnly bool
	index    map[string]recLoc
	size     int64
	writeErr error

	hits    atomic.Uint64
	misses  atomic.Uint64
	appends atomic.Uint64
	corrupt atomic.Uint64
}

// Open opens (creating if absent) the store at path for reading and
// writing, scans it to rebuild the index, and truncates any damaged
// suffix left by a crash mid-append (counted in Stats.CorruptSkipped).
// A file that exists but does not start with the store magic is
// rejected untouched.
func Open(path string) (*Store, error) {
	return open(path, false)
}

// OpenRead opens the store at path read-only: the scan keeps the
// intact prefix and counts a damaged suffix without repairing it, and
// Put fails. Use it to read a store another process (or handle) owns.
func OpenRead(path string) (*Store, error) {
	return open(path, true)
}

func open(path string, readOnly bool) (*Store, error) {
	flags, mode := os.O_RDWR|os.O_CREATE, os.FileMode(0o644)
	if readOnly {
		flags, mode = os.O_RDONLY, 0
	}
	f, err := os.OpenFile(path, flags, mode)
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	s := &Store{f: f, path: path, readOnly: readOnly, index: make(map[string]recLoc)}
	if err := s.load(); err != nil {
		f.Close()
		return nil, err
	}
	return s, nil
}

// load verifies the magic (writing it into a brand-new file) and scans
// the records into the index, repairing a damaged suffix when the
// handle may write.
func (s *Store) load() error {
	fi, err := s.f.Stat()
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	if fi.Size() == 0 {
		if s.readOnly {
			return fmt.Errorf("store: %s is empty (not a store)", s.path)
		}
		if _, err := s.f.WriteAt([]byte(magic), 0); err != nil {
			return fmt.Errorf("store: initializing %s: %w", s.path, err)
		}
		s.size = int64(len(magic))
		return nil
	}
	hdr := make([]byte, len(magic))
	if _, err := io.ReadFull(io.NewSectionReader(s.f, 0, int64(len(magic))), hdr); err != nil || string(hdr) != magic {
		return fmt.Errorf("store: %s is not a result store (bad magic)", s.path)
	}
	valid, dropped, err := s.scan(fi.Size())
	if err != nil {
		return err
	}
	s.size = valid
	if dropped {
		s.corrupt.Add(1)
		if !s.readOnly {
			if err := s.f.Truncate(valid); err != nil {
				return fmt.Errorf("store: truncating damaged suffix of %s: %w", s.path, err)
			}
		}
	}
	return nil
}

// scan walks the records from the end of the magic, indexing every
// valid one, and returns the offset of the first invalid byte (the
// longest valid prefix) plus whether anything after it was dropped.
// Damage never fails the open: a record whose length field, checksum,
// or key framing is wrong ends the scan exactly there.
func (s *Store) scan(fileSize int64) (valid int64, dropped bool, err error) {
	off := int64(len(magic))
	r := bufio.NewReaderSize(io.NewSectionReader(s.f, off, fileSize-off), 1<<16)
	hdr := make([]byte, recHeaderLen)
	var body []byte
	for off < fileSize {
		if _, err := io.ReadFull(r, hdr); err != nil {
			return off, true, nil // torn header
		}
		n := int(binary.LittleEndian.Uint32(hdr[0:4]))
		sum := binary.LittleEndian.Uint32(hdr[4:8])
		if n < 3 || n > maxBody || off+recHeaderLen+int64(n) > fileSize {
			return off, true, nil // nonsense or torn length
		}
		if cap(body) < n {
			body = make([]byte, n)
		}
		body = body[:n]
		if _, err := io.ReadFull(r, body); err != nil {
			return off, true, nil
		}
		if crc32.ChecksumIEEE(body) != sum {
			return off, true, nil // flipped bits
		}
		keyLen := int(binary.LittleEndian.Uint16(body[0:2]))
		if keyLen < 1 || keyLen > maxKeyLen || 2+keyLen > n {
			return off, true, nil
		}
		key := string(body[2 : 2+keyLen])
		s.index[key] = recLoc{off: off + recHeaderLen + 2 + int64(keyLen), n: n - 2 - keyLen}
		off += recHeaderLen + int64(n)
	}
	return off, false, nil
}

// Get returns the payload stored for key. Concurrent Gets (and one
// concurrent Put) are safe.
func (s *Store) Get(key string) ([]byte, bool) {
	s.mu.RLock()
	loc, ok := s.index[key]
	s.mu.RUnlock()
	if !ok {
		s.misses.Add(1)
		return nil, false
	}
	buf := make([]byte, loc.n)
	if _, err := s.f.ReadAt(buf, loc.off); err != nil {
		s.misses.Add(1)
		return nil, false
	}
	s.hits.Add(1)
	return buf, true
}

// Put appends one record for key. A key already stored is a no-op:
// keys are content addresses, so an existing record is the same
// payload. A short or failed write truncates back to the last valid
// record and poisons the handle for further writes (reads still work);
// the next Open would repair the same tail anyway.
func (s *Store) Put(key string, payload []byte) error {
	if s.readOnly {
		return fmt.Errorf("store: %s is open read-only", s.path)
	}
	if len(key) < 1 || len(key) > maxKeyLen {
		return fmt.Errorf("store: key length %d out of range [1, %d]", len(key), maxKeyLen)
	}
	if 2+len(key)+len(payload) > maxBody {
		return fmt.Errorf("store: record for %s exceeds %d bytes", key, maxBody)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.writeErr != nil {
		return s.writeErr
	}
	if _, ok := s.index[key]; ok {
		return nil
	}
	n := 2 + len(key) + len(payload)
	rec := make([]byte, recHeaderLen+n)
	body := rec[recHeaderLen:]
	binary.LittleEndian.PutUint16(body[0:2], uint16(len(key)))
	copy(body[2:], key)
	copy(body[2+len(key):], payload)
	binary.LittleEndian.PutUint32(rec[0:4], uint32(n))
	binary.LittleEndian.PutUint32(rec[4:8], crc32.ChecksumIEEE(body))
	if _, err := s.f.WriteAt(rec, s.size); err != nil {
		s.writeErr = fmt.Errorf("store: appending to %s: %w", s.path, err)
		_ = s.f.Truncate(s.size) // drop any torn tail now rather than at next Open
		return s.writeErr
	}
	s.index[key] = recLoc{off: s.size + recHeaderLen + 2 + int64(len(key)), n: len(payload)}
	s.size += int64(len(rec))
	s.appends.Add(1)
	return nil
}

// Len returns the number of distinct keys stored.
func (s *Store) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.index)
}

// Keys returns every stored key, sorted.
func (s *Store) Keys() []string {
	s.mu.RLock()
	out := make([]string, 0, len(s.index))
	for k := range s.index {
		out = append(out, k)
	}
	s.mu.RUnlock()
	sort.Strings(out)
	return out
}

// Stats returns a snapshot of the counters.
func (s *Store) Stats() Stats {
	s.mu.RLock()
	records, bytes := len(s.index), s.size
	s.mu.RUnlock()
	return Stats{
		Records:        records,
		Bytes:          bytes,
		Hits:           s.hits.Load(),
		Misses:         s.misses.Load(),
		Appends:        s.appends.Load(),
		CorruptSkipped: s.corrupt.Load(),
	}
}

// Close releases the file handle. Reads and writes after Close fail.
func (s *Store) Close() error { return s.f.Close() }
