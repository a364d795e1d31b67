// Package store is the durable tier of the synthesis result cache: a
// crash-safe, content-addressed on-disk plan store. Keys are canonical
// job keys (spec.CanonicalKey plus the engine name), values are
// planio-encoded plans, so every member of a presentation-equivalence
// class maps to one stored plan and a restarted daemon serves previously
// solved specs without re-running the optimizer (warm boot).
//
// A store directory holds one file, wal.log: an append-only log of put
// and delete records. Files of any other name are neither read nor
// removed.
//
// Durability is batched: Put appends to the WAL immediately (readable at
// once) and a background flusher fsyncs the file at most once per
// FlushInterval (group commit), so a burst of puts costs one fsync.
// Records written but not yet fsynced may be lost in a crash; everything
// before the last successful fsync is guaranteed to survive.
//
// Recovery streams the WAL into an in-memory index, keeping only the
// keys it indexes, so boot memory follows the live index, not the log
// (see walReader). A complete record that fails its CRC is disk rot when
// the bytes right after it decode as a valid record: it is skipped
// (CorruptEvicted) and replay goes on. Any other bad record starts the
// torn tail, which is truncated; every record before it is kept. A read
// error fails Open. Reopen is idempotent — a second open of a
// recovered directory recovers the same contents and truncates nothing.
// Get re-verifies the record CRC on every read, so a corrupted record is
// never returned: it is evicted and reported as a miss, and the caller
// re-solves.
//
// There is no compaction. The service writes a key only after a store
// miss, so the log only grows; superseded records and tombstones come
// only from heals (a stored plan that fails its checks is deleted and
// re-solved) and from the boot-time drop of records filed under a retired
// engine. Rewriting the live set would reclaim next to nothing, so the
// WAL size is the live size plus those few dead records.
package store

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"switchsynth/internal/faultinject"
	"switchsynth/internal/planio"
)

// Options tunes a store.
type Options struct {
	// FlushInterval is the group-commit window: the longest time an
	// acknowledged put may sit in the OS cache before it is fsynced.
	// Zero means the 5ms default; negative fsyncs every put (synchronous
	// durability, one fsync per write).
	FlushInterval time.Duration
	// FaultInjector, when non-nil, enables the disk fault points (see
	// internal/faultinject). Nil makes every probe a nop.
	FaultInjector *faultinject.Injector
}

func (o Options) flushInterval() time.Duration {
	if o.FlushInterval != 0 {
		return o.FlushInterval
	}
	return 5 * time.Millisecond
}

// Stats is a point-in-time copy of the store's gauges and counters.
// Counters reset at Open (they describe this process's store lifetime,
// except Recovered/TruncatedBytes which describe the open itself).
type Stats struct {
	// Entries is the number of live keys; DiskBytes the WAL size.
	Entries   int   `json:"entries"`
	DiskBytes int64 `json:"diskBytes"`
	// Hits/Misses count Get outcomes; a CRC-failed read is a miss and a
	// CorruptEvicted.
	Hits   int64 `json:"hits"`
	Misses int64 `json:"misses"`
	// Puts/Deletes count accepted writes.
	Puts    int64 `json:"puts"`
	Deletes int64 `json:"deletes"`
	// Flushes counts group-commit fsync batches; FsyncErrors failed ones
	// (the durable offset does not advance on failure).
	Flushes     int64 `json:"flushes"`
	FsyncErrors int64 `json:"fsyncErrors"`
	// Recovered is the number of records applied by the open-time scan;
	// TruncatedBytes how much torn tail the open cut off the WAL.
	Recovered      int64 `json:"recovered"`
	TruncatedBytes int64 `json:"truncatedBytes"`
	// CorruptEvicted counts records dropped because their CRC failed on
	// read (Get or Export) or at open (a rotten record replay skipped).
	CorruptEvicted int64 `json:"corruptEvicted"`
	// TornRepaired counts short-write tails truncated by a later append.
	TornRepaired int64 `json:"tornRepaired"`
}

// loc addresses one live record inside the WAL.
type loc struct {
	off  int64
	size int
}

// Store is the durable plan store. All methods are safe for concurrent
// use. Create with Open, retire with Close.
type Store struct {
	dir  string
	opts Options
	inj  *faultinject.Injector

	mu         sync.Mutex
	wal        *os.File
	walSize    int64 // logical append offset (excludes any torn bytes)
	walDurable int64 // fsynced prefix of the WAL
	walDirty   bool  // bytes written since the last fsync
	torn       bool  // a short write left garbage at walSize
	index      map[string]loc
	closed     bool
	stats      Stats

	flushStop chan struct{}
	flushDone chan struct{}
}

// walName is the WAL file name inside a store directory.
const walName = "wal.log"

// Open creates (or recovers) the store in dir. The directory is created
// if missing. Recovery replays the WAL, skipping rotten records and
// truncating the torn tail.
func Open(dir string, opts Options) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	s := &Store{
		dir:   dir,
		opts:  opts,
		inj:   opts.FaultInjector,
		index: make(map[string]loc),
	}
	if err := s.recover(); err != nil {
		if s.wal != nil {
			s.wal.Close()
		}
		return nil, err
	}
	if opts.flushInterval() > 0 {
		s.flushStop = make(chan struct{})
		s.flushDone = make(chan struct{})
		go s.flusher(opts.flushInterval())
	}
	return s, nil
}

// recover opens the WAL, replays it into a fresh index and truncates
// the torn tail.
func (s *Store) recover() error {
	wal, err := os.OpenFile(filepath.Join(s.dir, walName), os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	s.wal = wal
	fi, err := wal.Stat()
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	good, err := s.replay(newWALReader(wal))
	if err != nil {
		return fmt.Errorf("store: replaying %s: %w", walName, err)
	}
	if torn := fi.Size() - good; torn > 0 {
		if err := wal.Truncate(good); err != nil {
			return fmt.Errorf("store: truncating torn tail: %w", err)
		}
		if err := wal.Sync(); err != nil {
			return fmt.Errorf("store: %w", err)
		}
		s.stats.TruncatedBytes = torn
	}
	s.walSize = good
	s.walDurable = good
	return nil
}

// replay applies the WAL's records to the index and returns the offset
// where the torn tail starts. A complete record that fails its CRC is
// rot, skipped and counted, when the bytes right after it decode as a
// valid record; any other bad record is the start of the torn tail. Only
// a key that enters the index is copied. A read error fails the replay:
// it says nothing about the bytes on disk.
func (s *Store) replay(w *walReader) (int64, error) {
	var off int64
	typ, n, err := w.next()
	for {
		if err == errBadRecord {
			if n == 0 {
				return off, nil
			}
			next, m, nextErr := w.next()
			if nextErr == errBadRecord {
				return off, nil
			}
			s.stats.CorruptEvicted++
			off += int64(n)
			typ, n, err = next, m, nextErr
		}
		if err != nil {
			return 0, err
		}
		switch typ {
		case recPut:
			s.index[string(w.key)] = loc{off: off, size: n}
		case recDelete:
			delete(s.index, string(w.key))
		}
		s.stats.Recovered++
		off += int64(n)
		typ, n, err = w.next()
	}
}

// Get returns the stored plan bytes and engine name for key. The record
// is CRC-verified on every read: a record that no longer checks out is
// evicted and reported as a miss, so a corrupted plan is never returned.
func (s *Store) Get(key string) (value []byte, engine string, ok bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, "", false
	}
	l, found := s.index[key]
	if !found {
		s.stats.Misses++
		return nil, "", false
	}
	rec, err := s.readRecord(l)
	if err != nil || rec.typ != recPut || rec.key != key {
		delete(s.index, key)
		s.stats.CorruptEvicted++
		s.stats.Misses++
		return nil, "", false
	}
	s.stats.Hits++
	return rec.value, rec.engine, true
}

// readRecord fetches and validates the record at l.
func (s *Store) readRecord(l loc) (record, error) {
	buf := make([]byte, l.size)
	if _, err := s.wal.ReadAt(buf, l.off); err != nil {
		return record{}, err
	}
	rec, _, err := decodeRecord(buf)
	return rec, err
}

// Put durably stores value (a planio-encoded plan) under key. The entry
// is readable immediately; durability follows at the next group commit.
func (s *Store) Put(key, engine string, value []byte) error {
	if len(key) == 0 || len(key) > maxKeyLen || len(engine) > maxEngLen || len(value) > maxValLen {
		return fmt.Errorf("store: put %q: field size out of range", key)
	}
	rec := record{typ: recPut, key: key, engine: engine, value: value}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return fmt.Errorf("store: closed")
	}
	off, err := s.appendLocked(&rec)
	if err != nil {
		return err
	}
	s.index[key] = loc{off: off, size: rec.size()}
	s.stats.Puts++
	if s.opts.flushInterval() < 0 {
		return s.syncLocked()
	}
	return nil
}

// Delete removes key, appending a tombstone so the removal survives
// restart. Deleting an absent key is a no-op.
func (s *Store) Delete(key string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return fmt.Errorf("store: closed")
	}
	if _, ok := s.index[key]; !ok {
		return nil
	}
	rec := record{typ: recDelete, key: key}
	if _, err := s.appendLocked(&rec); err != nil {
		return err
	}
	delete(s.index, key)
	s.stats.Deletes++
	if s.opts.flushInterval() < 0 {
		return s.syncLocked()
	}
	return nil
}

// appendLocked writes rec at the WAL tail and returns its offset. A torn
// tail left by an earlier short write is truncated away first, so the
// log stays contiguous. The disk fault points fire here: a short write
// tears the tail and fails the append; corruption flips a payload byte
// on the way to disk (the append succeeds, the CRC catches it on read).
func (s *Store) appendLocked(rec *record) (int64, error) {
	if s.torn {
		if err := s.wal.Truncate(s.walSize); err != nil {
			return 0, fmt.Errorf("store: repairing torn tail: %w", err)
		}
		s.torn = false
		s.stats.TornRepaired++
	}
	buf := rec.encode(make([]byte, 0, rec.size()))
	if s.inj.Fire(faultinject.DiskCorrupt) && len(rec.value) > 0 {
		// Flip a payload byte; the header and CRC stay as computed, so
		// the record decodes as structurally sound but fails its CRC.
		buf[recHeaderLen+len(rec.key)+len(rec.engine)] ^= 0xFF
	}
	off := s.walSize
	if s.inj.Fire(faultinject.DiskShortWrite) {
		if _, err := s.wal.WriteAt(buf[:len(buf)/2], off); err != nil {
			return 0, fmt.Errorf("store: %w", err)
		}
		s.torn = true
		s.walDirty = true
		return 0, fmt.Errorf("store: short write appending %.16s… (torn tail)", rec.key)
	}
	if _, err := s.wal.WriteAt(buf, off); err != nil {
		return 0, fmt.Errorf("store: %w", err)
	}
	s.walSize += int64(len(buf))
	s.walDirty = true
	return off, nil
}

// Sync forces the pending WAL bytes to disk, advancing the durable
// offset: every put acknowledged before Sync returns survives a crash.
func (s *Store) Sync() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.syncLocked()
}

func (s *Store) syncLocked() error {
	if !s.walDirty {
		return nil
	}
	if s.inj.Fire(faultinject.DiskFsyncErr) {
		s.stats.FsyncErrors++
		return fmt.Errorf("store: fsync failed (injected)")
	}
	if err := s.wal.Sync(); err != nil {
		s.stats.FsyncErrors++
		return fmt.Errorf("store: %w", err)
	}
	s.walDurable = s.walSize
	s.walDirty = false
	s.stats.Flushes++
	return nil
}

// flusher is the group-commit loop: at most one fsync per interval, and
// only when there is something to flush.
func (s *Store) flusher(interval time.Duration) {
	defer close(s.flushDone)
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			s.mu.Lock()
			if !s.closed {
				_ = s.syncLocked()
			}
			s.mu.Unlock()
		case <-s.flushStop:
			return
		}
	}
}

// Len reports the number of live entries.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.index)
}

// Has reports whether key is live in the index, without touching disk or
// the hit/miss counters — the membership probe behind anti-entropy sync.
func (s *Store) Has(key string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	_, ok := s.index[key]
	return ok
}

// Keys returns the live keys in sorted order.
func (s *Store) Keys() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	keys := make([]string, 0, len(s.index))
	for k := range s.index {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// Stats returns a snapshot of the store's gauges and counters.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.stats
	st.Entries = len(s.index)
	st.DiskBytes = s.walSize
	return st
}

// Export writes every live, CRC-verified plan into dir as a
// planio-compatible JSON file named <key-prefix>-<engine>.json, and
// returns how many were written. Binary-framed values are transcoded to
// the JSON file format (through full frame validation) so the export is
// always human-readable and feeds cmd/verifyplan for offline audit
// regardless of the wire format the daemon ran with; JSON values are
// written verbatim. A value whose frame fails to decode is treated like
// a CRC mismatch: evicted and counted, never exported.
func (s *Store) Export(dir string) (int, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return 0, fmt.Errorf("store: %w", err)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	n := 0
	for _, k := range sortedKeys(s.index) {
		rec, err := s.readRecord(s.index[k])
		if err != nil || rec.typ != recPut || rec.key != k {
			delete(s.index, k)
			s.stats.CorruptEvicted++
			continue
		}
		data, err := planio.ToJSON(rec.value)
		if err != nil {
			delete(s.index, k)
			s.stats.CorruptEvicted++
			continue
		}
		name := exportName(rec.key, rec.engine)
		if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
			return n, fmt.Errorf("store: %w", err)
		}
		n++
	}
	return n, nil
}

// exportName builds a filesystem-safe file name from a job key. The key
// is "<64-hex-canonical>|<engine>"; the hex prefix is truncated for
// readability and the engine keeps the provenance visible.
func exportName(key, engine string) string {
	base := key
	if i := strings.IndexByte(base, '|'); i >= 0 {
		base = base[:i]
	}
	if len(base) > 16 {
		base = base[:16]
	}
	clean := func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '-', r == '_':
			return r
		default:
			return '-'
		}
	}
	base = strings.Map(clean, base)
	if engine != "" {
		base += "-" + strings.Map(clean, engine)
	}
	return base + ".json"
}

func sortedKeys(m map[string]loc) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// Close flushes pending writes, stops the group-commit flusher and
// closes the files. Safe to call once; the store is unusable after.
func (s *Store) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	err := s.syncLocked()
	s.closed = true
	s.mu.Unlock()
	if s.flushStop != nil {
		close(s.flushStop)
		<-s.flushDone
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.wal != nil {
		s.wal.Close()
	}
	return err
}
