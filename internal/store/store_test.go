package store

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"testing/iotest"
	"time"

	"switchsynth/internal/faultinject"
)

// openT opens a store in dir, failing the test on error and closing it
// at cleanup (Close is idempotent, so tests may also close explicitly).
func openT(t *testing.T, dir string, opts Options) *Store {
	t.Helper()
	s, err := Open(dir, opts)
	if err != nil {
		t.Fatalf("Open(%s): %v", dir, err)
	}
	t.Cleanup(func() { _ = s.Close() })
	return s
}

// syncOpts makes every put durable immediately so tests never race the
// background flusher.
var syncOpts = Options{FlushInterval: -1}

func val(i int) []byte { return []byte(fmt.Sprintf(`{"plan":%d,"pad":"%032d"}`, i, i)) }

func TestPutGetDeleteRoundTrip(t *testing.T) {
	s := openT(t, t.TempDir(), syncOpts)
	for i := 0; i < 10; i++ {
		if err := s.Put(fmt.Sprintf("key-%d|search", i), "search", val(i)); err != nil {
			t.Fatal(err)
		}
	}
	if s.Len() != 10 {
		t.Fatalf("Len = %d, want 10", s.Len())
	}
	got, eng, ok := s.Get("key-3|search")
	if !ok || eng != "search" || !bytes.Equal(got, val(3)) {
		t.Fatalf("Get = %q, %q, %v", got, eng, ok)
	}
	if _, _, ok := s.Get("absent"); ok {
		t.Fatal("absent key hit")
	}
	if err := s.Delete("key-3|search"); err != nil {
		t.Fatal(err)
	}
	if _, _, ok := s.Get("key-3|search"); ok {
		t.Fatal("deleted key still served")
	}
	st := s.Stats()
	if st.Puts != 10 || st.Deletes != 1 || st.Hits != 1 || st.Misses != 2 || st.Entries != 9 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestPutOverwriteServesLatest(t *testing.T) {
	s := openT(t, t.TempDir(), syncOpts)
	for v := 0; v < 3; v++ {
		if err := s.Put("k|search", "search", val(v)); err != nil {
			t.Fatal(err)
		}
	}
	got, _, ok := s.Get("k|search")
	if !ok || !bytes.Equal(got, val(2)) {
		t.Fatalf("Get = %q, %v; want latest", got, ok)
	}
	if s.Len() != 1 {
		t.Fatalf("Len = %d", s.Len())
	}
}

func TestWarmBootReopen(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, dir, syncOpts)
	for i := 0; i < 5; i++ {
		if err := s.Put(fmt.Sprintf("k%d", i), "search", val(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Delete("k2"); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	r := openT(t, dir, syncOpts)
	st := r.Stats()
	if st.Entries != 4 {
		t.Fatalf("reopened entries = %d, want 4", st.Entries)
	}
	if st.Recovered != 6 { // 5 puts + 1 tombstone
		t.Fatalf("recovered = %d, want 6", st.Recovered)
	}
	if st.TruncatedBytes != 0 {
		t.Fatalf("clean reopen truncated %d bytes", st.TruncatedBytes)
	}
	if _, _, ok := r.Get("k2"); ok {
		t.Fatal("tombstoned key survived reopen")
	}
	got, _, ok := r.Get("k4")
	if !ok || !bytes.Equal(got, val(4)) {
		t.Fatalf("k4 = %q, %v", got, ok)
	}
}

func TestTornTailTruncatedAndReopenIdempotent(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, dir, syncOpts)
	for i := 0; i < 3; i++ {
		if err := s.Put(fmt.Sprintf("k%d", i), "search", val(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// Simulate a crash mid-append: garbage bytes at the WAL tail.
	wal := filepath.Join(dir, walName)
	f, err := os.OpenFile(wal, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{recPut, 0xde, 0xad, 0xbe, 0xef, 0x01}); err != nil {
		t.Fatal(err)
	}
	f.Close()
	before, _ := os.Stat(wal)

	r := openT(t, dir, syncOpts)
	st := r.Stats()
	if st.Entries != 3 || st.TruncatedBytes != 6 {
		t.Fatalf("stats after torn reopen = %+v", st)
	}
	after, _ := os.Stat(wal)
	if after.Size() != before.Size()-6 {
		t.Fatalf("wal size %d, want %d", after.Size(), before.Size()-6)
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}

	// Second reopen: the repair is durable, nothing left to truncate.
	r2 := openT(t, dir, syncOpts)
	st2 := r2.Stats()
	if st2.Entries != 3 || st2.TruncatedBytes != 0 {
		t.Fatalf("second reopen = %+v", st2)
	}
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestRottenRecordCostsOneRecord flips a payload byte of the first of
// four fsynced records: reopen skips that record and keeps the three
// after it, instead of truncating the log at the rot.
func TestRottenRecordCostsOneRecord(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, dir, syncOpts)
	for i := 0; i < 4; i++ {
		if err := s.Put(fmt.Sprintf("k%d", i), "search", val(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	wal := filepath.Join(dir, walName)
	data, err := os.ReadFile(wal)
	if err != nil {
		t.Fatal(err)
	}
	data[recHeaderLen+len("k0")+len("search")] ^= 0xFF
	if err := os.WriteFile(wal, data, 0o644); err != nil {
		t.Fatal(err)
	}

	for pass := 0; pass < 2; pass++ { // the second open must see the same
		r := openT(t, dir, syncOpts)
		st := r.Stats()
		if st.Entries != 3 || st.Recovered != 3 || st.CorruptEvicted != 1 || st.TruncatedBytes != 0 {
			t.Fatalf("pass %d: stats = %+v, want 3 entries, 1 skipped, 0 truncated", pass, st)
		}
		if st.DiskBytes != int64(len(data)) {
			t.Fatalf("pass %d: DiskBytes = %d, want %d", pass, st.DiskBytes, len(data))
		}
		if _, _, ok := r.Get("k0"); ok {
			t.Fatalf("pass %d: rotten record served", pass)
		}
		for i := 1; i < 4; i++ {
			if got, _, ok := r.Get(fmt.Sprintf("k%d", i)); !ok || !bytes.Equal(got, val(i)) {
				t.Fatalf("pass %d: k%d = %q, %v", pass, i, got, ok)
			}
		}
		if err := r.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestStoreStaysOneLog writes more than 8 MiB of distinct plans under the
// default options: the directory holds only the WAL, and its size is
// exactly the bytes appended.
func TestStoreStaysOneLog(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, dir, Options{})
	var appended int64
	for i := 0; appended <= 9<<20; i++ {
		rec := record{typ: recPut, key: fmt.Sprintf("%064x|search", i), engine: "search", value: val(i)}
		if err := s.Put(rec.key, rec.engine, rec.value); err != nil {
			t.Fatal(err)
		}
		appended += int64(rec.size())
	}
	if got := s.Stats().DiskBytes; got != appended {
		t.Fatalf("DiskBytes = %d, want %d appended", got, appended)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Name() != walName {
		var names []string
		for _, e := range entries {
			names = append(names, e.Name())
		}
		t.Fatalf("store directory holds %v, want only %s", names, walName)
	}
	if fi, err := os.Stat(filepath.Join(dir, walName)); err != nil || fi.Size() != appended {
		t.Fatalf("wal.log = %v, %v; want %d bytes", fi, err, appended)
	}
}

func TestCorruptRecordEvictedOnGet(t *testing.T) {
	inj := faultinject.New(1).Set(faultinject.DiskCorrupt, faultinject.Rule{Probability: 1})
	s := openT(t, t.TempDir(), Options{FlushInterval: -1, FaultInjector: inj})
	if err := s.Put("k|search", "search", val(1)); err != nil {
		t.Fatal(err)
	}
	if _, _, ok := s.Get("k|search"); ok {
		t.Fatal("corrupted record served")
	}
	st := s.Stats()
	if st.CorruptEvicted != 1 || st.Misses != 1 || st.Entries != 0 {
		t.Fatalf("stats = %+v", st)
	}
	// The fault injector keeps firing, but a clean write after the rule
	// is lifted serves normally.
	inj.Set(faultinject.DiskCorrupt, faultinject.Rule{})
	if err := s.Put("k|search", "search", val(2)); err != nil {
		t.Fatal(err)
	}
	if got, _, ok := s.Get("k|search"); !ok || !bytes.Equal(got, val(2)) {
		t.Fatalf("clean rewrite = %q, %v", got, ok)
	}
}

func TestShortWriteFailsPutAndNextAppendRepairs(t *testing.T) {
	dir := t.TempDir()
	inj := faultinject.New(1).Set(faultinject.DiskShortWrite, faultinject.Rule{Probability: 1})
	s := openT(t, dir, Options{FlushInterval: -1, FaultInjector: inj})
	if err := s.Put("good-0", "search", val(0)); err == nil {
		t.Fatal("short write should fail the put")
	}
	if s.Len() != 0 {
		t.Fatal("torn put was indexed")
	}
	inj.Set(faultinject.DiskShortWrite, faultinject.Rule{})
	if err := s.Put("good-1", "search", val(1)); err != nil {
		t.Fatal(err)
	}
	if s.Stats().TornRepaired != 1 {
		t.Fatalf("stats = %+v, want 1 torn repair", s.Stats())
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// The repair truncated the torn bytes before appending, so the log
	// is contiguous: reopen recovers the good record with no truncation.
	r := openT(t, dir, syncOpts)
	st := r.Stats()
	if st.Entries != 1 || st.TruncatedBytes != 0 {
		t.Fatalf("reopen stats = %+v", st)
	}
	if got, _, ok := r.Get("good-1"); !ok || !bytes.Equal(got, val(1)) {
		t.Fatalf("good-1 = %q, %v", got, ok)
	}
}

func TestFsyncErrorDoesNotAdvanceDurableOffset(t *testing.T) {
	inj := faultinject.New(1).Set(faultinject.DiskFsyncErr, faultinject.Rule{Probability: 1})
	s := openT(t, t.TempDir(), Options{FlushInterval: -1, FaultInjector: inj})
	if err := s.Put("k", "search", val(1)); err == nil {
		t.Fatal("synchronous put should surface the fsync error")
	}
	if s.Stats().FsyncErrors != 1 {
		t.Fatalf("stats = %+v", s.Stats())
	}
	s.mu.Lock()
	durable := s.walDurable
	s.mu.Unlock()
	if durable != 0 {
		t.Fatalf("durable offset advanced to %d past a failed fsync", durable)
	}
	// The entry is still readable (it is in the OS cache, just not
	// durable) and a later successful sync makes it durable.
	if _, _, ok := s.Get("k"); !ok {
		t.Fatal("acked entry unreadable")
	}
	inj.Set(faultinject.DiskFsyncErr, faultinject.Rule{})
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}
	s.mu.Lock()
	durable, size := s.walDurable, s.walSize
	s.mu.Unlock()
	if durable != size {
		t.Fatalf("durable %d != size %d after successful sync", durable, size)
	}
}

func TestExportWritesPlanFiles(t *testing.T) {
	s := openT(t, t.TempDir(), syncOpts)
	if err := s.Put("aabbccddeeff00112233|search", "search", val(7)); err != nil {
		t.Fatal(err)
	}
	if err := s.Put("ffee|iqp", "iqp", val(8)); err != nil {
		t.Fatal(err)
	}
	out := t.TempDir()
	n, err := s.Export(out)
	if err != nil || n != 2 {
		t.Fatalf("Export = %d, %v", n, err)
	}
	data, err := os.ReadFile(filepath.Join(out, "aabbccddeeff0011-search.json"))
	if err != nil || !bytes.Equal(data, val(7)) {
		t.Fatalf("exported file = %q, %v", data, err)
	}
	if _, err := os.Stat(filepath.Join(out, "ffee-iqp.json")); err != nil {
		t.Fatal(err)
	}
}

func TestGroupCommitFlusherMakesPutsDurable(t *testing.T) {
	s := openT(t, t.TempDir(), Options{FlushInterval: time.Millisecond})
	if err := s.Put("k", "search", val(1)); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "group commit", func() bool {
		s.mu.Lock()
		defer s.mu.Unlock()
		return s.walDurable == s.walSize && s.walSize > 0
	})
	if s.Stats().Flushes == 0 {
		t.Fatal("no flush recorded")
	}
}

func TestClosedStoreRejectsWrites(t *testing.T) {
	s := openT(t, t.TempDir(), syncOpts)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Put("k", "e", val(1)); err == nil {
		t.Fatal("put on closed store succeeded")
	}
	if _, _, ok := s.Get("k"); ok {
		t.Fatal("get on closed store hit")
	}
	if err := s.Close(); err != nil {
		t.Fatal("second close should be a nop")
	}
}

// TestOpenAllocatesForLiveKeysOnly reopens a log of 2,000 distinct 4 KiB
// plans, a rewrite of every tenth and a delete of every seventh. Replay
// streams the log: Open may allocate the live index — each live key's
// bytes plus a fixed per-entry map cost — one maximum-size record and a
// constant, never the log itself (about 8 MiB here).
func TestOpenAllocatesForLiveKeysOnly(t *testing.T) {
	const (
		plans      = 2000
		perEntry   = 256 // index map slot and growth, per live key
		constBytes = 256 << 10
	)
	dir := t.TempDir()
	s := openT(t, dir, Options{})
	value := bytes.Repeat([]byte{'p'}, 4<<10)
	key := func(i int) string { return fmt.Sprintf("%064x|search", i) }
	for i := 0; i < plans; i++ {
		if err := s.Put(key(i), "search", value); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < plans; i += 10 {
		if err := s.Put(key(i), "search", value); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < plans; i += 7 {
		if err := s.Delete(key(i)); err != nil {
			t.Fatal(err)
		}
	}
	liveKeyBytes := 0
	for _, k := range s.Keys() {
		liveKeyBytes += len(k)
	}
	live, walBytes := s.Len(), s.Stats().DiskBytes
	maxRecord := (&record{typ: recPut, key: key(0), engine: "search", value: value}).size()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	r, err := Open(dir, syncOpts)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if r.Len() != live {
		t.Fatalf("reopened %d entries, want %d", r.Len(), live)
	}
	alloc := after.TotalAlloc - before.TotalAlloc
	limit := uint64(liveKeyBytes + perEntry*live + maxRecord + constBytes)
	t.Logf("Open of a %d-byte log with %d live keys (%d key bytes) allocated %d bytes, limit %d",
		walBytes, live, liveKeyBytes, alloc, limit)
	if alloc > limit {
		t.Fatalf("Open allocated %d bytes, more than the live index + one record + a constant (%d)", alloc, limit)
	}
}

// TestReplayTellsReadErrorsFromTornTails cuts the last of three records
// short: ending there is a torn tail after two records, while a read
// error at the same place fails the replay, so recover never truncates
// a log it could not read.
func TestReplayTellsReadErrorsFromTornTails(t *testing.T) {
	var log []byte
	for i := 0; i < 3; i++ {
		rec := record{typ: recPut, key: fmt.Sprintf("k%d", i), engine: "search", value: val(i)}
		log = rec.encode(log)
	}
	cut := log[:len(log)-5]
	good := int64(2 * (&record{typ: recPut, key: "k0", engine: "search", value: val(0)}).size())

	s := &Store{index: map[string]loc{}}
	if off, err := s.replay(newWALReader(bytes.NewReader(cut))); err != nil || off != good || len(s.index) != 2 {
		t.Fatalf("torn tail: replay = %d, %v with %d keys; want %d, nil with 2", off, err, len(s.index), good)
	}
	boom := errors.New("disk gone")
	s = &Store{index: map[string]loc{}}
	if _, err := s.replay(newWALReader(io.MultiReader(bytes.NewReader(cut), iotest.ErrReader(boom)))); !errors.Is(err, boom) {
		t.Fatalf("read error: replay error = %v, want %v", err, boom)
	}
}
