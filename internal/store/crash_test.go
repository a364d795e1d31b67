// Crash-recovery chaos suite: 25 seeded fault schedules drive the store
// through torn appends, corrupted records and failed fsyncs, then
// simulate a process crash — the directory is reopened exactly as the
// last write left it, optionally mutilated beyond the durable offset the
// way a real crash mutilates an OS cache — and the recovery invariants
// are asserted:
//
//  1. Reopen never errors: the torn tail is truncated and the store
//     serves.
//  2. Every record fsynced before the crash is recovered (asserted in
//     schedules without injected record corruption; a corrupt record is
//     acked but unreadable, so its key falls back to an older version).
//  3. No corrupt plan is ever served: every Get after recovery returns
//     a byte-exact value that was previously acked for that key.
//  4. Reopen is idempotent: a second open of the recovered directory
//     sees identical contents and truncates nothing.
package store

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"switchsynth/internal/faultinject"
)

// crashSeeds is how many deterministic fault schedules the suite replays.
const crashSeeds = 25

// crash simulates process death: the flusher stops without a final sync,
// the descriptors close, and the directory is left exactly as the last
// write left it. Test-only; defined here so production code carries no
// crash hook.
func (s *Store) crash() {
	s.mu.Lock()
	s.closed = true
	wal := s.wal
	s.mu.Unlock()
	if s.flushStop != nil {
		close(s.flushStop)
		<-s.flushDone
	}
	wal.Close()
}

// durableOffset reports the fsynced WAL prefix (test-only).
func (s *Store) durableOffset() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.walDurable
}

// valFor is the deterministic payload for (key, version): recovery tests
// re-derive it to prove a served value is byte-exact, never a blend of
// torn or corrupted records.
func valFor(key string, ver int) []byte {
	pad := strings.Repeat(fmt.Sprintf("<%s:%d>", key, ver), 1+ver%7)
	return []byte(fmt.Sprintf("%s#%d#%s", key, ver, pad))
}

// parseVal inverts valFor, returning the embedded version or an error.
func parseVal(key string, data []byte) (int, error) {
	parts := strings.SplitN(string(data), "#", 3)
	if len(parts) != 3 || parts[0] != key {
		return 0, fmt.Errorf("malformed value %.40q for key %q", data, key)
	}
	ver, err := strconv.Atoi(parts[1])
	if err != nil {
		return 0, err
	}
	if !bytes.Equal(data, valFor(key, ver)) {
		return 0, fmt.Errorf("value for %q claims version %d but bytes differ", key, ver)
	}
	return ver, nil
}

func TestChaosCrashRecovery(t *testing.T) {
	seeds := crashSeeds
	if testing.Short() {
		seeds = 5
	}
	for seed := 0; seed < seeds; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			runCrashSchedule(t, int64(seed))
		})
	}
}

func runCrashSchedule(t *testing.T, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	// Every third schedule also injects record corruption; those assert
	// the never-serve-corrupt and idempotence invariants but not exact
	// durable recovery. A corrupt record is acked yet can never be read:
	// replay skips it, so its key falls back to the key's previous
	// record, which the fsync may already have superseded, and two
	// corrupt records in a row end the log at the first of them.
	corruptSeed := seed%3 == 0
	inj := faultinject.New(seed).
		Set(faultinject.DiskShortWrite, faultinject.Rule{Probability: 0.12}).
		Set(faultinject.DiskFsyncErr, faultinject.Rule{Probability: 0.15})
	if corruptSeed {
		inj.Set(faultinject.DiskCorrupt, faultinject.Rule{Probability: 0.12})
	}
	dir := t.TempDir()
	// The flusher never ticks during the schedule, so durability moves
	// only at explicit Sync calls and the model below tracks it exactly.
	s, err := Open(dir, Options{
		FlushInterval: time.Hour,
		FaultInjector: inj,
	})
	if err != nil {
		t.Fatal(err)
	}

	keys := []string{"a|search", "b|search", "c|search", "d|iqp", "e|iqp", "f|search"}
	var (
		nextVer = map[string]int{}          // monotonic per-key version counter
		acked   = map[string]int{}          // latest acked version (0 = absent)
		syncVer = map[string]int{}          // acked state at the last successful Sync
		allowed = map[string]map[int]bool{} // versions recovery may legally surface
	)
	for _, k := range keys {
		allowed[k] = map[int]bool{0: true}
	}
	markSync := func() {
		for _, k := range keys {
			syncVer[k] = acked[k]
			allowed[k] = map[int]bool{acked[k]: true}
		}
	}

	ops := 40 + rng.Intn(40)
	for i := 0; i < ops; i++ {
		k := keys[rng.Intn(len(keys))]
		switch r := rng.Float64(); {
		case r < 0.70:
			nextVer[k]++
			v := nextVer[k]
			if err := s.Put(k, "search", valFor(k, v)); err == nil {
				acked[k] = v
				allowed[k][v] = true
			} else {
				nextVer[k]-- // unacked version numbers are never reused on disk
			}
		case r < 0.80:
			if err := s.Delete(k); err == nil {
				acked[k] = 0
				allowed[k][0] = true
			}
		case r < 0.92:
			if err := s.Sync(); err == nil {
				markSync()
			}
		default:
			if got, _, ok := s.Get(k); ok {
				if _, err := parseVal(k, got); err != nil {
					t.Fatalf("pre-crash Get served corrupt value: %v", err)
				}
			}
		}
	}
	durable := s.durableOffset()
	s.crash()

	// Mutilate the WAL beyond the durable offset: a crash may lose or
	// garble anything the OS had not yet fsynced, but never bytes below
	// the durable watermark.
	walPath := filepath.Join(dir, walName)
	if fi, err := os.Stat(walPath); err == nil && fi.Size() > durable {
		tail := fi.Size() - durable
		switch rng.Intn(3) {
		case 0: // everything written survived
		case 1: // a suffix of the unsynced tail vanishes
			if err := os.Truncate(walPath, durable+rng.Int63n(tail+1)); err != nil {
				t.Fatal(err)
			}
		case 2: // a byte of the unsynced tail flips
			f, err := os.OpenFile(walPath, os.O_WRONLY, 0)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := f.WriteAt([]byte{byte(rng.Intn(256))}, durable+rng.Int63n(tail)); err != nil {
				t.Fatal(err)
			}
			f.Close()
		}
	}

	// Recovery runs clean (the injector died with the process).
	r, err := Open(dir, Options{FlushInterval: -1})
	if err != nil {
		t.Fatalf("reopen after crash: %v", err)
	}
	recovered := map[string]int{}
	for _, k := range keys {
		got, _, ok := r.Get(k)
		if !ok {
			recovered[k] = 0
			continue
		}
		ver, err := parseVal(k, got)
		if err != nil {
			t.Fatalf("recovered Get served corrupt value: %v", err)
		}
		if ver > nextVer[k] {
			t.Fatalf("key %q recovered version %d, never acked past %d", k, ver, nextVer[k])
		}
		recovered[k] = ver
	}
	if !corruptSeed {
		for _, k := range keys {
			// allowed holds the version at the last successful Sync plus
			// every version acked after it (including 0 for post-sync
			// deletes): recovery must land on one of those — never on a
			// version the fsync had already superseded.
			if !allowed[k][recovered[k]] {
				t.Errorf("key %q recovered version %d; durable version %d, allowed %v",
					k, recovered[k], syncVer[k], versions(allowed[k]))
			}
		}
	}

	// Reopen idempotence: same contents, nothing further to repair.
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	r2, err := Open(dir, Options{FlushInterval: -1})
	if err != nil {
		t.Fatalf("second reopen: %v", err)
	}
	defer r2.Close()
	if tb := r2.Stats().TruncatedBytes; tb != 0 {
		t.Errorf("second reopen truncated %d bytes; recovery repair was not durable", tb)
	}
	for _, k := range keys {
		got, _, ok := r2.Get(k)
		ver := 0
		if ok {
			if ver, err = parseVal(k, got); err != nil {
				t.Fatalf("second reopen served corrupt value: %v", err)
			}
		}
		if ver != recovered[k] {
			t.Errorf("key %q: reopen not idempotent (%d then %d)", k, recovered[k], ver)
		}
	}
	// The recovered store still takes writes.
	if err := r2.Put("post-crash|search", "search", valFor("post-crash|search", 1)); err != nil {
		t.Fatal(err)
	}
	if got, _, ok := r2.Get("post-crash|search"); !ok || !bytes.Equal(got, valFor("post-crash|search", 1)) {
		t.Fatal("recovered store does not serve new writes")
	}
}

func versions(set map[int]bool) []int {
	var out []int
	for v := range set {
		out = append(out, v)
	}
	return out
}

// TestChaosConcurrentFaultedTraffic hammers one store from many
// goroutines while every disk fault fires, then crashes and recovers.
// The model is integrity-only (no per-key version accounting across
// goroutines); its value is the -race coverage of Put/Get/Delete/Sync
// racing the group-commit flusher.
func TestChaosConcurrentFaultedTraffic(t *testing.T) {
	inj := faultinject.New(99).
		Set(faultinject.DiskShortWrite, faultinject.Rule{Probability: 0.05}).
		Set(faultinject.DiskCorrupt, faultinject.Rule{Probability: 0.05}).
		Set(faultinject.DiskFsyncErr, faultinject.Rule{Probability: 0.05})
	dir := t.TempDir()
	s, err := Open(dir, Options{
		FlushInterval: time.Millisecond,
		FaultInjector: inj,
	})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for i := 0; i < 60; i++ {
				k := fmt.Sprintf("k%d|search", rng.Intn(10))
				switch rng.Intn(4) {
				case 0, 1:
					_ = s.Put(k, "search", valFor(k, 1+rng.Intn(5)))
				case 2:
					if got, _, ok := s.Get(k); ok {
						if _, err := parseVal(k, got); err != nil {
							t.Errorf("corrupt value served: %v", err)
						}
					}
				case 3:
					_ = s.Delete(k)
				}
			}
		}()
	}
	wg.Wait()
	s.crash()
	r, err := Open(dir, Options{FlushInterval: -1})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer r.Close()
	for _, k := range r.Keys() {
		got, _, ok := r.Get(k)
		if !ok {
			continue
		}
		if _, err := parseVal(k, got); err != nil {
			t.Errorf("recovered corrupt value: %v", err)
		}
	}
}
