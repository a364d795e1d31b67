// Package benchrec appends stamped benchmark records to one JSON-lines
// history file. Only test code imports it: a report test measures one
// tier, enforces that tier's gates, and hands the record to Emit, which
// adds one line per call and never rewrites an earlier one.
package benchrec

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"
)

// Env names the environment variable that holds the history file's
// path. Tests run in their package directory, so give an absolute path.
const Env = "BENCH_HISTORY"

// Enabled reports whether Env names a history file.
func Enabled() bool { return os.Getenv(Env) != "" }

// stamp says where and when a record was measured. Test binaries carry
// no vcs build settings, so the commit comes from git, or is "unknown"
// outside a work tree.
type stamp struct {
	Commit     string `json:"commit"`
	Dirty      bool   `json:"dirty"` // work tree differs from Commit, the history file aside
	GoVersion  string `json:"goVersion"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPU        string `json:"cpu"`
	Time       string `json:"time"` // UTC, RFC 3339
}

// line is one history entry. Tier comes first so that
// `tac BENCH.jsonl | sort -s -u -t, -k1,1` prints the latest line of
// each tier.
type line struct {
	Tier string `json:"tier"`
	stamp
	Record any `json:"record"`
}

// Emit appends rec as tier's line to the file Env names and logs the
// line. It does nothing when Env is unset, and appends nothing once tb
// has failed: the history holds only records whose gates passed.
func Emit(tb testing.TB, tier string, rec any) {
	tb.Helper()
	path := os.Getenv(Env)
	if path == "" {
		return
	}
	if tb.Failed() {
		tb.Logf("benchrec: %s failed; no record appended", tier)
		return
	}
	data, err := appendRecord(path, tier, rec)
	if err != nil {
		tb.Fatalf("benchrec: %v", err)
	}
	tb.Logf("%s", data)
}

// appendRecord stamps rec, appends it to path as one line (creating the
// file if needed) and returns the line without its newline.
func appendRecord(path, tier string, rec any) ([]byte, error) {
	data, err := json.Marshal(line{Tier: tier, stamp: newStamp(path), Record: rec})
	if err != nil {
		return nil, fmt.Errorf("encode %s record: %w", tier, err)
	}
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND|os.O_CREATE, 0o644)
	if err != nil {
		return nil, err
	}
	if _, err := f.Write(append(data, '\n')); err != nil {
		f.Close()
		return nil, fmt.Errorf("append to %s: %w", path, err)
	}
	if err := f.Close(); err != nil {
		return nil, fmt.Errorf("close %s: %w", path, err)
	}
	return data, nil
}

// newStamp stamps a record bound for the history file at history, which
// the dirty check ignores: earlier records of the same run modify it.
func newStamp(history string) stamp {
	s := stamp{
		Commit:     "unknown",
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPU:        cpuModel(),
		Time:       time.Now().UTC().Format(time.RFC3339),
	}
	commit, err := git("rev-parse", "HEAD")
	if err != nil {
		return s
	}
	s.Commit = strings.TrimSpace(commit)
	top, err := git("rev-parse", "--show-toplevel")
	if err != nil {
		return s
	}
	// Porcelain paths are relative to the top of the work tree.
	status, err := git("status", "--porcelain")
	if err != nil {
		return s
	}
	skip, _ := filepath.Abs(history)
	if real, err := filepath.EvalSymlinks(skip); err == nil {
		skip = real // git reports the top with symlinks resolved
	}
	for _, l := range strings.Split(status, "\n") {
		if len(l) > 3 && filepath.Join(strings.TrimSpace(top), l[3:]) != skip {
			s.Dirty = true
			break
		}
	}
	return s
}

func git(args ...string) (string, error) {
	out, err := exec.Command("git", args...).Output()
	return string(out), err
}

// cpuModel returns the first "model name" of /proc/cpuinfo, or
// "unknown" where there is none.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		k, v, ok := strings.Cut(sc.Text(), ":")
		if ok && strings.TrimSpace(k) == "model name" {
			if v = strings.TrimSpace(v); v != "" {
				return v
			}
		}
	}
	return "unknown"
}
