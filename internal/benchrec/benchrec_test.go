package benchrec

import (
	"bytes"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
)

func TestAppendAddsStampedLinesAndNeverRewrites(t *testing.T) {
	path := filepath.Join(t.TempDir(), "BENCH.jsonl")
	if _, err := appendRecord(path, "one", map[string]any{"nsPerOp": 1}); err != nil {
		t.Fatal(err)
	}
	first, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := appendRecord(path, "two", map[string]any{"nsPerOp": 2}); err != nil {
		t.Fatal(err)
	}
	both, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(both, first) {
		t.Fatalf("second append rewrote the first line:\n%s", both)
	}
	lines := bytes.Split(bytes.TrimSuffix(both, []byte("\n")), []byte("\n"))
	if len(lines) != 2 {
		t.Fatalf("got %d lines, want 2:\n%s", len(lines), both)
	}
	for i, l := range lines {
		var got map[string]any
		if err := json.Unmarshal(l, &got); err != nil {
			t.Fatalf("line %d: %v", i, err)
		}
		for _, k := range []string{"tier", "commit", "goVersion", "cpu", "time"} {
			if s, _ := got[k].(string); s == "" {
				t.Errorf("line %d: stamp field %q missing or empty: %s", i, k, l)
			}
		}
		if _, ok := got["dirty"].(bool); !ok {
			t.Errorf("line %d: stamp field \"dirty\" missing: %s", i, l)
		}
		if n, _ := got["gomaxprocs"].(float64); n < 1 {
			t.Errorf("line %d: stamp field \"gomaxprocs\" missing or < 1: %s", i, l)
		}
		rec, _ := got["record"].(map[string]any)
		if rec["nsPerOp"] != float64(i+1) {
			t.Errorf("line %d: record %v, want nsPerOp %d", i, got["record"], i+1)
		}
	}
}

func TestEmitAppendsOnlyWhenEnvSet(t *testing.T) {
	t.Setenv(Env, "")
	Emit(t, "tier", map[string]any{"x": 1}) // must neither write nor fail
	if Enabled() {
		t.Fatal("Enabled with the variable empty")
	}
	path := filepath.Join(t.TempDir(), "h.jsonl")
	t.Setenv(Env, path)
	Emit(t, "tier", map[string]any{"x": 1})
	if data, err := os.ReadFile(path); err != nil || bytes.Count(data, []byte("\n")) != 1 {
		t.Fatalf("Emit with %s set wrote %q, %v; want one line", Env, data, err)
	}
}

func TestStampDirtyIgnoresTheHistoryFile(t *testing.T) {
	dir := t.TempDir()
	run := func(args ...string) {
		t.Helper()
		cmd := exec.Command("git", args...)
		cmd.Dir = dir
		if out, err := cmd.CombinedOutput(); err != nil {
			t.Skipf("git %v: %v\n%s", args, err, out)
		}
	}
	run("init", "-q")
	if err := os.WriteFile(filepath.Join(dir, "src.go"), []byte("package x\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	run("add", "src.go")
	run("-c", "user.name=t", "-c", "user.email=t@t", "commit", "-q", "-m", "init")
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(dir); err != nil {
		t.Fatal(err)
	}
	defer os.Chdir(wd)

	history := filepath.Join(dir, "BENCH.jsonl")
	if _, err := appendRecord(history, "a", 1); err != nil {
		t.Fatal(err)
	}
	if s := newStamp(history); s.Dirty || s.Commit == "unknown" {
		t.Fatalf("only the history file changed: stamp %+v, want clean at a known commit", s)
	}
	if err := os.WriteFile(filepath.Join(dir, "src.go"), []byte("package y\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if s := newStamp(history); !s.Dirty {
		t.Fatalf("a source file changed: stamp %+v, want dirty", s)
	}
}
