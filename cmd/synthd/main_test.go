package main

import (
	"flag"
	"slices"
	"testing"
	"time"

	"switchsynth/internal/service"
)

// synthdFlags is synthd's complete flag surface: deployment settings
// only. A new flag must be added here, on purpose.
var synthdFlags = []string{
	"addr", "cache", "drain-timeout", "export-plans", "node-id", "peers",
	"pprof-addr", "solver-workers", "store-dir", "timelimit", "workers",
}

func TestParseFlags(t *testing.T) {
	fs := flag.NewFlagSet("synthd", flag.ContinueOnError)
	cfg, srvf := parseFlags(fs, []string{
		"-addr", "127.0.0.1:9000", "-workers", "3", "-solver-workers", "4",
		"-cache", "99", "-timelimit", "5s", "-drain-timeout", "2s",
		"-store-dir", "/tmp/plans", "-export-plans", "/tmp/dump",
		"-pprof-addr", "127.0.0.1:6060",
		"-node-id", "a", "-peers", "a=http://h1:1,b=http://h2:1",
	})
	var names []string
	fs.VisitAll(func(f *flag.Flag) { names = append(names, f.Name) })
	if !slices.Equal(names, synthdFlags) {
		t.Errorf("flags = %v, want exactly %v", names, synthdFlags)
	}
	if srvf.Addr != "127.0.0.1:9000" {
		t.Errorf("addr = %q", srvf.Addr)
	}
	if cfg.Workers != 3 || cfg.CacheSize != 99 {
		t.Errorf("cfg = %+v", cfg)
	}
	if cfg.SolverWorkers != 4 {
		t.Errorf("solver workers = %d", cfg.SolverWorkers)
	}
	if cfg.DefaultTimeLimit != 5*time.Second {
		t.Errorf("time limit = %v", cfg.DefaultTimeLimit)
	}
	if srvf.Drain != 2*time.Second {
		t.Errorf("drain = %v", srvf.Drain)
	}
	if srvf.StoreDir != "/tmp/plans" || srvf.ExportDir != "/tmp/dump" {
		t.Errorf("store flags = %q, %q", srvf.StoreDir, srvf.ExportDir)
	}
	if srvf.PprofAddr != "127.0.0.1:6060" {
		t.Errorf("pprof addr = %q", srvf.PprofAddr)
	}
	// parseFlags only carries the configuration; the store is opened (and
	// wired into cfg.Store) by main, so no directory is touched here.
	if cfg.Store != nil {
		t.Error("parseFlags should not open the store")
	}
	if srvf.NodeID != "a" || srvf.Peers != "a=http://h1:1,b=http://h2:1" {
		t.Errorf("cluster flags = %q, %q", srvf.NodeID, srvf.Peers)
	}
	// parseFlags only carries the configuration; the cluster (and the
	// engine's fill hook) are built by main.
	if cfg.PeerFill != nil {
		t.Error("parseFlags should not wire the peer-fill hook")
	}
}

func TestBuildCluster(t *testing.T) {
	var eng *service.Engine
	cl, err := buildCluster("a=http://h1:1,b=http://h2:1", "a", &eng)
	if err != nil {
		t.Fatal(err)
	}
	if cl.SelfID() != "a" || len(cl.Ring().Members()) != 2 {
		t.Errorf("cluster = self %q, %d members", cl.SelfID(), len(cl.Ring().Members()))
	}

	// A node id missing from the list, or no id at all, is a config
	// error the daemon must refuse to boot with.
	if _, err := buildCluster("a=http://h1:1", "", &eng); err == nil {
		t.Error("missing -node-id accepted")
	}
	if _, err := buildCluster("a=http://h1:1", "z", &eng); err == nil {
		t.Error("-node-id absent from -peers accepted")
	}
	if _, err := buildCluster("garbage", "a", &eng); err == nil {
		t.Error("malformed -peers accepted")
	}
}

func TestParseFlagsDefaults(t *testing.T) {
	cfg, srvf := parseFlags(flag.NewFlagSet("synthd", flag.ContinueOnError), nil)
	if srvf.Addr != ":8471" {
		t.Errorf("addr = %q", srvf.Addr)
	}
	if cfg.CacheSize != 1024 || cfg.DefaultTimeLimit != 30*time.Second {
		t.Errorf("cfg = %+v", cfg)
	}
	if srvf.Drain != 30*time.Second {
		t.Errorf("drain = %v, want 30s default", srvf.Drain)
	}
	// Zero values defer to the service defaults (sequential solver, a
	// queue of 4x workers).
	if cfg.Workers != 0 || cfg.SolverWorkers != 0 || cfg.QueueDepth != 0 {
		t.Errorf("tuning cfg should default to zero: %+v", cfg)
	}
	// Profiling is opt-in and off by default.
	if srvf.PprofAddr != "" {
		t.Errorf("pprof addr should default empty, got %q", srvf.PprofAddr)
	}
	// The durable tier and clustering are opt-in.
	if srvf.StoreDir != "" || srvf.ExportDir != "" || srvf.Peers != "" || srvf.NodeID != "" {
		t.Errorf("store and cluster flags should default empty: %+v", srvf)
	}
}

func TestValidatePprofAddr(t *testing.T) {
	valid := []string{"127.0.0.1:6060", "localhost:6060", "[::1]:6060", "127.0.0.2:80"}
	for _, addr := range valid {
		if err := validatePprofAddr(addr); err != nil {
			t.Errorf("validatePprofAddr(%q) = %v, want nil", addr, err)
		}
	}
	invalid := []string{
		"0.0.0.0:6060",     // all interfaces
		":6060",            // empty host binds all interfaces
		"192.168.1.5:6060", // routable
		"example.com:6060", // non-loopback name
		"[::]:6060",        // all interfaces, v6
		"127.0.0.1",        // missing port
	}
	for _, addr := range invalid {
		if err := validatePprofAddr(addr); err == nil {
			t.Errorf("validatePprofAddr(%q) accepted a non-loopback or malformed address", addr)
		}
	}
}
