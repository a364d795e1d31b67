// Command synthd serves switch synthesis over HTTP: a bounded worker
// pool solves specs concurrently, isomorphic specs are answered from a
// canonical-key result cache, and concurrent requests for the same spec
// coalesce onto one solve.
//
// Usage:
//
//	synthd [-addr :8471] [-workers N] [-solver-workers N] [-cache N]
//	       [-timelimit 30s] [-drain-timeout 30s]
//	       [-store-dir DIR] [-export-plans DIR] [-pprof-addr 127.0.0.1:6060]
//	       [-node-id ID -peers ID=URL,ID=URL,...]
//
// The flags are deployment settings only. Tuning values are constants:
// the job queue holds 4×workers, the admission wait watermark is 30s,
// the negative cache holds 256 proofs, the store
// group-commits every 5ms to its one append-only log, and the cluster
// probes peers every 2s, runs anti-entropy every 15s and keeps 2
// replicas of each plan (1 on a single-node cluster).
//
// -workers sizes the job pool (how many specs solve at once);
// -solver-workers sizes each solve (how many branch-and-bound goroutines
// explore one spec's search tree). Plans are bit-identical for every
// -solver-workers value, so the knob is safe to tune in production
// without invalidating caches. -pprof-addr exposes net/http/pprof on a
// second, loopback-only listener (off by default; never on the service
// address).
//
// Admission runs through a per-tenant weighted fair queue (see DESIGN.md
// §9): requests name their tenant and priority class via the
// X-Synthd-Tenant / X-Synthd-Priority headers, classes share the workers
// by deficit round-robin, and under load the lower classes are shed
// early with 429s whose Retry-After is measured from the observed
// dequeue rate. Past the global wait watermark — the queue's predicted
// wait for a new arrival exceeds 30s — every class, interactive
// included, is shed rather than queued beyond use.
//
// With -store-dir the result cache gains a durable tier: solved proven
// plans are persisted to a WAL-backed, content-addressed store in DIR,
// and a restarted daemon warm-boots from it — a previously solved spec
// (or any rotated/permuted equivalent) is answered from disk with zero
// solver invocations. -export-plans dumps every persisted plan from
// -store-dir as planio JSON files into DIR (for cmd/verifyplan audit)
// and exits without serving.
//
// With -peers (and a -node-id naming this instance's entry in the
// list) the daemon joins a consistent-hash sharded cluster: each spec's
// canonical key has one owning node and one successor forming its
// replica set. Non-owners proxy /synthesize to the owner, failing over
// to the successor when the owner is down and falling back to a local
// solve when no replica answers; a forward is bounded by the caller's
// request alone, so it lasts as long as the owner's solve. Routing is a
// hook of the service handler (service.HandlerConfig.Cluster): each
// node reads, decodes and canonicalizes a request once, and the cluster
// decides from that key whether to forward the bytes, so a request the
// node refuses is refused where it lands. Local cache misses try the
// replica set's plans before solving; freshly proven plans are pushed
// asynchronously to the key's replica set; and a background
// anti-entropy loop — the one repair path — pulls plans this node
// replicates but lacks, so a killed-and-restarted node re-converges.
// The cluster reports its ring, peer health and counters in the
// "cluster" block of GET /metrics. The peer list is static and must be
// identical on every node, and each URL must be exactly
// http://host:port; see DESIGN.md §8.
//
// Plans sit on disk and travel between nodes in one format, the binary
// planio frame; JSON is only for export and humans. Every plan the
// daemon did not just solve itself — read from disk, filled from a
// peer, pushed or pulled by anti-entropy — passes one admission check
// (binary-frame decode with its CRC32C, optimality proof, canonical-key
// re-derivation, contamination verification) before it is served or
// stored; a plan it did solve passes the same contamination check
// first. A JSON record an older build left in -store-dir carries no
// checksum: it is refused, deleted and re-solved.
//
// Everything the daemon keeps and shares under a key is solved on the
// spec's nameless canonical form, so no stored, replicated or watched
// plan names the tenant whose request produced it; a requester sees
// its plan (or error) under its own spec's name.
//
// On SIGINT/SIGTERM the daemon drains gracefully: /readyz flips to 503
// so cluster peers stop routing here, the listener stops accepting,
// in-flight and queued solves get -drain-timeout to finish, and
// whatever is still running after that is cancelled (anytime solves
// return their best incumbent as a degraded plan). The store is closed
// — final group commit included — after the engine stops writing.
//
// Endpoints:
//
//	POST /synthesize              {"spec": {...}, "options": {"pressureSharing": true, "svg": true}};
//	                              with ?wait=proof the response is an ndjson
//	                              stream of improving anytime plans ending in
//	                              the proven one
//	POST /synthesize/batch        {"specs": [{"spec": ...}, ...], "options": ...};
//	                              members are canonicalized and deduped, one
//	                              solve per distinct key, per-item outcomes
//	GET  /synthesize/stream/{key} attach to a key's in-flight solve and follow
//	                              its incumbents (ndjson; nameless frames)
//	GET  /healthz                 liveness and pool shape
//	GET  /readyz                  readiness: 200 serving, 503 once draining
//	GET  /metrics                 job/cache/store/admission counters as JSON,
//	                              plus a "cluster" block (ring, peer health,
//	                              forward/fill/sync counters) on a cluster node
//	GET  /plans                   manifest of locally held plan keys
//	GET  /plans/{key}             one plan frame transcoded to the JSON file
//	                              format (404 when absent)
//	GET  /plans.stream            upgrade to the plan stream peers fetch plan
//	                              frames over
//	PUT  /plans/{key}             receive a peer's replication push (re-verified
//	                              before storing; 204 ok, 422 rejected)
//
// The spec payload is the same JSON format cmd/switchsynth reads; the
// response embeds the routed plan in the cmd/verifyplan format. See the
// README's "Serving" section for curl examples.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"switchsynth/internal/cluster"
	"switchsynth/internal/service"
	"switchsynth/internal/store"
)

// serverFlags carries the daemon-level (non-engine) configuration out of
// parseFlags.
type serverFlags struct {
	// Addr is the service listen address.
	Addr string
	// Drain is the graceful-shutdown window.
	Drain time.Duration
	// PprofAddr, when non-empty, serves net/http/pprof on a second
	// listener. Loopback only — validatePprofAddr rejects anything else.
	PprofAddr string
	// StoreDir enables the durable plan store when non-empty; ExportDir,
	// when non-empty, dumps the store and exits.
	StoreDir  string
	ExportDir string
	// Peers is the raw -peers list ("id=url,..."); empty disables
	// clustering entirely. NodeID names this instance's entry in it.
	Peers  string
	NodeID string
}

func main() {
	cfg, srvf := parseFlags(flag.NewFlagSet("synthd", flag.ExitOnError), os.Args[1:])

	if srvf.PprofAddr != "" {
		if err := validatePprofAddr(srvf.PprofAddr); err != nil {
			fmt.Fprintln(os.Stderr, "synthd:", err)
			os.Exit(2)
		}
		go func() {
			if err := http.ListenAndServe(srvf.PprofAddr, pprofMux()); err != nil {
				fmt.Fprintln(os.Stderr, "synthd: pprof:", err)
			}
		}()
		fmt.Printf("synthd: pprof on http://%s/debug/pprof/\n", srvf.PprofAddr)
	}

	var st *store.Store
	if srvf.StoreDir != "" {
		var err error
		st, err = store.Open(srvf.StoreDir, store.Options{})
		if err != nil {
			fmt.Fprintln(os.Stderr, "synthd:", err)
			os.Exit(1)
		}
		stats := st.Stats()
		fmt.Printf("synthd: plan store %s: %d plans (%d bytes), %d records replayed, %d torn bytes truncated\n",
			srvf.StoreDir, stats.Entries, stats.DiskBytes, stats.Recovered, stats.TruncatedBytes)
		cfg.Store = st
	}
	if srvf.ExportDir != "" {
		if st == nil {
			fmt.Fprintln(os.Stderr, "synthd: -export-plans requires -store-dir")
			os.Exit(2)
		}
		n, err := st.Export(srvf.ExportDir)
		if err != nil {
			fmt.Fprintln(os.Stderr, "synthd:", err)
			os.Exit(1)
		}
		_ = st.Close()
		fmt.Printf("synthd: exported %d plans to %s (verify with: verifyplan %s)\n", n, srvf.ExportDir, srvf.ExportDir)
		return
	}

	// The cluster is built before the engine (the engine's fill hook is
	// the cluster's FetchPlan), but its engine-facing callbacks late-bind
	// through the engine variable, so construction order works out.
	var engine *service.Engine
	var cl *cluster.Cluster
	if srvf.Peers != "" {
		var err error
		cl, err = buildCluster(srvf.Peers, srvf.NodeID, &engine)
		if err != nil {
			fmt.Fprintln(os.Stderr, "synthd:", err)
			closeStore(st)
			os.Exit(2)
		}
		cfg.PeerFill = cl.FetchPlan
		cfg.OnPlanStored = cl.ReplicatePlan
	}
	engine = service.New(cfg)
	var hc service.HandlerConfig
	if cl != nil {
		hc.Cluster = cl
		cl.Start()
	}
	srv := &http.Server{
		Addr:              srvf.Addr,
		Handler:           service.NewHandlerWith(engine, hc),
		ReadHeaderTimeout: 10 * time.Second,
	}

	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	fmt.Printf("synthd: listening on %s (%d workers, cache %d, default time limit %s)\n",
		srvf.Addr, engine.Snapshot().Workers, cfg.CacheSize, cfg.DefaultTimeLimit)
	if cl != nil {
		fmt.Printf("synthd: cluster node %q (%s), %d peers, replication %d\n",
			srvf.NodeID, cluster.HashScheme, len(cl.Ring().Members()), cl.Status().Replication)
	}

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	select {
	case sig := <-sigc:
		fmt.Printf("synthd: %s — draining\n", sig)
	case err := <-errc:
		fmt.Fprintln(os.Stderr, "synthd:", err)
		stopCluster(cl)
		engine.CloseNow()
		closeStore(st)
		os.Exit(1)
	}

	// Flip /readyz to 503 first so cluster peers (and load balancers)
	// stop routing new work here while the listener is still up.
	engine.StartDrain()
	stopCluster(cl)

	// Stop accepting HTTP first, then drain the job queue. One timeout
	// budget covers both: whatever the HTTP shutdown leaves of the drain
	// window goes to in-flight and queued solves; after that, CloseNow
	// cancels the optimizer contexts and anytime solves hand back their
	// best incumbent.
	shutCtx, cancel := context.WithTimeout(context.Background(), srvf.Drain)
	defer cancel()
	if err := srv.Shutdown(shutCtx); err != nil {
		fmt.Fprintln(os.Stderr, "synthd: http shutdown:", err)
	}
	drained := make(chan struct{})
	go func() { engine.Close(); close(drained) }()
	select {
	case <-drained:
		fmt.Println("synthd: drained cleanly")
	case <-shutCtx.Done():
		fmt.Fprintf(os.Stderr, "synthd: drain window (%s) expired — cancelling in-flight solves\n", srvf.Drain)
		engine.CloseNow()
		<-drained
	}
	// The engine has stopped writing; the final Close flushes whatever
	// the last group commit hadn't fsynced yet.
	closeStore(st)
}

// buildCluster parses the peer list and wires the cluster's engine
// callbacks through eng, which main assigns after service.New — the
// cluster never performs engine calls before Start, so the late binding
// is safe.
func buildCluster(peerList, nodeID string, eng **service.Engine) (*cluster.Cluster, error) {
	if nodeID == "" {
		return nil, fmt.Errorf("-peers requires -node-id")
	}
	peers, err := cluster.ParsePeers(peerList)
	if err != nil {
		return nil, err
	}
	return cluster.New(cluster.Config{
		SelfID:      nodeID,
		Peers:       peers,
		LocalKeys:   func() []string { return (*eng).PlanKeys() },
		LocalImport: func(key string, data []byte) error { return (*eng).ImportPlan(key, data) },
	})
}

// stopCluster halts the probe and sync loops (nil-safe).
func stopCluster(cl *cluster.Cluster) {
	if cl != nil {
		cl.Stop()
	}
}

// closeStore closes the durable tier (nil-safe), reporting flush errors.
func closeStore(st *store.Store) {
	if st == nil {
		return
	}
	if err := st.Close(); err != nil {
		fmt.Fprintln(os.Stderr, "synthd: store close:", err)
	}
}

// parseFlags defines synthd's flags on fs and builds the engine config
// from argv (split out for tests). Only deployment settings are flags;
// every tuning value is a constant in the package that owns it (see
// DESIGN.md).
func parseFlags(fs *flag.FlagSet, args []string) (service.Config, serverFlags) {
	var (
		addr      = fs.String("addr", ":8471", "listen address")
		workers   = fs.Int("workers", 0, "concurrent solve jobs (0 = GOMAXPROCS; the job queue holds 4x this)")
		solverWrk = fs.Int("solver-workers", 0, "branch-and-bound goroutines per solve (0 = default 1; plans are identical at any value)")
		cacheSize = fs.Int("cache", 1024, "result cache entries (negative disables the memory tier)")
		timeLimit = fs.Duration("timelimit", 30*time.Second, "default per-solve time limit")
		drain     = fs.Duration("drain-timeout", 30*time.Second, "graceful shutdown window before in-flight solves are cancelled")
		storeDir  = fs.String("store-dir", "", "durable plan store directory (empty disables the disk tier)")
		exportDir = fs.String("export-plans", "", "with -store-dir: dump persisted plans as planio JSON into this directory and exit")
		pprofAddr = fs.String("pprof-addr", "", "serve net/http/pprof on this loopback address (e.g. 127.0.0.1:6060; empty disables)")
		peersList = fs.String("peers", "", "static cluster peer list as id=http://host:port,... including this node (empty disables clustering)")
		nodeID    = fs.String("node-id", "", "this node's id in -peers (required with -peers)")
	)
	_ = fs.Parse(args)
	return service.Config{
			Workers:          *workers,
			SolverWorkers:    *solverWrk,
			CacheSize:        *cacheSize,
			DefaultTimeLimit: *timeLimit,
		}, serverFlags{
			Addr:      *addr,
			Drain:     *drain,
			PprofAddr: *pprofAddr,
			StoreDir:  *storeDir,
			ExportDir: *exportDir,
			Peers:     *peersList,
			NodeID:    *nodeID,
		}
}

// validatePprofAddr confines the profiling listener to loopback: pprof
// exposes heap contents and symbol tables, so it must never bind a
// routable interface.
func validatePprofAddr(addr string) error {
	host, _, err := net.SplitHostPort(addr)
	if err != nil {
		return fmt.Errorf("-pprof-addr %q: %w", addr, err)
	}
	if host == "localhost" {
		return nil
	}
	if ip := net.ParseIP(host); ip != nil && ip.IsLoopback() {
		return nil
	}
	return fmt.Errorf("-pprof-addr %q: profiling is loopback-only (use 127.0.0.1:PORT or localhost:PORT)", addr)
}

// pprofMux registers the net/http/pprof handlers on a private mux: the
// service mux must never inherit the default-mux profiling routes.
func pprofMux() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}
