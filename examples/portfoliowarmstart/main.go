// Similarity warm start: boots an in-process synthd engine, then drives
// it with the Go client the way an incremental design session would —
//
//  1. a cold solve of a base chip spec, which lands in the similarity
//     index once proven;
//
//  2. a solve of a one-edit neighbor (one flow and its outlet module
//     added), warm-started from the similarity index: the base plan is
//     adapted, re-verified and used as the starting incumbent — the
//     solve gets faster, the plan bytes stay exactly what a cold solve
//     returns;
//
//  3. the warm-start counters and similarity-index gauges from
//     GET /metrics showing the hit.
//
//     go run ./examples/portfoliowarmstart
package main

import (
	"context"
	"fmt"
	"log"
	"net"
	"net/http"
	"time"

	"switchsynth"
	"switchsynth/client"
	"switchsynth/internal/service"
)

// base is an 8-pin chip with three reagent flows, two of which conflict.
func base(name string) *switchsynth.Spec {
	return &switchsynth.Spec{
		Name:       name,
		SwitchPins: 8,
		Modules:    []string{"sampleA", "sampleB", "mix1", "mix2", "waste"},
		Flows: []switchsynth.Flow{
			{From: "sampleA", To: "mix1"},
			{From: "sampleB", To: "mix2"},
			{From: "sampleA", To: "waste"},
		},
		Conflicts: [][2]int{{0, 1}},
		Binding:   switchsynth.Unfixed,
	}
}

// neighbor is base plus one flow to a new mixer — the kind of one-edit
// revision an interactive design session produces. The similarity index
// recognizes it as the base spec plus one flow and adapts the proven
// base plan into a starting incumbent.
func neighbor(name string) *switchsynth.Spec {
	sp := base(name)
	sp.Modules = append(sp.Modules, "mix3")
	sp.Flows = append(sp.Flows, switchsynth.Flow{From: "sampleB", To: "mix3"})
	return sp
}

func main() {
	// A real daemon would be `go run ./cmd/synthd`; here the engine and
	// its HTTP surface run in-process so the example is self-contained.
	// The similarity index is on by default (-simindex-size resizes it).
	eng := service.New(service.Config{Workers: 2})
	defer eng.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	srv := &http.Server{Handler: service.NewHandler(eng)}
	go srv.Serve(ln)
	defer srv.Close()
	c, err := client.New(client.Config{BaseURL: "http://" + ln.Addr().String()})
	if err != nil {
		log.Fatal(err)
	}
	ctx := context.Background()

	start := time.Now()
	cold, err := c.Synthesize(ctx, base("chip-v1"), service.RequestOptions{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("cold solve of chip-v1: %d flow sets, %.1f mm, proven=%v in %s\n",
		cold.NumSets, cold.LengthMM, cold.Proven,
		time.Since(start).Round(time.Millisecond))

	start = time.Now()
	warm, err := c.Synthesize(ctx, neighbor("chip-v2"), service.RequestOptions{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("warm-started solve of chip-v2 (one flow added): %d flow sets, %.1f mm, proven=%v in %s\n",
		warm.NumSets, warm.LengthMM, warm.Proven,
		time.Since(start).Round(time.Millisecond))

	m, err := c.Metrics(ctx)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nGET /metrics (warm-start fields):\n")
	fmt.Printf("  portfolio_warmstart_hits %d, portfolio_warmstart_misses %d\n",
		m.WarmStartHits, m.WarmStartMisses)
	fmt.Printf("  portfolio_seeds_adopted %d, portfolio_seeds_rejected %d, portfolio_seed_tightened %d\n",
		m.SeedsAdopted, m.SeedsRejected, m.SeedTightened)
	fmt.Printf("  simindex_entries %d/%d, simindex_lookups %d, simindex_hits %d\n",
		m.SimIndexEntries, m.SimIndexCapacity, m.SimIndexLookups, m.SimIndexHits)
	fmt.Println("\nplans are byte-identical with warm starts on or off;")
	fmt.Println("the seed only changes when the answer arrives, never what it is.")
}
