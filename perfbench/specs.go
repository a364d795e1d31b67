package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
)

// Spec is the synthd spec payload as cmd/casegen writes it. Decoding
// rejects unknown fields, so a field casegen adds later cannot be
// silently dropped from the requests.
type Spec struct {
	Name       string         `json:"name"`
	SwitchPins int            `json:"switchPins,omitempty"`
	Topology   string         `json:"topology,omitempty"`
	GridRows   int            `json:"gridRows,omitempty"`
	GridCols   int            `json:"gridCols,omitempty"`
	Modules    []string       `json:"modules"`
	Flows      []Flow         `json:"flows"`
	Conflicts  [][2]int       `json:"conflicts,omitempty"`
	Binding    int            `json:"binding"`
	FixedPins  map[string]int `json:"fixedPins,omitempty"`
	Alpha      float64        `json:"alpha,omitempty"`
	Beta       float64        `json:"beta,omitempty"`
	MaxSets    int            `json:"maxSets,omitempty"`
	Scalable   bool           `json:"scalable,omitempty"`
}

// Flow is one fluid transport between two modules.
type Flow struct {
	From string `json:"from"`
	To   string `json:"to"`
}

// Binding policies, as numbered by the spec package (0 is fixed).
const (
	bindingClockwise = 1
	bindingUnfixed   = 2
)

// campaigns are the casegen invocations whose cases make up the traffic:
// the paper's Section 4.2 artificial crossbar campaign (90 cases over 8-
// and 12-pin switches, 1-3 inlets, 2-6 flows, all three binding
// policies; the cases results/campaign.txt reports) and casegen's FPVA
// campaign (90 cases on 2x2 to 4x4 valve grids). Both are fixed by their
// generator seed, so every run solves the same problems and a change in
// solve time is the program's, not the draw's.
var campaigns = [][]string{
	{"-n", "90", "-seed", "42"},
	{"-fpva", "-n", "90", "-seed", "42"},
}

// maxUnfixedFlows excludes the campaigns' slowest cases: with unfixed
// binding the solver also chooses the pins, and its search grows about
// tenfold per flow. Cases with 5 or 6 flows take 0.3 to 18 s each on one
// core, so a handful of them would outweigh the other 159 cases put
// together and a run could hold only a few rounds.
const maxUnfixedFlows = 4

// loadCampaigns runs casegen from bin into dir and returns its cases in
// file-name order, without the excluded ones.
func loadCampaigns(bin, dir string) ([]*Spec, error) {
	var out []*Spec
	for i, args := range campaigns {
		cdir := filepath.Join(dir, fmt.Sprintf("campaign-%d", i))
		cmd := exec.Command(filepath.Join(bin, "casegen"), append(args, "-out", cdir)...)
		if msg, err := cmd.CombinedOutput(); err != nil {
			return nil, fmt.Errorf("casegen %s: %v: %s", strings.Join(args, " "), err, msg)
		}
		files, err := filepath.Glob(filepath.Join(cdir, "*.json"))
		if err != nil {
			return nil, err
		}
		sort.Strings(files)
		for _, f := range files {
			data, err := os.ReadFile(f)
			if err != nil {
				return nil, err
			}
			sp := new(Spec)
			dec := json.NewDecoder(bytes.NewReader(data))
			dec.DisallowUnknownFields()
			if err := dec.Decode(sp); err != nil {
				return nil, fmt.Errorf("%s: %v", f, err)
			}
			if sp.Binding == bindingUnfixed && len(sp.Flows) > maxUnfixedFlows {
				continue
			}
			out = append(out, sp)
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("casegen wrote no usable case")
	}
	return out, nil
}

// fluidConflicts reports whether sp's conflicts hold between fluids, not
// just between single flows: whenever two flows conflict, every flow of
// the one's inlet conflicts with every flow of the other's. The solver
// keeps only conflicting flows apart, while verifyplan's fluidic
// simulation treats every flow of an inlet as the same fluid and so
// flags residue a non-conflicting flow of that inlet left behind. The
// two agree, and a served plan can be audited, only on such specs.
func fluidConflicts(sp *Spec) bool {
	conflict := map[[2]int]bool{}
	for _, c := range sp.Conflicts {
		conflict[c], conflict[[2]int{c[1], c[0]}] = true, true
	}
	for _, c := range sp.Conflicts {
		for a, fa := range sp.Flows {
			for b, fb := range sp.Flows {
				if fa.From == sp.Flows[c[0]].From && fb.From == sp.Flows[c[1]].From && !conflict[[2]int{a, b}] {
					return false
				}
			}
		}
	}
	return true
}

// renamed returns a copy of sp named name whose module names all carry
// prefix. Module names enter synthd's canonical key, so a new prefix gives
// a new key. The prefix is common to all modules, so their sorted and
// cyclic orders, and with them the canonical spec the solver works on, do
// not change: the copy costs the same solve and has the same optimum.
func renamed(sp *Spec, prefix, name string) *Spec {
	c := *sp
	c.Name = name
	c.Modules = make([]string, len(sp.Modules))
	for i, m := range sp.Modules {
		c.Modules[i] = prefix + m
	}
	c.Flows = make([]Flow, len(sp.Flows))
	for i, f := range sp.Flows {
		c.Flows[i] = Flow{From: prefix + f.From, To: prefix + f.To}
	}
	if sp.FixedPins != nil {
		c.FixedPins = make(map[string]int, len(sp.FixedPins))
		for m, p := range sp.FixedPins {
			c.FixedPins[prefix+m] = p
		}
	}
	return &c
}

// variant returns a presentation of base that synthd must recognise as
// the same problem: flow order, conflict order and conflict orientation
// are shuffled, the module list is shuffled (fixed and unfixed binding)
// or rotated (clockwise binding, where it is a cyclic order), and the
// spec is renamed. Its canonical key, and so its cache entry, is base's.
func variant(rng *rand.Rand, base *Spec, name string) *Spec {
	v := *base
	v.Name = name
	n := len(base.Modules)
	v.Modules = make([]string, n)
	if base.Binding == bindingClockwise {
		r := rng.Intn(n)
		for i := range v.Modules {
			v.Modules[i] = base.Modules[(i+r)%n]
		}
	} else {
		copy(v.Modules, base.Modules)
		rng.Shuffle(n, func(i, j int) { v.Modules[i], v.Modules[j] = v.Modules[j], v.Modules[i] })
	}
	perm := rng.Perm(len(base.Flows)) // new position of each old flow
	v.Flows = make([]Flow, len(base.Flows))
	for old, pos := range perm {
		v.Flows[pos] = base.Flows[old]
	}
	v.Conflicts = make([][2]int, len(base.Conflicts))
	for i, c := range base.Conflicts {
		a, b := perm[c[0]], perm[c[1]]
		if rng.Intn(2) == 0 {
			a, b = b, a
		}
		v.Conflicts[i] = [2]int{a, b}
	}
	rng.Shuffle(len(v.Conflicts), func(i, j int) { v.Conflicts[i], v.Conflicts[j] = v.Conflicts[j], v.Conflicts[i] })
	if len(v.Conflicts) == 0 {
		v.Conflicts = nil
	}
	return &v
}

// newPool gives every campaign case module names drawn from the seed: the
// working set that set-up primes and that the workloads present again.
func newPool(seed int64, cases []*Spec) []*Spec {
	rng := rand.New(rand.NewSource(seed))
	pool := make([]*Spec, len(cases))
	for i, sp := range cases {
		pool[i] = renamed(sp, fmt.Sprintf("p%d.%04x-", i, rng.Intn(1<<16)), sp.Name)
	}
	return pool
}
