// Package milp provides a modeling API and exact solver for mixed-integer
// linear programs, plus binary-quadratic products via exact linearization.
// Together with internal/lp it substitutes for the Gurobi optimizer used by
// the paper: the paper's synthesis model is an integer *quadratic* program
// whose only nonlinearities are products of binary variables, which
// linearize exactly (z = x·y ⇔ z ≤ x, z ≤ y, z ≥ x + y − 1 for binaries).
//
// The solver is LP-based branch & bound with depth-first search, a rounding
// heuristic for early incumbents, and most-fractional branching.
package milp

import (
	"context"
	"fmt"
	"math"
	"sort"
	"time"

	"switchsynth/internal/lp"
)

// VarKind classifies decision variables.
type VarKind int

// Variable kinds.
const (
	Continuous VarKind = iota
	Integer
	Binary
)

// Var is a handle to a model variable.
type Var struct {
	id int
}

// ID returns the dense variable index.
func (v Var) ID() int { return v.id }

// LinExpr is a linear expression  Σ coef_i · var_i + Const.
type LinExpr struct {
	coefs map[int]float64
	Const float64
}

// NewLinExpr returns the zero expression.
func NewLinExpr() *LinExpr { return &LinExpr{coefs: make(map[int]float64)} }

// Add adds coef·v to the expression and returns the expression.
func (e *LinExpr) Add(coef float64, v Var) *LinExpr {
	e.coefs[v.id] += coef
	return e
}

// AddConst adds a constant and returns the expression.
func (e *LinExpr) AddConst(c float64) *LinExpr {
	e.Const += c
	return e
}

// AddExpr adds f·other to the expression and returns the expression.
func (e *LinExpr) AddExpr(f float64, other *LinExpr) *LinExpr {
	for id, c := range other.coefs {
		e.coefs[id] += f * c
	}
	e.Const += f * other.Const
	return e
}

// Terms returns the expression's terms in variable order.
func (e *LinExpr) Terms() []lp.Term {
	ids := make([]int, 0, len(e.coefs))
	for id, c := range e.coefs {
		if c != 0 {
			ids = append(ids, id)
		}
	}
	sort.Ints(ids)
	out := make([]lp.Term, len(ids))
	for i, id := range ids {
		out[i] = lp.Term{Var: id, Coef: e.coefs[id]}
	}
	return out
}

// Eval evaluates the expression at x (indexed by variable id).
func (e *LinExpr) Eval(x []float64) float64 {
	v := e.Const
	for id, c := range e.coefs {
		v += c * x[id]
	}
	return v
}

type varInfo struct {
	name   string
	kind   VarKind
	lo, hi float64
}

type rowInfo struct {
	expr  *LinExpr
	sense lp.Sense
	rhs   float64
	name  string
}

// Model is a MILP under construction.
type Model struct {
	name     string
	vars     []varInfo
	rows     []rowInfo
	obj      *LinExpr
	products map[[2]int]Var // memoized binary products
}

// NewModel returns an empty model.
func NewModel(name string) *Model {
	return &Model{name: name, obj: NewLinExpr(), products: make(map[[2]int]Var)}
}

// Name returns the model name.
func (m *Model) Name() string { return m.name }

// NumVars returns the number of variables (including linearization
// auxiliaries).
func (m *Model) NumVars() int { return len(m.vars) }

// NumRows returns the number of constraint rows.
func (m *Model) NumRows() int { return len(m.rows) }

// NewBinary adds a 0/1 variable.
func (m *Model) NewBinary(name string) Var {
	return m.newVar(name, Binary, 0, 1)
}

// NewInt adds an integer variable with bounds [lo, hi].
func (m *Model) NewInt(name string, lo, hi float64) Var {
	return m.newVar(name, Integer, lo, hi)
}

// NewContinuous adds a continuous variable with bounds [lo, hi].
func (m *Model) NewContinuous(name string, lo, hi float64) Var {
	return m.newVar(name, Continuous, lo, hi)
}

func (m *Model) newVar(name string, kind VarKind, lo, hi float64) Var {
	m.vars = append(m.vars, varInfo{name: name, kind: kind, lo: lo, hi: hi})
	return Var{id: len(m.vars) - 1}
}

// VarName returns the name of v.
func (m *Model) VarName(v Var) string { return m.vars[v.id].name }

// AddConstraint adds expr (sense) rhs. The expression's constant is moved to
// the right-hand side.
func (m *Model) AddConstraint(expr *LinExpr, sense lp.Sense, rhs float64) {
	m.AddNamedConstraint("", expr, sense, rhs)
}

// AddNamedConstraint adds a labeled constraint (labels aid debugging).
func (m *Model) AddNamedConstraint(name string, expr *LinExpr, sense lp.Sense, rhs float64) {
	cp := NewLinExpr().AddExpr(1, expr)
	m.rows = append(m.rows, rowInfo{expr: cp, sense: sense, rhs: rhs - cp.Const, name: name})
	cp.Const = 0
}

// Product returns a binary variable constrained to equal x·y, where x and y
// must be binary. Repeated calls with the same pair return the same variable.
// This is the exact linearization that turns the paper's IQP into a MILP.
func (m *Model) Product(x, y Var) Var {
	if m.vars[x.id].kind != Binary || m.vars[y.id].kind != Binary {
		panic("milp: Product requires binary operands")
	}
	if x.id == y.id {
		return x // x·x = x for binaries
	}
	key := [2]int{x.id, y.id}
	if key[0] > key[1] {
		key[0], key[1] = key[1], key[0]
	}
	if z, ok := m.products[key]; ok {
		return z
	}
	z := m.NewBinary(fmt.Sprintf("prod(%s,%s)", m.vars[x.id].name, m.vars[y.id].name))
	m.AddConstraint(NewLinExpr().Add(1, z).Add(-1, x), lp.LE, 0)
	m.AddConstraint(NewLinExpr().Add(1, z).Add(-1, y), lp.LE, 0)
	m.AddConstraint(NewLinExpr().Add(1, z).Add(-1, x).Add(-1, y), lp.GE, -1)
	m.products[key] = z
	return z
}

// SetObjective sets the minimized objective expression.
func (m *Model) SetObjective(expr *LinExpr) {
	m.obj = NewLinExpr().AddExpr(1, expr)
}

// Status reports the outcome of a MILP solve.
type Status int

// Solve outcomes.
const (
	// Optimal means an integer-optimal solution was found and proven.
	Optimal Status = iota
	// Infeasible means no integer-feasible point exists.
	Infeasible
	// Limit means the node or time limit was hit; Solution may still carry
	// the best incumbent found (check HasSolution).
	Limit
)

// String implements fmt.Stringer.
func (s Status) String() string {
	switch s {
	case Optimal:
		return "optimal"
	case Infeasible:
		return "infeasible"
	case Limit:
		return "limit"
	}
	return "?"
}

// Solution is the result of a MILP solve.
type Solution struct {
	Status Status
	// HasSolution reports whether X/Obj hold an integer-feasible incumbent.
	HasSolution bool
	// X holds variable values indexed by Var.ID().
	X []float64
	// Obj is the objective value of X.
	Obj float64
	// Nodes is the number of branch-and-bound nodes explored.
	Nodes int
	// Runtime is the wall-clock solve time.
	Runtime time.Duration
	// Err records why a Limit status was reached when the cause was
	// external cancellation (Options.Ctx): context.Canceled or
	// context.DeadlineExceeded. Nil for node/time limits and for
	// Optimal/Infeasible outcomes.
	Err error
}

// Value returns the value of v in the solution.
func (s *Solution) Value(v Var) float64 { return s.X[v.id] }

// Bool returns whether binary variable v is set in the solution.
func (s *Solution) Bool(v Var) bool { return s.X[v.id] > 0.5 }

// Options control the branch-and-bound search.
type Options struct {
	// TimeLimit bounds the wall-clock solve time (0 = no limit).
	TimeLimit time.Duration
	// MaxNodes bounds the number of explored nodes (0 = no limit).
	MaxNodes int
	// Ctx, when non-nil, is polled once per branch-and-bound node AND
	// periodically inside each LP relaxation (a single simplex solve on
	// a large model can otherwise run for minutes): a cancelled context
	// stops the solve promptly with Status Limit and Solution.Err =
	// Ctx.Err(), so a cancelled request or a draining daemon stops
	// burning CPU promptly. TimeLimit is enforced at the same two
	// granularities.
	Ctx context.Context
}

const intTol = 1e-6

// Solve runs branch & bound and returns the best integer solution.
func (m *Model) Solve(opts Options) Solution {
	start := time.Now()
	base := lp.NewProblem(len(m.vars))
	for i, vi := range m.vars {
		base.SetBounds(i, vi.lo, vi.hi)
	}
	for _, t := range m.obj.Terms() {
		base.SetObjective(t.Var, t.Coef)
	}
	for _, r := range m.rows {
		base.AddConstraint(r.expr.Terms(), r.sense, r.rhs)
	}
	// Abort in-flight LP relaxations too: the per-node limit checks
	// below cannot interrupt a single large simplex solve, which is
	// where nearly all of the wall clock goes on big models.
	base.SetStop(func() bool {
		if opts.TimeLimit > 0 && time.Since(start) > opts.TimeLimit {
			return true
		}
		return opts.Ctx != nil && opts.Ctx.Err() != nil
	})

	intVars := make([]int, 0, len(m.vars))
	for i, vi := range m.vars {
		if vi.kind != Continuous {
			intVars = append(intVars, i)
		}
	}

	type node struct {
		lo, hi []float64
	}
	var (
		best     []float64
		found    bool
		bestObj  = math.Inf(1)
		nodes    int
		hitLimit bool
		cause    error
	)
	rootLo := make([]float64, len(m.vars))
	rootHi := make([]float64, len(m.vars))
	for i, vi := range m.vars {
		rootLo[i], rootHi[i] = vi.lo, vi.hi
	}
	stack := []node{{lo: rootLo, hi: rootHi}}

	for len(stack) > 0 {
		if opts.MaxNodes > 0 && nodes >= opts.MaxNodes {
			hitLimit = true
			break
		}
		if opts.TimeLimit > 0 && time.Since(start) > opts.TimeLimit {
			hitLimit = true
			break
		}
		if opts.Ctx != nil {
			if err := opts.Ctx.Err(); err != nil {
				hitLimit = true
				cause = err
				break
			}
		}
		nd := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		nodes++

		prob := base.Clone()
		for i := range nd.lo {
			prob.SetBounds(i, nd.lo[i], nd.hi[i])
		}
		rel := lp.Solve(prob)
		if rel.Status == lp.Aborted {
			// The deadline or context fired mid-relaxation. This node is
			// unresolved, so it must NOT be pruned as infeasible — stop
			// the whole solve exactly like the per-node limit checks.
			hitLimit = true
			if opts.Ctx != nil {
				cause = opts.Ctx.Err()
			}
			break
		}
		if rel.Status != lp.Optimal {
			continue // infeasible or unbounded branch: prune
		}
		if rel.Obj >= bestObj-1e-9 {
			continue // bound: cannot improve the incumbent
		}

		// Find the most fractional integer variable.
		branchVar, branchFrac := -1, 0.0
		for _, v := range intVars {
			f := rel.X[v] - math.Floor(rel.X[v])
			d := math.Min(f, 1-f)
			if d > intTol && d > branchFrac {
				branchVar, branchFrac = v, d
			}
		}
		if branchVar == -1 {
			// Integer feasible.
			if rel.Obj < bestObj-1e-9 {
				bestObj = rel.Obj
				best = roundInts(rel.X, intVars)
				found = true
			}
			continue
		}

		// Rounding heuristic for an early incumbent.
		if !found {
			if cand, ok := m.tryRound(rel.X, intVars); ok {
				obj := m.obj.Eval(cand)
				if obj < bestObj {
					bestObj = obj
					best = cand
					found = true
				}
			}
		}

		fl := math.Floor(rel.X[branchVar])
		// Explore the nearer side first (pushed last → popped first).
		loNode := node{lo: append([]float64(nil), nd.lo...), hi: append([]float64(nil), nd.hi...)}
		loNode.hi[branchVar] = fl
		hiNode := node{lo: append([]float64(nil), nd.lo...), hi: append([]float64(nil), nd.hi...)}
		hiNode.lo[branchVar] = fl + 1
		if rel.X[branchVar]-fl > 0.5 {
			stack = append(stack, loNode, hiNode)
		} else {
			stack = append(stack, hiNode, loNode)
		}
	}

	sol := Solution{Nodes: nodes, Runtime: time.Since(start), Err: cause}
	switch {
	case found && !hitLimit:
		sol.Status = Optimal
		sol.HasSolution = true
		sol.X = best
		sol.Obj = bestObj
	case found:
		sol.Status = Limit
		sol.HasSolution = true
		sol.X = best
		sol.Obj = bestObj
	case hitLimit:
		sol.Status = Limit
	default:
		sol.Status = Infeasible
	}
	return sol
}

// roundInts snaps near-integers exactly.
func roundInts(x []float64, intVars []int) []float64 {
	out := append([]float64(nil), x...)
	for _, v := range intVars {
		out[v] = math.Round(out[v])
	}
	return out
}

// tryRound rounds the relaxation and accepts the point only if it satisfies
// every constraint and bound.
func (m *Model) tryRound(x []float64, intVars []int) ([]float64, bool) {
	cand := roundInts(x, intVars)
	for i, vi := range m.vars {
		if cand[i] < vi.lo-1e-9 || cand[i] > vi.hi+1e-9 {
			return nil, false
		}
	}
	for _, r := range m.rows {
		v := r.expr.Eval(cand)
		switch r.sense {
		case lp.LE:
			if v > r.rhs+1e-7 {
				return nil, false
			}
		case lp.GE:
			if v < r.rhs-1e-7 {
				return nil, false
			}
		case lp.EQ:
			if math.Abs(v-r.rhs) > 1e-7 {
				return nil, false
			}
		}
	}
	return cand, true
}

// CheckFeasible reports whether x satisfies all constraints, bounds and
// integrality requirements of the model. Used by tests and cross-checks.
func (m *Model) CheckFeasible(x []float64) error {
	if len(x) != len(m.vars) {
		return fmt.Errorf("milp: point has %d values, model has %d vars", len(x), len(m.vars))
	}
	for i, vi := range m.vars {
		if x[i] < vi.lo-1e-6 || x[i] > vi.hi+1e-6 {
			return fmt.Errorf("milp: %s = %v out of [%v, %v]", vi.name, x[i], vi.lo, vi.hi)
		}
		if vi.kind != Continuous && math.Abs(x[i]-math.Round(x[i])) > 1e-6 {
			return fmt.Errorf("milp: %s = %v not integral", vi.name, x[i])
		}
	}
	for ri, r := range m.rows {
		v := r.expr.Eval(x)
		bad := false
		switch r.sense {
		case lp.LE:
			bad = v > r.rhs+1e-6
		case lp.GE:
			bad = v < r.rhs-1e-6
		case lp.EQ:
			bad = math.Abs(v-r.rhs) > 1e-6
		}
		if bad {
			return fmt.Errorf("milp: row %d (%s): %v %v %v violated", ri, r.name, v, r.sense, r.rhs)
		}
	}
	return nil
}
