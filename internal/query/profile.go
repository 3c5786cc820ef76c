package query

import (
	"context"
	"encoding/json"
	"fmt"
	"strconv"
	"strings"
	"time"

	"repro/internal/db"
	"repro/internal/domain"
	"repro/internal/logic"
	"repro/internal/obs"
)

// ProfileNode is one node of an EXPLAIN profile, mirroring the query
// formula's structure. Evals counts how many times the node was evaluated
// across all variable assignments, True how many of those evaluations came
// out true (for the root this is the answer's row cardinality), WallNS the
// inclusive wall time spent below the node, and Range the active-domain
// range size a quantifier node iterated over (0 on non-quantifier nodes).
type ProfileNode struct {
	Op       string         `json:"op"`
	Evals    int64          `json:"evals"`
	True     int64          `json:"true"`
	WallNS   int64          `json:"wall_ns"`
	Range    int            `json:"range,omitempty"`
	Children []*ProfileNode `json:"children,omitempty"`
}

// Profile is a per-query EXPLAIN report: the execution tree of one
// EvalActiveProfiledCtx run plus run-level totals.
type Profile struct {
	Query        string   `json:"query"`
	Vars         []string `json:"vars"`
	ActiveDomain int      `json:"active_domain_size"`
	Assignments  int64    `json:"assignments"`
	Rows         int      `json:"rows"`
	Complete     bool     `json:"complete"`
	WallNS       int64    `json:"wall_ns"`
	// Plan is the compiled plan's EXPLAIN text for the query (tier,
	// lowered form, optimizations); set by the finq facade.
	Plan string       `json:"plan,omitempty"`
	Root *ProfileNode `json:"root"`
}

// JSON renders the profile as indented JSON.
func (p *Profile) JSON() []byte {
	out, err := json.MarshalIndent(p, "", "  ")
	if err != nil {
		panic(fmt.Sprintf("query: marshal profile: %v", err))
	}
	return out
}

// Text renders the profile as an indented tree:
//
//	query: (F(x, y) & exists z. ...)
//	active domain 8 · free vars [x y] · assignments 64 · rows 8 · wall 1.2ms
//	∧                          evals=64    true=8     wall=1.1ms
//	├─ F(x, y)                 evals=64    true=8     wall=0.2ms
//	└─ ∃z                      evals=8     true=8     wall=0.9ms range=8
func (p *Profile) Text() string {
	var b strings.Builder
	fmt.Fprintf(&b, "query: %s\n", p.Query)
	fmt.Fprintf(&b, "active domain %d · free vars %v · assignments %d · rows %d · complete=%v · wall %s\n",
		p.ActiveDomain, p.Vars, p.Assignments, p.Rows, p.Complete, fmtNS(p.WallNS))
	if p.Plan != "" {
		b.WriteString(p.Plan)
	}
	writeNode(&b, p.Root, "", "")
	return b.String()
}

func fmtNS(ns int64) string {
	return time.Duration(ns).Round(time.Microsecond).String()
}

func writeNode(b *strings.Builder, n *ProfileNode, branch, childPrefix string) {
	label := branch + n.Op
	pad := 40 - len([]rune(label)) // rune count: labels carry box-drawing and logic glyphs
	if pad < 1 {
		pad = 1
	}
	fmt.Fprintf(b, "%s%s evals=%-8d true=%-8d wall=%s", label, strings.Repeat(" ", pad), n.Evals, n.True, fmtNS(n.WallNS))
	if n.Range > 0 {
		fmt.Fprintf(b, " range=%d", n.Range)
	}
	b.WriteByte('\n')
	for i, c := range n.Children {
		if i == len(n.Children)-1 {
			writeNode(b, c, childPrefix+"└─ ", childPrefix+"   ")
		} else {
			writeNode(b, c, childPrefix+"├─ ", childPrefix+"│  ")
		}
	}
}

// NodeStat is one node of a flattened profile: the node's dotted
// child-index path from the root ("0" the root, "0.1" its second child),
// its operator label, and its counts. Paths are stable across runs of the
// same formula because the profile tree mirrors the formula tree, which
// is what lets per-node statistics be merged across runs (the qstats
// registry joins on Path).
type NodeStat struct {
	Path  string
	Op    string
	Evals int64
	True  int64
	Range int
}

// Flatten renders the profile tree as a depth-first node list with dotted
// index paths. Nil-safe: a nil profile or rootless profile flattens to
// nothing.
func (p *Profile) Flatten() []NodeStat {
	if p == nil || p.Root == nil {
		return nil
	}
	var out []NodeStat
	var walk func(n *ProfileNode, path string)
	walk = func(n *ProfileNode, path string) {
		out = append(out, NodeStat{Path: path, Op: n.Op, Evals: n.Evals, True: n.True, Range: n.Range})
		for i, c := range n.Children {
			walk(c, path+"."+strconv.Itoa(i))
		}
	}
	walk(p.Root, "0")
	return out
}

// buildProfileTree mirrors the formula as a profile-node tree. Quantifier
// and connective nodes get symbolic labels; atoms keep their rendered form.
func buildProfileTree(f *logic.Formula) *ProfileNode {
	n := &ProfileNode{}
	switch f.Kind {
	case logic.FExists:
		n.Op = "∃" + f.Var
	case logic.FForall:
		n.Op = "∀" + f.Var
	case logic.FNot:
		n.Op = "¬"
	case logic.FAnd:
		n.Op = "∧"
	case logic.FOr:
		n.Op = "∨"
	case logic.FImplies:
		n.Op = "→"
	case logic.FIff:
		n.Op = "↔"
	default: // FTrue, FFalse, FAtom
		n.Op = f.String()
	}
	switch f.Kind {
	case logic.FExists, logic.FForall, logic.FNot, logic.FAnd, logic.FOr,
		logic.FImplies, logic.FIff:
		for _, s := range f.Sub {
			n.Children = append(n.Children, buildProfileTree(s))
		}
	}
	return n
}

// child returns the profile node of f's i-th subformula, or nil when n is
// nil (an unprofiled walk).
func (n *ProfileNode) child(i int) *ProfileNode {
	if n == nil {
		return nil
	}
	return n.Children[i]
}

// EvalActiveProfiledCtx is active-domain evaluation with per-node
// execution profiling: it returns the answer plus a Profile tree mirroring
// the formula, with eval counts, true counts (row cardinalities),
// quantifier range sizes, and inclusive wall time per node. It always
// runs the interpreter, through the same walker and assignment loop as
// EvalActiveCtx's fallback, so the counts describe exactly what the
// interpreter does; the per-node timers make profiled runs slower, which
// is why profiling is opt-in (finq.Eval with Profile set, REPL :explain).
// The context is polled like EvalActiveCtx's. On cancellation the answer
// and profile cover the work done so far (Complete=false) and the
// context's error is returned.
func EvalActiveProfiledCtx(ctx context.Context, dom domain.Domain, st *db.State, f *logic.Formula) (*Answer, *Profile, error) {
	ctx, sp := obs.StartSpanCtx(ctx, "query.explain")
	defer sp.End()
	t0 := time.Now()
	rng, err := activeRange(dom, st, f)
	if err != nil {
		return nil, nil, err
	}
	prof := &Profile{
		Query:        f.String(),
		ActiveDomain: len(rng),
		Complete:     true,
		Root:         buildProfileTree(f),
	}
	ans, leaves, err := interpret(ctx, stateInterp{dom: dom, st: st}, f, rng, prof.Root)
	prof.WallNS = time.Since(t0).Nanoseconds()
	if ans == nil {
		return nil, nil, err
	}
	prof.Vars = ans.Vars
	prof.Assignments = leaves
	prof.Rows = ans.Rows.Len()
	prof.Complete = ans.Complete
	if err != nil {
		return ans, prof, err
	}
	sp.Arg("rows", int64(prof.Rows))
	sp.Arg("assignments", prof.Assignments)
	return ans, prof, nil
}
