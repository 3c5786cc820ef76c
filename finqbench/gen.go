package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"sort"
	"strconv"
	"strings"

	finq "repro"
	"repro/apiv1"
)

// The generator: each workload turns the seed into one pass — a fixed,
// seeded sequence of ops — and computes every op's expected answer in
// plain Go (maps and loops over the generated relations), never through
// finq. Every formula is fully parenthesised: the parser gives a
// quantifier the smallest scope, so `exists y. R(y) & x = y` would mean
// `(exists y. R(y)) & x = y`, an infinite answer.

// opKind says how an op reaches the program.
type opKind int

const (
	kindEval   opKind = iota // one finq.Eval call, or one POST /v1/eval
	kindBatch                // one POST /v1/eval/batch
	kindStream               // one streamed POST /v1/eval
)

// op is one request of a pass: the inputs the program receives and the
// answer the generator expects.
type op struct {
	class   string // request class, for the mix-shape report
	tmpl    string // template; the set-up self-check runs one op of each
	domain  string
	mode    finq.EvalMode
	formula string
	vars    []string // expected answer columns
	want    []string // expected rows, cells joined by ",", sorted
	state   *stateData
	profile bool
	budget  *finq.EnumerationBudget
	scan    int64 // enum-decide: candidates each row's probe scan covers

	kind     opKind
	items    []*op  // batch items, sharing the batch's state
	encoding string // stream content type

	// Built at set-up.
	f    *finq.Formula // library workloads: the parsed formula
	body []byte        // wire workload: the JSON request body
}

// stateData is a generated database state: relations of naturals.
type stateData struct {
	rels map[string][][]int64

	// Built at set-up.
	st  *finq.State
	raw json.RawMessage
}

// workload is one generated pass plus the names of its classes.
type workload struct {
	name    string
	ops     []*op
	classes []string
	wire    bool
	// segments splits the pass into this many runs of equal length and
	// class composition, so the per-segment rates and p50s a run prints
	// are comparable and show when the host's speed changed.
	segments int
	// procs, when > 0, is the GOMAXPROCS the workload runs with.
	procs int
}

// workloadNames lists the workloads in the order BENCHMARK.json does.
var workloadNames = []string{"enum-decide", "active-join", "serve-mix"}

// generate builds the named workload's pass from the seed.
func generate(name string, seed int64) (*workload, error) {
	r := rand.New(rand.NewSource(seed))
	switch name {
	case "enum-decide":
		return genDecide(r), nil
	case "active-join":
		return genActive(r), nil
	case "serve-mix":
		return genServe(r), nil
	}
	return nil, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(workloadNames, ", "))
}

// pair is a binary tuple of naturals.
type pair [2]int64

func rowKey(cells ...int64) string {
	s := make([]string, len(cells))
	for i, c := range cells {
		s[i] = strconv.FormatInt(c, 10)
	}
	return strings.Join(s, ",")
}

// sortedSet turns a row-key set into the sorted expected-rows form.
func sortedSet(set map[string]bool) []string {
	out := make([]string, 0, len(set))
	for k := range set {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func unaryRows(vals []int64) [][]int64 {
	out := make([][]int64, len(vals))
	for i, v := range vals {
		out[i] = []int64{v}
	}
	return out
}

func pairRows(ps []pair) [][]int64 {
	out := make([][]int64, len(ps))
	for i, p := range ps {
		out[i] = []int64{p[0], p[1]}
	}
	return out
}

// cycle repeats ops round-robin to n entries.
func cycle(ops []*op, n int) []*op {
	out := make([]*op, n)
	for i := range out {
		out[i] = ops[i%len(ops)]
	}
	return out
}

// layout lays the pass out as n segments of equal class composition:
// segment s takes the s-th contiguous share of every class's ops, in
// seeded order. byClass follows w.classes.
func (w *workload) layout(r *rand.Rand, n int, byClass [][]*op) {
	w.segments = n
	for s := 0; s < n; s++ {
		var seg []*op
		for _, ops := range byClass {
			k := len(ops) / n
			seg = append(seg, ops[s*k:(s+1)*k]...)
		}
		r.Shuffle(len(seg), func(i, j int) { seg[i], seg[j] = seg[j], seg[i] })
		w.ops = append(w.ops, seg...)
	}
}

// ---------------------------------------------------------------------
// enum-decide: pure-domain formulas through the §1.1 decide loop. The
// cold classes cycle through more formulas per pass than the plan cache
// holds (512) and more ground decisions than the decision cache holds
// (4096); the hot class repeats a few formulas.

// decideSegments splits the enum-decide pass into segments of equal
// class composition and, by stratify, equal candidate-scan lengths.
const decideSegments = 8

// decideClasses are the enum-decide classes with their per-pass counts.
var decideClasses = []struct {
	name string
	ops  int
}{
	{"hot", 200},
	{"cold-nless", 120},
	{"cold-pres", 440},
	{"cold-pres-wide", 40},
}

// parityFormula is x ∈ (d, c), x ≥ k, x ≡ k (mod 2) over Presburger.
func parityFormula(d, c, k int64) (string, []string) {
	f := fmt.Sprintf("((lt(%d, x) & lt(x, %d)) & exists y. (x = add(y, add(y, %d))))", d, c, k)
	want := map[string]bool{}
	for x := d + 1; x < c; x++ {
		if x >= k && (x-k)%2 == 0 {
			want[rowKey(x)] = true
		}
	}
	return f, sortedSet(want)
}

// parityOp returns a Presburger op with exactly rows answers: k and d
// pick the first answer, c closes the interval after the rows-th.
func parityOp(class string, k, d, e int64, rows int) *op {
	first := k
	for first <= d || (first-k)%2 != 0 {
		first++
	}
	c := first + 2*int64(rows-1) + 1 + e
	f, want := parityFormula(d, c, k)
	return &op{
		class: class, tmpl: fmt.Sprintf("parity/%d", rows), domain: "presburger", scan: c,
		mode: finq.ModeEnumerate, formula: f, vars: []string{"x"}, want: want,
		budget: &finq.EnumerationBudget{Rows: rows + 4, Probe: 1 << 12},
	}
}

func genDecide(r *rand.Rand) *workload {
	w := &workload{name: "enum-decide"}
	for _, c := range decideClasses {
		w.classes = append(w.classes, c.name)
	}
	// Distinct (k, d, e) triples, so no two cold formulas share a plan or
	// a ground decision key.
	type triple struct{ k, d, e int64 }
	var triples []triple
	for k := int64(0); k < 30; k++ {
		for d := k; d < k+10; d++ {
			for e := int64(0); e < 2; e++ {
				triples = append(triples, triple{k, d, e})
			}
		}
	}
	r.Shuffle(len(triples), func(i, j int) { triples[i], triples[j] = triples[j], triples[i] })
	next := func() triple { t := triples[0]; triples = triples[1:]; return t }

	var hot []*op
	for i := 0; i < 12; i++ {
		t := next()
		hot = append(hot, parityOp("hot", t.k, t.d, t.e, 5))
	}
	byClass := [][]*op{cycle(hot, decideClasses[0].ops), nil, nil, nil}
	// nless has no decision cache: every ground decision is a fresh
	// quantifier elimination.
	for d := int64(0); d < 40; d++ {
		for rows := 3; rows <= 5; rows++ {
			c := d + 1 + int64(rows)
			want := map[string]bool{}
			for x := d + 1; x < c; x++ {
				want[rowKey(x)] = true
			}
			byClass[1] = append(byClass[1], &op{
				class: "cold-nless", tmpl: "interval", domain: "nless", mode: finq.ModeEnumerate, scan: c,
				formula: fmt.Sprintf("(lt(%d, x) & lt(x, %d))", d, c), vars: []string{"x"},
				want: sortedSet(want), budget: &finq.EnumerationBudget{Rows: rows + 4, Probe: 1 << 12},
			})
		}
	}
	for i := 0; i < decideClasses[2].ops; i++ {
		t := next()
		byClass[2] = append(byClass[2], parityOp("cold-pres", t.k, t.d, t.e, 4))
	}
	for i := 0; i < decideClasses[3].ops; i++ {
		t := next()
		byClass[3] = append(byClass[3], parityOp("cold-pres-wide", t.k, t.d, t.e, 8))
	}
	for i := 1; i < len(byClass); i++ {
		byClass[i] = stratify(byClass[i], decideSegments)
	}
	w.layout(r, decideSegments, byClass)
	return w
}

// stratify orders ops so that each of n contiguous shares holds every
// n-th op by candidate-scan length: the segments layout cuts from the
// list then cost the same.
func stratify(ops []*op, n int) []*op {
	sort.SliceStable(ops, func(i, j int) bool { return ops[i].scan < ops[j].scan })
	out := make([]*op, 0, len(ops))
	for s := 0; s < n; s++ {
		for i := s; i < len(ops); i += n {
			out = append(out, ops[i])
		}
	}
	return out
}

// ---------------------------------------------------------------------
// active-join: active-domain evaluation over two binary relations of
// 1000 tuples each (200 values, 5 successors each); composition,
// difference, asymmetry, comparison and a universal quantifier, so both
// the algebra and closure tiers run.

const (
	activeValues   = 200
	activeDegree   = 5
	activeSegments = 5
)

// activeClasses are the active-join classes with their per-pass counts.
var activeClasses = []struct {
	name   string
	shapes []string
	ops    int
}{
	{"light", []string{"difference", "asymmetry", "comparison"}, 70},
	{"heavy", []string{"composition", "forall"}, 25},
	{"profiled", []string{"comparison"}, 5},
}

var activeFormulas = map[string]string{
	"difference":  "(E(x, y) & ~F(x, y))",
	"asymmetry":   "(E(x, y) & ~E(y, x))",
	"comparison":  "(E(x, y) & lt(x, y))",
	"composition": "exists z. (E(x, z) & F(z, y))",
	"forall":      "(exists y. (E(x, y)) & forall z. (E(x, z) -> lt(x, z)))",
}

// randomGraph returns a relation over 0..values-1 in which every value
// has exactly degree successors and degree predecessors — a circulant
// graph under a random relabelling — so that answer sizes vary little
// from seed to seed.
func randomGraph(r *rand.Rand, values, degree int) []pair {
	label := r.Perm(values)
	offsets := r.Perm(values - 1)[:degree]
	var out []pair
	for i := 0; i < values; i++ {
		for _, o := range offsets {
			out = append(out, pair{int64(label[i]), int64(label[(i+o+1)%values])})
		}
	}
	return out
}

// activeAnswer computes a shape's answer over E and F in plain Go.
func activeAnswer(shape string, e, f []pair) ([]string, []string) {
	inE, inF := map[pair]bool{}, map[pair]bool{}
	for _, p := range e {
		inE[p] = true
	}
	for _, p := range f {
		inF[p] = true
	}
	want := map[string]bool{}
	xy := []string{"x", "y"}
	switch shape {
	case "difference":
		for _, p := range e {
			if !inF[p] {
				want[rowKey(p[0], p[1])] = true
			}
		}
	case "asymmetry":
		for _, p := range e {
			if !inE[pair{p[1], p[0]}] {
				want[rowKey(p[0], p[1])] = true
			}
		}
	case "comparison":
		for _, p := range e {
			if p[0] < p[1] {
				want[rowKey(p[0], p[1])] = true
			}
		}
	case "composition":
		succF := map[int64][]int64{}
		for _, p := range f {
			succF[p[0]] = append(succF[p[0]], p[1])
		}
		for _, p := range e {
			for _, y := range succF[p[1]] {
				want[rowKey(p[0], y)] = true
			}
		}
	case "forall":
		ok := map[int64]bool{}
		for _, p := range e {
			if _, seen := ok[p[0]]; !seen {
				ok[p[0]] = true
			}
			if p[0] >= p[1] {
				ok[p[0]] = false
			}
		}
		for x, good := range ok {
			if good {
				want[rowKey(x)] = true
			}
		}
		return []string{"x"}, sortedSet(want)
	}
	return xy, sortedSet(want)
}

func genActive(r *rand.Rand) *workload {
	w := &workload{name: "active-join"}
	var states []*stateData
	var pairsOf [][2][]pair
	for v := 0; v < 2; v++ {
		e, f := randomGraph(r, activeValues, activeDegree), randomGraph(r, activeValues, activeDegree)
		states = append(states, &stateData{rels: map[string][][]int64{"E": pairRows(e), "F": pairRows(f)}})
		pairsOf = append(pairsOf, [2][]pair{e, f})
	}
	var byClass [][]*op
	for _, c := range activeClasses {
		w.classes = append(w.classes, c.name)
		var combos []*op
		for _, shape := range c.shapes {
			for v, st := range states {
				vars, want := activeAnswer(shape, pairsOf[v][0], pairsOf[v][1])
				combos = append(combos, &op{
					class: c.name, tmpl: c.name + "/" + shape, domain: "presburger", mode: finq.ModeActive,
					formula: activeFormulas[shape], vars: vars, want: want, state: st,
					profile: c.name == "profiled",
				})
			}
		}
		byClass = append(byClass, cycle(combos, c.ops))
	}
	w.layout(r, activeSegments, byClass)
	return w
}

// ---------------------------------------------------------------------
// serve-mix: the wire workload. Cheap active queries over an inline
// state, most from a small hot set and a fifth from a cold pool larger
// than the plan cache; plus batches and streamed enumerations.

const (
	serveValues     = 100
	serveDegree     = 2 // 200 tuples per state
	serveStates     = 4
	serveColdConsts = 90 // × 6 templates = 540 cold shapes, > 512 plans
	serveSegments   = 10
	serveBatchItems = 64
	serveStreamRows = 64
)

// serveClasses are the serve-mix classes with their per-pass counts.
var serveClasses = []struct {
	name string
	ops  int
}{
	{"single-hot", 2160},
	{"single-cold", 540},
	{"batch", 150},
	{"stream", 150},
}

// serveTemplates are the single-query templates; %[1]d is the constant.
var serveTemplates = []string{
	"E(x, %[1]d)",
	"E(%[1]d, y)",
	"exists y. (E(x, y) & E(y, %[1]d))",
	"(E(x, %[1]d) & ~E(%[1]d, x))",
	"(E(%[1]d, y) & lt(y, %[1]d))",
	"exists y. (E(x, y) & lt(y, %[1]d))",
}

// serveAnswer computes template t with constant c over E in plain Go.
func serveAnswer(t int, c int64, e []pair) ([]string, []string) {
	inE := map[pair]bool{}
	for _, p := range e {
		inE[p] = true
	}
	want := map[string]bool{}
	vars := []string{"x"}
	switch t {
	case 0:
		for _, p := range e {
			if p[1] == c {
				want[rowKey(p[0])] = true
			}
		}
	case 1:
		vars = []string{"y"}
		for _, p := range e {
			if p[0] == c {
				want[rowKey(p[1])] = true
			}
		}
	case 2:
		for _, p := range e {
			if inE[pair{p[1], c}] {
				want[rowKey(p[0])] = true
			}
		}
	case 3:
		for _, p := range e {
			if p[1] == c && !inE[pair{c, p[0]}] {
				want[rowKey(p[0])] = true
			}
		}
	case 4:
		vars = []string{"y"}
		for _, p := range e {
			if p[0] == c && p[1] < c {
				want[rowKey(p[1])] = true
			}
		}
	case 5:
		for _, p := range e {
			if p[1] < c {
				want[rowKey(p[0])] = true
			}
		}
	}
	return vars, sortedSet(want)
}

func serveSingle(class string, t int, c int64, st *stateData, e []pair) *op {
	vars, want := serveAnswer(t, c, e)
	return &op{
		class: class, tmpl: fmt.Sprintf("single/%d", t), domain: "presburger", mode: finq.ModeActive,
		formula: fmt.Sprintf(serveTemplates[t], c), vars: vars, want: want, state: st,
	}
}

func genServe(r *rand.Rand) *workload {
	// One processor: with a single client the request path is sequential
	// anyway, and on a shared two-CPU host the client/server hand-offs
	// across CPUs made throughput follow the hypervisor's CPU steal (ten
	// runs: 323 to 547 ops/s, interquartile spread 37% of the median, with
	// two CPUs; spread 4 to 6% with one).
	w := &workload{name: "serve-mix", wire: true, procs: 1}
	for _, c := range serveClasses {
		w.classes = append(w.classes, c.name)
	}
	var states []*stateData
	var edges [][]pair
	for v := 0; v < serveStates; v++ {
		e := randomGraph(r, serveValues, serveDegree)
		states = append(states, &stateData{rels: map[string][][]int64{"E": pairRows(e)}})
		edges = append(edges, e)
	}
	// Hot singles: eight fixed (template, constant, state) combinations.
	var hot []*op
	for i := 0; i < 8; i++ {
		v := i % serveStates
		hot = append(hot, serveSingle("single-hot", i%len(serveTemplates), int64(r.Intn(serveValues)), states[v], edges[v]))
	}
	// Batches: one per state, 64 items over the selection templates.
	var batches []*op
	for v, st := range states {
		b := &op{class: "batch", tmpl: "batch", domain: "presburger", kind: kindBatch, state: st}
		for i := 0; i < serveBatchItems; i++ {
			t := []int{0, 1, 3, 4}[i%4]
			b.items = append(b.items, serveSingle("batch", t, int64(r.Intn(serveValues)), st, edges[v]))
		}
		batches = append(batches, b)
	}
	// Streams: a 64-row membership answer over the first 64 naturals but
	// one, alternating NDJSON and frames.
	var streams []*op
	for v := 0; v < 2; v++ {
		var vals []int64
		want := map[string]bool{}
		skip := r.Intn(serveStreamRows)
		for i := 0; i <= serveStreamRows; i++ {
			if i == skip {
				continue
			}
			x := int64(i)
			vals = append(vals, x)
			want[rowKey(x)] = true
		}
		st := &stateData{rels: map[string][][]int64{"G": unaryRows(vals)}}
		for _, enc := range []string{apiv1.ContentTypeNDJSON, apiv1.ContentTypeFrames} {
			streams = append(streams, &op{
				class: "stream", tmpl: "stream/" + enc, domain: "presburger", mode: finq.ModeEnumerate,
				formula: "exists y. (G(y) & (x = y))", vars: []string{"x"}, want: sortedSet(want),
				state: st, kind: kindStream, encoding: enc,
				budget: &finq.EnumerationBudget{Rows: serveStreamRows + 8, Probe: 1 << 16},
			})
		}
	}
	// Cold singles: every (constant, template) once per pass, so one pass
	// cycles through all 540 cold shapes — more than the plan cache holds.
	// Listed constant-major, each segment gets a run of constants under
	// all six templates.
	var cold []*op
	for c := int64(0); c < serveColdConsts; c++ {
		v := int(c) % serveStates
		for t := range serveTemplates {
			cold = append(cold, serveSingle("single-cold", t, c, states[v], edges[v]))
		}
	}
	w.layout(r, serveSegments, [][]*op{
		cycle(hot, serveClasses[0].ops), cold,
		cycle(batches, serveClasses[2].ops), cycle(streams, serveClasses[3].ops),
	})
	return w
}
