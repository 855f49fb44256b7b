package sparql

import (
	"sort"
	"strconv"
	"strings"

	"mdm/internal/rdf"
)

// This file retains the pre-ID-row, Binding-map-based evaluator as a
// reference oracle. It is deliberately simple: solutions are maps, terms
// are matched at the Term level, and no selectivity reordering happens
// (patterns run in written order, with only the semantics-bearing
// OPTIONAL hoisting applied). The randomized harness in spec_test.go
// evaluates every generated query through both this oracle and the
// ID-row engine and asserts solution-multiset equality, so the ~600-line
// engine rewrite cannot drift semantically without a test failing.
//
// The oracle lives in a _test.go file: it compiles only during tests and
// adds nothing to production binaries.

// refResult mirrors Result for the oracle.
type refResult struct {
	Vars []string
	Sols []Binding
	Bool bool
	Form QueryForm
}

// refCtx carries the dataset and active graph through evaluation.
type refCtx struct {
	ds     *rdf.Dataset
	active *rdf.Graph
}

// refEval is the reference implementation of Eval.
func refEval(ds *rdf.Dataset, q *Query) (*refResult, error) {
	ctx := refCtx{ds: ds, active: ds.Default()}
	sols, err := refGroup(ctx, q.Where, []Binding{{}})
	if err != nil {
		return nil, err
	}
	res := &refResult{Form: q.Form}
	if q.Form == FormAsk {
		res.Bool = len(sols) > 0
		return res, nil
	}

	if q.Star {
		res.Vars = q.Where.AllVars()
	} else {
		res.Vars = q.Variables
	}

	// Grouping/aggregation replaces the WHERE solutions before ORDER BY
	// and projection, exactly as the engine's groupByIter barrier sits
	// below the tail of the cursor pipeline. (ASK returns above: both
	// evaluators ignore aggregates for ASK.)
	if len(q.Aggregates) > 0 || len(q.GroupBy) > 0 {
		sols = refAggregate(q, sols)
	}

	// ORDER BY before projection so order keys may be non-projected.
	if len(q.OrderBy) > 0 {
		sort.SliceStable(sols, func(i, j int) bool {
			return refCmpSolutions(q.OrderBy, sols[i], sols[j]) < 0
		})
	}

	// Project.
	projected := make([]Binding, 0, len(sols))
	for _, s := range sols {
		row := make(Binding, len(res.Vars))
		for _, v := range res.Vars {
			if t, ok := s[v]; ok {
				row[v] = t
			}
		}
		projected = append(projected, row)
	}

	if q.Distinct {
		projected = refDedupe(res.Vars, projected)
	}

	// Canonical order when ORDER BY is absent, as in the engine.
	if len(q.OrderBy) == 0 && len(projected) > 1 {
		sort.SliceStable(projected, func(i, j int) bool {
			for _, v := range res.Vars {
				ti, iok := projected[i][v]
				tj, jok := projected[j][v]
				switch {
				case !iok && !jok:
					continue
				case !iok:
					return true
				case !jok:
					return false
				}
				if c := rdf.Compare(ti, tj); c != 0 {
					return c < 0
				}
			}
			return false
		})
	}

	if q.Offset > 0 {
		if q.Offset >= len(projected) {
			projected = nil
		} else {
			projected = projected[q.Offset:]
		}
	}
	if q.Limit >= 0 && q.Limit < len(projected) {
		projected = projected[:q.Limit]
	}
	res.Sols = projected
	return res, nil
}

// refCmpSolutions is the oracle's ORDER BY row order: keys left to
// right, unbound first (last under DESC), terms by refCompareOrder.
func refCmpSolutions(keys []OrderKey, a, b Binding) int {
	for _, k := range keys {
		ta, aok := a[k.Var]
		tb, bok := b[k.Var]
		var c int
		switch {
		case !aok && !bok:
			c = 0
		case !aok:
			c = -1
		case !bok:
			c = 1
		default:
			c = refCompareOrder(ta, tb)
		}
		if c != 0 {
			if k.Desc {
				return -c
			}
			return c
		}
	}
	return 0
}

// refCompareOrder is the oracle's ORDER BY term order, written apart
// from the engine's compareOrder: IRIs, then blank nodes, then literals
// strconv.ParseFloat accepts (by value, NaN first, equal values tied),
// then all other literals; within a class other than numbers, terms
// compare by rdf.Compare.
func refCompareOrder(a, b rdf.Term) int {
	ca, fa := refOrderClass(a)
	cb, fb := refOrderClass(b)
	switch {
	case ca != cb:
		return ca - cb
	case ca != 2:
		return rdf.Compare(a, b)
	}
	na, nb := fa != fa, fb != fb
	switch {
	case na && nb, !na && !nb && fa == fb:
		return 0
	case na, !nb && fa < fb:
		return -1
	}
	return 1
}

func refOrderClass(t rdf.Term) (int, float64) {
	switch t.Kind {
	case rdf.KindIRI:
		return 0, 0
	case rdf.KindBlank:
		return 1, 0
	}
	if f, err := strconv.ParseFloat(t.Value, 64); err == nil {
		return 2, f
	}
	return 3, 0
}

func refDedupe(vars []string, sols []Binding) []Binding {
	seen := map[string]bool{}
	out := sols[:0:0]
	for _, s := range sols {
		var key strings.Builder
		for _, v := range vars {
			if t, ok := s[v]; ok {
				key.WriteString(t.String())
			}
			key.WriteByte('\x00')
		}
		k := key.String()
		if !seen[k] {
			seen[k] = true
			out = append(out, s)
		}
	}
	return out
}

// refOrderPatterns applies only the semantics-bearing part of pattern
// planning: triple/UNION/GRAPH patterns in written order, OPTIONALs
// hoisted after them so left joins see the full base solution set.
func refOrderPatterns(ps []Pattern) []Pattern {
	if len(ps) <= 1 {
		return ps
	}
	out := make([]Pattern, 0, len(ps))
	for _, p := range ps {
		if _, ok := p.(Optional); !ok {
			out = append(out, p)
		}
	}
	for _, p := range ps {
		if _, ok := p.(Optional); ok {
			out = append(out, p)
		}
	}
	return out
}

func refGroup(ctx refCtx, g *Group, input []Binding) ([]Binding, error) {
	sols := input
	for _, pat := range refOrderPatterns(g.Patterns) {
		var err error
		sols, err = refPattern(ctx, pat, sols)
		if err != nil {
			return nil, err
		}
		if len(sols) == 0 {
			break
		}
	}
	for _, f := range g.Filters {
		kept := sols[:0:0]
		for _, s := range sols {
			v, err := f.Eval(s)
			if err != nil {
				continue // error => effective false
			}
			ok, err := v.AsBool()
			if err != nil || !ok {
				continue
			}
			kept = append(kept, s)
		}
		sols = kept
	}
	return sols, nil
}

func refPattern(ctx refCtx, pat Pattern, input []Binding) ([]Binding, error) {
	switch p := pat.(type) {
	case TriplePattern:
		return refTriple(ctx, p, input), nil
	case Optional:
		return refOptional(ctx, p, input)
	case Union:
		var out []Binding
		for _, branch := range p.Branches {
			bs, err := refGroup(ctx, branch, input)
			if err != nil {
				return nil, err
			}
			out = append(out, bs...)
		}
		return out, nil
	case GraphPattern:
		return refGraphPattern(ctx, p, input)
	case PathPattern:
		return refPathPattern(ctx, p, input), nil
	default:
		panic("sparql: unknown pattern type in oracle")
	}
}

func refTriple(ctx refCtx, tp TriplePattern, input []Binding) []Binding {
	var out []Binding
	for _, b := range input {
		s := refResolve(tp.S, b)
		p := refResolve(tp.P, b)
		o := refResolve(tp.O, b)
		ctx.active.EachMatch(s, p, o, func(t rdf.Triple) bool {
			if nb, ok := refExtend(b, tp, t); ok {
				out = append(out, nb)
			}
			return true
		})
	}
	return out
}

// refExtend returns a fresh binding extending b with the pattern's
// variables bound to the matched triple, or ok = false when the triple
// conflicts with existing bindings or a repeated pattern variable.
func refExtend(b Binding, tp TriplePattern, t rdf.Triple) (Binding, bool) {
	if tp.S.IsVar() {
		if cur, ok := b[tp.S.Var]; ok && cur != t.S {
			return nil, false
		}
		if tp.P.IsVar() && tp.P.Var == tp.S.Var && t.P != t.S {
			return nil, false
		}
		if tp.O.IsVar() && tp.O.Var == tp.S.Var && t.O != t.S {
			return nil, false
		}
	}
	if tp.P.IsVar() {
		if cur, ok := b[tp.P.Var]; ok && cur != t.P {
			return nil, false
		}
		if tp.O.IsVar() && tp.O.Var == tp.P.Var && t.O != t.P {
			return nil, false
		}
	}
	if tp.O.IsVar() {
		if cur, ok := b[tp.O.Var]; ok && cur != t.O {
			return nil, false
		}
	}
	nb := b.Clone()
	if tp.S.IsVar() {
		nb[tp.S.Var] = t.S
	}
	if tp.P.IsVar() {
		nb[tp.P.Var] = t.P
	}
	if tp.O.IsVar() {
		nb[tp.O.Var] = t.O
	}
	return nb, true
}

func refResolve(n Node, b Binding) rdf.Term {
	if !n.IsVar() {
		return n.Term
	}
	if t, ok := b[n.Var]; ok {
		return t
	}
	return rdf.Any
}

func refOptional(ctx refCtx, opt Optional, input []Binding) ([]Binding, error) {
	var out []Binding
	for _, b := range input {
		ext, err := refGroup(ctx, opt.Group, []Binding{b})
		if err != nil {
			return nil, err
		}
		if len(ext) == 0 {
			out = append(out, b) // left-join: keep unextended
		} else {
			out = append(out, ext...)
		}
	}
	return out, nil
}

func refGraphPattern(ctx refCtx, gp GraphPattern, input []Binding) ([]Binding, error) {
	if !gp.Name.IsVar() {
		g, ok := ctx.ds.Lookup(gp.Name.Term)
		if !ok {
			return nil, nil // empty graph => no solutions
		}
		sub := refCtx{ds: ctx.ds, active: g}
		return refGroup(sub, gp.Group, input)
	}
	var out []Binding
	for _, name := range ctx.ds.GraphNames() {
		g, _ := ctx.ds.Lookup(name)
		sub := refCtx{ds: ctx.ds, active: g}
		var compat []Binding
		for _, b := range input {
			if cur, ok := b[gp.Name.Var]; ok {
				if cur != name {
					continue
				}
				compat = append(compat, b)
			} else {
				nb := b.Clone()
				nb[gp.Name.Var] = name
				compat = append(compat, nb)
			}
		}
		if len(compat) == 0 {
			continue
		}
		bs, err := refGroup(sub, gp.Group, compat)
		if err != nil {
			return nil, err
		}
		out = append(out, bs...)
	}
	return out, nil
}

// --- property path oracle ---
//
// Naive Term-level path evaluation: no compiled plans, no bitsets, no
// frontier pooling. Links/sequences/alternatives/inverses preserve
// multiset cardinality (a sequence through two intermediates yields the
// end twice); +, * and ? use set semantics via a plain visited map, with
// * and ? contributing the zero-length match. This independently mirrors
// the semantics of pathEach/pathClosure in path.go.

func refPathPattern(ctx refCtx, pp PathPattern, input []Binding) []Binding {
	g := ctx.active
	var out []Binding
	for _, b := range input {
		s := refResolve(pp.S, b)
		o := refResolve(pp.O, b)
		emit := func(start, end rdf.Term) {
			if nb, ok := refPathExtend(b, pp, start, end); ok {
				out = append(out, nb)
			}
		}
		switch {
		case s != rdf.Any:
			for _, end := range refPathEnds(g, pp.Path, s, false) {
				emit(s, end)
			}
		case o != rdf.Any:
			// Walk the path backwards from the bound object.
			for _, start := range refPathEnds(g, pp.Path, o, true) {
				emit(start, o)
			}
		default:
			// Both ends free: zero-length semantics range over the
			// graph's nodes (subjects and objects), as in the engine.
			for _, n := range refNodes(g) {
				for _, end := range refPathEnds(g, pp.Path, n, false) {
					emit(n, end)
				}
			}
		}
	}
	return out
}

// refPathExtend checks endpoint compatibility (constants, prior
// bindings, a shared ?x path ?x variable) and extends the binding.
func refPathExtend(b Binding, pp PathPattern, s, o rdf.Term) (Binding, bool) {
	if pp.S.IsVar() {
		if cur, ok := b[pp.S.Var]; ok && cur != s {
			return nil, false
		}
		if pp.O.IsVar() && pp.O.Var == pp.S.Var && s != o {
			return nil, false
		}
	} else if pp.S.Term != s {
		return nil, false
	}
	if pp.O.IsVar() {
		if cur, ok := b[pp.O.Var]; ok && cur != o {
			return nil, false
		}
	} else if pp.O.Term != o {
		return nil, false
	}
	nb := b.Clone()
	if pp.S.IsVar() {
		nb[pp.S.Var] = s
	}
	if pp.O.IsVar() {
		nb[pp.O.Var] = o
	}
	return nb, true
}

// refPathEnds returns the path's end nodes starting from start; rev
// walks the path right-to-left (object towards subject), which is how
// the oracle evaluates a pattern whose object is bound.
func refPathEnds(g *rdf.Graph, p *Path, start rdf.Term, rev bool) []rdf.Term {
	switch p.Kind {
	case PathLink:
		var out []rdf.Term
		if rev {
			g.EachMatch(rdf.Any, p.IRI, start, func(t rdf.Triple) bool {
				out = append(out, t.S)
				return true
			})
		} else {
			g.EachMatch(start, p.IRI, rdf.Any, func(t rdf.Triple) bool {
				out = append(out, t.O)
				return true
			})
		}
		return out
	case PathInv:
		return refPathEnds(g, p.Sub, start, !rev)
	case PathSeq:
		l, r := p.L, p.R
		if rev {
			l, r = r, l
		}
		var out []rdf.Term
		for _, mid := range refPathEnds(g, l, start, rev) {
			out = append(out, refPathEnds(g, r, mid, rev)...)
		}
		return out
	case PathAlt:
		return append(refPathEnds(g, p.L, start, rev), refPathEnds(g, p.R, start, rev)...)
	case PathOpt:
		seen := map[rdf.Term]bool{start: true}
		out := []rdf.Term{start}
		for _, end := range refPathEnds(g, p.Sub, start, rev) {
			if !seen[end] {
				seen[end] = true
				out = append(out, end)
			}
		}
		return out
	case PathPlus, PathStar:
		visited := map[rdf.Term]bool{}
		var out []rdf.Term
		frontier := []rdf.Term{start}
		if p.Kind == PathStar {
			visited[start] = true
			out = append(out, start)
		}
		for len(frontier) > 0 {
			n := frontier[len(frontier)-1]
			frontier = frontier[:len(frontier)-1]
			for _, end := range refPathEnds(g, p.Sub, n, rev) {
				if visited[end] {
					continue
				}
				visited[end] = true
				out = append(out, end)
				frontier = append(frontier, end)
			}
		}
		return out
	default:
		panic("sparql: unknown path kind in oracle")
	}
}

// refNodes returns the distinct subjects and objects of the graph.
func refNodes(g *rdf.Graph) []rdf.Term {
	seen := map[rdf.Term]bool{}
	var out []rdf.Term
	for _, t := range g.Triples() {
		if !seen[t.S] {
			seen[t.S] = true
			out = append(out, t.S)
		}
		if !seen[t.O] {
			seen[t.O] = true
			out = append(out, t.O)
		}
	}
	return out
}

// --- aggregation oracle ---
//
// Map-based grouping over Binding solutions. The grouping logic (key
// construction, implicit group, DISTINCT, HAVING placement) is
// independent of the engine's groupByIter; only the leaf arithmetic
// (sumAcc, minTerm, maxTerm) is shared so formatting agrees by
// construction.

type refAggGroup struct {
	rep  Binding
	n    []int64
	sum  []sumAcc
	best []rdf.Term
	has  []bool
	seen []map[rdf.Term]bool
}

func refAggregate(q *Query, sols []Binding) []Binding {
	groups := map[string]*refAggGroup{}
	var order []*refAggGroup
	for _, s := range sols {
		var key strings.Builder
		for _, v := range q.GroupBy {
			if t, ok := s[v]; ok {
				key.WriteString(t.String())
			}
			key.WriteByte('\x00')
		}
		k := key.String()
		grp, ok := groups[k]
		if !ok {
			grp = &refAggGroup{
				rep:  s,
				n:    make([]int64, len(q.Aggregates)),
				sum:  make([]sumAcc, len(q.Aggregates)),
				best: make([]rdf.Term, len(q.Aggregates)),
				has:  make([]bool, len(q.Aggregates)),
				seen: make([]map[rdf.Term]bool, len(q.Aggregates)),
			}
			groups[k] = grp
			order = append(order, grp)
		}
		for i, a := range q.Aggregates {
			refAggUpdate(grp, i, a, s)
		}
	}
	if len(order) == 0 && len(q.GroupBy) == 0 {
		order = append(order, &refAggGroup{
			n:    make([]int64, len(q.Aggregates)),
			sum:  make([]sumAcc, len(q.Aggregates)),
			best: make([]rdf.Term, len(q.Aggregates)),
			has:  make([]bool, len(q.Aggregates)),
		})
	}
	out := make([]Binding, 0, len(order))
	for _, grp := range order {
		row := Binding{}
		for _, v := range q.GroupBy {
			if t, ok := grp.rep[v]; ok {
				row[v] = t
			}
		}
		for i, a := range q.Aggregates {
			switch a.Func {
			case AggCount:
				row[a.As] = rdf.IntLit(grp.n[i])
			case AggSum:
				if t, ok := grp.sum[i].term(); ok {
					row[a.As] = t
				}
			default: // AggMin, AggMax
				if grp.has[i] {
					row[a.As] = grp.best[i]
				}
			}
		}
		out = append(out, row)
	}
	// HAVING filters the grouped rows; an evaluation error is an
	// effective false, as for WHERE filters.
	for _, h := range q.Having {
		kept := out[:0:0]
		for _, row := range out {
			v, err := h.Eval(row)
			if err != nil {
				continue
			}
			ok, err := v.AsBool()
			if err != nil || !ok {
				continue
			}
			kept = append(kept, row)
		}
		out = kept
	}
	return out
}

func refAggUpdate(grp *refAggGroup, i int, a Aggregate, s Binding) {
	if a.Var == "" {
		grp.n[i]++ // COUNT(*): every row counts
		return
	}
	t, bound := s[a.Var]
	if !bound {
		return
	}
	if a.Distinct {
		if grp.seen[i] == nil {
			grp.seen[i] = map[rdf.Term]bool{}
		}
		if grp.seen[i][t] {
			return
		}
		grp.seen[i][t] = true
	}
	switch a.Func {
	case AggCount:
		grp.n[i]++
	case AggSum:
		grp.sum[i].add(t)
	case AggMin:
		if !grp.has[i] {
			grp.best[i], grp.has[i] = t, true
		} else {
			grp.best[i] = minTerm(grp.best[i], t)
		}
	case AggMax:
		if !grp.has[i] {
			grp.best[i], grp.has[i] = t, true
		} else {
			grp.best[i] = maxTerm(grp.best[i], t)
		}
	}
}
