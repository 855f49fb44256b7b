package sparql

import (
	"strconv"

	"mdm/internal/rdf"
)

// This file implements GROUP BY / aggregate evaluation as a hash
// barrier in the cursor pipeline: groupByIter drains its input, groups
// rows by the packed IDs of the GROUP BY slots (appendRowKey — the
// dictionary is a bijection, so ID-byte equality is term equality),
// folds each row into per-group aggregate states, and then streams one
// output row per group in first-seen order. Output rows bind only the
// group slots plus the aggregate aliases (every other slot is unbound:
// non-grouped WHERE variables are not well-defined per group), with
// aggregate results rendered to terms and interned into the shared
// dictionary. HAVING runs as an ordinary filterIter over the grouped
// rows, so aliases are visible to it through the regular slot layout.
//
// Semantics (mirrored by the oracle's refAggregate in oracle_test.go):
//
//   - COUNT(*) counts all rows of the group; COUNT(?x) only rows where
//     ?x is bound; DISTINCT deduplicates by term identity first.
//   - SUM over an empty group (or empty after unbound-skipping) is the
//     integer 0; integer-only inputs stay xsd:integer, any other
//     numeric input promotes to xsd:double, and a non-numeric input
//     makes the sum an error — the alias is left unbound.
//   - MIN/MAX pick the first and last value under the ORDER BY order
//     (compareOrder, order.go), with rdf.Compare breaking numeric ties
//     so the winner is independent of row order; over an empty group
//     the alias is unbound.
//
// When the query has aggregates but no GROUP BY, every row falls into
// one implicit group, which emits exactly one output row even when the
// input is empty (COUNT = 0, SUM = 0, MIN/MAX unbound). GROUP BY with
// an empty input emits no rows.

// mutation injects one deliberate operator bug into the engine; the
// mutation-check tests in spec_test.go flip these to prove the oracle
// equivalence harness catches each class of regression, then restore
// mutNone. Only tests may set it, before evaluation starts.
var mutation = mutNone

const (
	mutNone int32 = iota
	// mutPathDupEmit re-emits already-visited nodes from the path
	// fixpoint (a dropped frontier/emission dedup: multiple routes to
	// one node yield duplicate rows).
	mutPathDupEmit
	// mutGroupKeyNarrow truncates group keys to each ID's low byte, so
	// distinct group values can collide and merge.
	mutGroupKeyNarrow
	// mutHavingPreAgg applies HAVING before aggregation instead of
	// after, the classic filter-placement bug.
	mutHavingPreAgg
	// mutOrderIgnoreDesc sorts DESC order keys ascending.
	mutOrderIgnoreDesc
	// mutTopKNoSeq drops the input-sequence tie-break from the bounded
	// order barrier, so rows tied on the order keys may evict or
	// outrank earlier ones.
	mutTopKNoSeq
	// mutOrderNonTransitive ranks ORDER BY keys with the old
	// non-transitive comparator (legacyCompareOrder).
	mutOrderNonTransitive
)

// aggSpec is one compiled aggregate: its function, the input slot
// (-1 for COUNT(*)) and the output alias slot.
type aggSpec struct {
	fn       AggFunc
	distinct bool
	argSlot  int
	outSlot  int
}

// aggregateChain wraps src with the query's grouping stage: the
// groupByIter barrier plus the HAVING filter over its output.
func (e *evaluator) aggregateChain(q *Query, src rowIter) rowIter {
	keySlots := make([]int, len(q.GroupBy))
	for i, v := range q.GroupBy {
		keySlots[i] = e.lay.index[v]
	}
	specs := make([]aggSpec, len(q.Aggregates))
	for i, a := range q.Aggregates {
		s := aggSpec{fn: a.Func, distinct: a.Distinct, argSlot: -1, outSlot: e.lay.index[a.As]}
		if a.Var != "" {
			s.argSlot = e.lay.index[a.Var]
		}
		specs[i] = s
	}
	if mutation == mutHavingPreAgg && len(q.Having) > 0 {
		src = &filterIter{e: e, src: src, exprs: q.Having}
		return &groupByIter{e: e, src: src, keySlots: keySlots, specs: specs, implicit: len(q.GroupBy) == 0}
	}
	var it rowIter = &groupByIter{e: e, src: src, keySlots: keySlots, specs: specs, implicit: len(q.GroupBy) == 0}
	if len(q.Having) > 0 {
		it = &filterIter{e: e, src: it, exprs: q.Having}
	}
	return it
}

// groupByIter is the grouping barrier.
type groupByIter struct {
	e        *evaluator
	src      rowIter
	keySlots []int
	specs    []aggSpec
	implicit bool // no GROUP BY: one group, emitted even on empty input

	filled bool
	rows   [][]rdf.TermID
	pos    int
}

type aggGroup struct {
	rep []rdf.TermID // arena copy of the group's first row (key slots)
	st  []aggState
}

func (it *groupByIter) next() []rdf.TermID {
	if !it.filled {
		it.filled = true
		it.fill()
	}
	if it.e.err != nil || it.pos >= len(it.rows) {
		return nil
	}
	r := it.rows[it.pos]
	it.pos++
	return r
}

func (it *groupByIter) fill() {
	groups := make(map[string]*aggGroup)
	var order []*aggGroup
	var key []byte
	for {
		row := it.src.next()
		if row == nil {
			break
		}
		key = it.appendKey(key[:0], row)
		grp, ok := groups[string(key)]
		if !ok {
			grp = &aggGroup{rep: it.e.extend(row), st: make([]aggState, len(it.specs))}
			groups[string(key)] = grp
			order = append(order, grp)
		}
		for si := range it.specs {
			grp.st[si].update(it.e, it.specs[si], row)
		}
	}
	if it.e.err != nil {
		return
	}
	if len(order) == 0 && it.implicit {
		order = append(order, &aggGroup{st: make([]aggState, len(it.specs))})
	}
	for _, grp := range order {
		out := it.e.newRow()
		for i := range out {
			out[i] = unboundID
		}
		if grp.rep != nil {
			for _, s := range it.keySlots {
				out[s] = grp.rep[s]
			}
		}
		for si := range it.specs {
			if t, ok := grp.st[si].result(it.specs[si]); ok {
				out[it.specs[si].outSlot] = it.e.dict.Intern(t)
			}
		}
		it.rows = append(it.rows, out)
	}
}

func (it *groupByIter) appendKey(key []byte, row []rdf.TermID) []byte {
	if mutation == mutGroupKeyNarrow {
		for _, s := range it.keySlots {
			key = append(key, byte(row[s]))
		}
		return key
	}
	return appendRowKey(key, row, it.keySlots)
}

// aggState folds one aggregate over one group's rows.
type aggState struct {
	n    int64
	sum  sumAcc
	best rdf.Term // MIN/MAX winner so far
	has  bool
	seen map[rdf.TermID]struct{} // DISTINCT dedup
}

func (st *aggState) update(e *evaluator, sp aggSpec, row []rdf.TermID) {
	if sp.argSlot < 0 {
		st.n++ // COUNT(*): every row counts
		return
	}
	id := row[sp.argSlot]
	if id == unboundID {
		return
	}
	if sp.distinct {
		if st.seen == nil {
			st.seen = make(map[rdf.TermID]struct{})
		}
		if _, dup := st.seen[id]; dup {
			return
		}
		st.seen[id] = struct{}{}
	}
	switch sp.fn {
	case AggCount:
		st.n++
	case AggSum:
		st.sum.add(e.term(id))
	case AggMin:
		t := e.term(id)
		if !st.has {
			st.best, st.has = t, true
		} else {
			st.best = minTerm(st.best, t)
		}
	case AggMax:
		t := e.term(id)
		if !st.has {
			st.best, st.has = t, true
		} else {
			st.best = maxTerm(st.best, t)
		}
	}
}

// result renders the aggregate's value; ok is false when the alias
// stays unbound (MIN/MAX of nothing, a poisoned SUM).
func (st *aggState) result(sp aggSpec) (rdf.Term, bool) {
	switch sp.fn {
	case AggCount:
		return rdf.IntLit(st.n), true
	case AggSum:
		return st.sum.term()
	default: // AggMin, AggMax
		if !st.has {
			return rdf.Term{}, false
		}
		return st.best, true
	}
}

// --- shared term-level aggregate arithmetic ---
//
// The engine (above, over decoded terms) and the test oracle
// (oracle_test.go, over Binding maps) both fold through these helpers,
// so result *formatting* agrees by construction while the grouping
// logic stays independently implemented.

// sumAcc accumulates SUM. The zero value is the empty sum (integer 0).
type sumAcc struct {
	f      float64
	i      int64
	wide   bool // a non-integer numeric input promoted the result
	poison bool // a non-numeric input made the sum an error
}

func (a *sumAcc) add(t rdf.Term) {
	f, err := t.Float()
	if err != nil {
		a.poison = true
		return
	}
	a.f += f
	if !a.wide && t.Datatype == rdf.XSDInteger {
		if i, err := strconv.ParseInt(t.Value, 10, 64); err == nil {
			a.i += i
			return
		}
	}
	a.wide = true
}

func (a *sumAcc) term() (rdf.Term, bool) {
	switch {
	case a.poison:
		return rdf.Term{}, false
	case a.wide:
		return rdf.FloatLit(a.f), true
	default:
		return rdf.IntLit(a.i), true
	}
}

// minTerm returns the smaller term under the ORDER BY order; numeric
// ties ("01" vs "1") are broken by rdf.Compare so the result does not
// depend on the order rows were folded in.
func minTerm(a, b rdf.Term) rdf.Term {
	c := compareOrder(a, b)
	if c == 0 {
		c = rdf.Compare(a, b)
	}
	if c <= 0 {
		return a
	}
	return b
}

// maxTerm is minTerm's dual.
func maxTerm(a, b rdf.Term) rdf.Term {
	c := compareOrder(a, b)
	if c == 0 {
		c = rdf.Compare(a, b)
	}
	if c >= 0 {
		return a
	}
	return b
}
