package sparql

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"strconv"
	"testing"

	"mdm/internal/rdf"
)

// orderClasses lists terms in ascending ORDER BY order, one inner slice
// per tie class.
var orderClasses = [][]rdf.Term{
	{rdf.IRI("http://ex.org/a")},
	{rdf.IRI("http://ex.org/b")},
	{rdf.Blank("b1")},
	{rdf.Lit("NaN")},
	{rdf.Lit("-1.5e1")},
	{rdf.Lit("+1"), rdf.Lit("1"), rdf.Lit("1.0"), rdf.IntLit(1)},
	{rdf.IntLit(2)},
	{rdf.Lit("9")},
	{rdf.Lit("10")},
	{rdf.Lit("1e400")}, // out of float64's range: not a number
	{rdf.Lit("5x")},
	{rdf.TypedLit("abc", "http://ex.org/dt")},
	{rdf.Lit("hola")},
	{rdf.LangLit("hola", "es")},
}

// orderClassOf returns the index of t's tie class in orderClasses.
func orderClassOf(t *testing.T, term rdf.Term) int {
	t.Helper()
	for i, c := range orderClasses {
		if slices.Contains(c, term) {
			return i
		}
	}
	t.Fatalf("term %v not in orderClasses", term)
	return -1
}

func TestCompareOrderTable(t *testing.T) {
	var all []rdf.Term
	for _, c := range orderClasses {
		all = append(all, c...)
	}
	for _, a := range all {
		for _, b := range all {
			want := orderClassOf(t, a) - orderClassOf(t, b)
			got := compareOrder(a, b)
			if (got < 0) != (want < 0) || (got == 0) != (want == 0) {
				t.Errorf("compareOrder(%v, %v) = %d, want sign of %d", a, b, got, want)
			}
		}
	}
	// Every permutation sorts into the same sequence of tie classes.
	want := make([]int, len(all))
	for i, a := range all {
		want[i] = orderClassOf(t, a)
	}
	r := rand.New(rand.NewSource(1))
	for n := 0; n < 200; n++ {
		perm := slices.Clone(all)
		r.Shuffle(len(perm), func(i, j int) { perm[i], perm[j] = perm[j], perm[i] })
		slices.SortFunc(perm, compareOrder)
		for i, term := range perm {
			if got := orderClassOf(t, term); got != want[i] {
				t.Fatalf("permutation %d sorted to %v", n, perm)
			}
		}
	}
}

// orderDataset binds ?v of subject ex:s<i> to vals[i] (ex:s<len> gets no
// ?v), inserting the triples in the order perm gives.
func orderDataset(vals []rdf.Term, perm []int) *rdf.Dataset {
	ds := rdf.NewDataset()
	ex := func(s string) rdf.Term { return rdf.IRI("http://ex.org/" + s) }
	for _, i := range perm {
		s := ex(fmt.Sprintf("s%d", i))
		ds.Default().MustAdd(rdf.T(s, ex("k"), ex("row")))
		if i < len(vals) {
			ds.Default().MustAdd(rdf.T(s, ex("v"), vals[i]))
		}
	}
	return ds
}

// TestOrderByTotalOrder runs ORDER BY through both barriers over the
// table's terms plus an unbound row, for many insertion orders: the
// output follows the table (unbound first ascending, last descending)
// and its tie-class sequence is the same for every input permutation.
func TestOrderByTotalOrder(t *testing.T) {
	var vals []rdf.Term
	for _, c := range orderClasses {
		vals = append(vals, c...)
	}
	n := len(vals) + 1 // + the unbound row
	classSeq := func(res *Result) []int {
		var out []int
		for i := 0; i < res.Len(); i++ {
			term, ok := res.Term(i, "v")
			if !ok {
				out = append(out, -1)
			} else {
				out = append(out, orderClassOf(t, term))
			}
		}
		return out
	}
	asc := []int{-1}
	for _, v := range vals {
		asc = append(asc, orderClassOf(t, v))
	}
	slices.Sort(asc)
	desc := slices.Clone(asc[1:])
	slices.Reverse(desc)
	desc = append(desc, -1)
	const where = `PREFIX ex: <http://ex.org/> SELECT ?s ?v WHERE { ?s ex:k ex:row OPTIONAL { ?s ex:v ?v } } `
	cases := []struct {
		tail string
		want []int
	}{
		{"ORDER BY ?v", asc},
		{"ORDER BY DESC(?v)", desc},
		{"ORDER BY ?v LIMIT 7", asc[:7]},
		{"ORDER BY DESC(?v) LIMIT 5 OFFSET 3", desc[3:8]},
		{"ORDER BY ?v LIMIT 100", asc},
	}
	r := rand.New(rand.NewSource(2))
	for p := 0; p < 30; p++ {
		ds := orderDataset(vals, r.Perm(n))
		for _, tc := range cases {
			res, err := Run(ds, where+tc.tail)
			if err != nil {
				t.Fatal(err)
			}
			if got := classSeq(res); !slices.Equal(got, tc.want) {
				t.Fatalf("%s, permutation %d: classes %v, want %v", tc.tail, p, got, tc.want)
			}
		}
	}
}

// TestMinMaxAgreeWithOrderBy: MIN and MAX pick the first row of ORDER
// BY ascending and descending (up to ties).
func TestMinMaxAgreeWithOrderBy(t *testing.T) {
	sets := [][]rdf.Term{
		{rdf.Lit("9"), rdf.Lit("10"), rdf.Lit("5x")},
		{rdf.Lit("1"), rdf.Lit("1.0"), rdf.Lit("+1"), rdf.IntLit(7)},
		{rdf.Lit("NaN"), rdf.IntLit(-3), rdf.LangLit("hola", "es")},
		{rdf.IRI("http://ex.org/z"), rdf.Blank("b"), rdf.Lit("2")},
	}
	var all []rdf.Term
	for _, c := range orderClasses {
		all = append(all, c...)
	}
	sets = append(sets, all)
	for _, vals := range sets {
		perm := make([]int, len(vals))
		for i := range perm {
			perm[i] = i
		}
		ds := orderDataset(vals, perm)
		const where = `PREFIX ex: <http://ex.org/> SELECT %s WHERE { ?s ex:v ?v } %s`
		agg, err := Run(ds, fmt.Sprintf(where, "(MIN(?v) AS ?lo) (MAX(?v) AS ?hi)", ""))
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range []struct{ alias, tail string }{{"lo", "ORDER BY ?v LIMIT 1"}, {"hi", "ORDER BY DESC(?v) LIMIT 1"}} {
			first, err := Run(ds, fmt.Sprintf(where, "?v", c.tail))
			if err != nil {
				t.Fatal(err)
			}
			a, _ := agg.Term(0, c.alias)
			f, _ := first.Term(0, "v")
			if compareOrder(a, f) != 0 {
				t.Errorf("%v: %s = %v, but %s starts with %v", vals, c.alias, a, c.tail, f)
			}
		}
	}
}

// TestOrderByAggregateAlias sorts on COUNT results, which are interned
// into the dictionary during evaluation (the data holds no numbers).
func TestOrderByAggregateAlias(t *testing.T) {
	ds := rdf.NewDataset()
	ex := func(s string) rdf.Term { return rdf.IRI("http://ex.org/" + s) }
	for g, n := range map[string]int{"a": 10, "b": 9, "c": 2, "d": 100} {
		for i := 0; i < n; i++ {
			ds.Default().MustAdd(rdf.T(ex(g), ex("p"), ex(fmt.Sprintf("%s%d", g, i))))
		}
	}
	for _, tc := range []struct{ tail, want string }{
		{"ORDER BY ?n", "c b a d"},
		{"ORDER BY DESC(?n) LIMIT 3", "d a b"},
	} {
		res, err := Run(ds, `PREFIX ex: <http://ex.org/> SELECT ?s (COUNT(?o) AS ?n) WHERE { ?s ex:p ?o } GROUP BY ?s `+tc.tail)
		if err != nil {
			t.Fatal(err)
		}
		var got string
		for i := 0; i < res.Len(); i++ {
			s, _ := res.Term(i, "s")
			if i > 0 {
				got += " "
			}
			got += s.LocalName()
		}
		if got != tc.want {
			t.Errorf("%s: subjects %q, want %q", tc.tail, got, tc.want)
		}
	}
}

// TestOrderByLimitAllocs: the bounded barrier allocates per retained
// row, not per input row, for numeric and IRI keys alike.
func TestOrderByLimitAllocs(t *testing.T) {
	build := func(n int, iri bool) *rdf.Dataset {
		ds := rdf.NewDataset()
		ex := func(s string) rdf.Term { return rdf.IRI("http://ex.org/" + s) }
		for _, i := range rand.New(rand.NewSource(int64(n))).Perm(n) {
			v := rdf.IntLit(int64(i))
			if iri {
				v = ex(fmt.Sprintf("x%d", i))
			}
			ds.Default().MustAdd(rdf.T(ex(fmt.Sprintf("s%d", i)), ex("p"), v))
		}
		return ds
	}
	for _, iri := range []bool{false, true} {
		q := MustParse(`PREFIX ex: <http://ex.org/> SELECT ?s ?x WHERE { ?s ex:p ?x } ORDER BY ?x LIMIT 10`)
		allocs := func(n int) float64 {
			ds := build(n, iri)
			return testing.AllocsPerRun(5, func() {
				cur, err := EvalCursor(ds, q)
				if err != nil {
					t.Fatal(err)
				}
				rows := 0
				for cur.Next(context.Background()) {
					rows++
				}
				if rows != 10 {
					t.Fatalf("rows = %d", rows)
				}
			})
		}
		if small, large := allocs(3000), allocs(30000); small != large {
			t.Errorf("iri=%v: %v allocs at 3k rows, %v at 30k", iri, small, large)
		}
	}
}

func TestMayParseFloat(t *testing.T) {
	for _, s := range []string{
		"", "+", "-", "1", "+1", "-1.5e-3", ".5", "5.", "1_000", "0x1p-2", "0X1.8P+1", "0x_1p0",
		"Inf", "-inf", "+Infinity", "infinit", "NaN", "nan", "+NaN", "-nan", "1e400", "1e", "e1",
		"5x", "abc", "0x", "0xg", "1.2.3", "--1", "١", "ｉnf",
	} {
		_, err := strconv.ParseFloat(s, 64)
		if err == nil && !mayParseFloat(s) {
			t.Errorf("mayParseFloat(%q) = false, but ParseFloat accepts it", s)
		}
	}
	for _, s := range []string{"5x", "abc", "hola", "http://ex.org/a", "", "+NaN", "infinit", "x1"} {
		if mayParseFloat(s) {
			t.Errorf("mayParseFloat(%q) = true", s)
		}
	}
}

// fuzzTerm builds a term from a fuzzed kind selector and value.
func fuzzTerm(kind uint8, v string) rdf.Term {
	switch kind % 6 {
	case 0:
		return rdf.IRI(v)
	case 1:
		return rdf.Blank(v)
	case 2:
		return rdf.Lit(v)
	case 3:
		return rdf.TypedLit(v, rdf.XSDInteger)
	case 4:
		return rdf.TypedLit(v, rdf.XSDDouble)
	default:
		return rdf.LangLit(v, "en")
	}
}

func sign(c int) int {
	switch {
	case c < 0:
		return -1
	case c > 0:
		return 1
	}
	return 0
}

// FuzzOrderTotal checks that compareOrder is a strict weak order on
// fuzzed term triples — irreflexive, antisymmetric, transitive, with
// transitive ties — and that mayParseFloat never rejects a lexical form
// strconv.ParseFloat accepts.
func FuzzOrderTotal(f *testing.F) {
	seeds := [][3]string{
		{"9", "10", "5x"}, {"1", "1.0", "+1"}, {"NaN", "-Inf", "x"}, {"1e400", "inf", "0x1p-2"},
		{"1_000", "1000", "-0"}, {"nan", "NAN", "Infinity"}, {"", "0", "http://ex.org/a"},
	}
	for i, s := range seeds {
		f.Add(uint8(i), s[0], uint8(i+1), s[1], uint8(i+2), s[2])
	}
	f.Fuzz(func(t *testing.T, ka uint8, va string, kb uint8, vb string, kc uint8, vc string) {
		for _, v := range []string{va, vb, vc} {
			if _, err := strconv.ParseFloat(v, 64); err == nil && !mayParseFloat(v) {
				t.Fatalf("mayParseFloat(%q) = false, but ParseFloat accepts it", v)
			}
		}
		a, b, c := fuzzTerm(ka, va), fuzzTerm(kb, vb), fuzzTerm(kc, vc)
		for _, x := range []rdf.Term{a, b, c} {
			if compareOrder(x, x) != 0 {
				t.Fatalf("compareOrder(%v, %v) != 0", x, x)
			}
		}
		ts := []rdf.Term{a, b, c}
		for _, x := range ts {
			for _, y := range ts {
				if sign(compareOrder(x, y)) != -sign(compareOrder(y, x)) {
					t.Fatalf("not antisymmetric: %v vs %v", x, y)
				}
				for _, z := range ts {
					xy, yz, xz := sign(compareOrder(x, y)), sign(compareOrder(y, z)), sign(compareOrder(x, z))
					if xy <= 0 && yz <= 0 && xz > 0 {
						t.Fatalf("not transitive: %v <= %v <= %v but %v > %v", x, y, z, x, z)
					}
					if xy == 0 && yz == 0 && xz != 0 {
						t.Fatalf("ties not transitive: %v ~ %v ~ %v", x, y, z)
					}
				}
			}
		}
	})
}

// TestSortWideKeys covers the full barrier's path for keys too wide to
// pack into 64 bits (24 columns of 4-bit ranks plus the row index).
func TestSortWideKeys(t *testing.T) {
	const cols = 24
	ds := rdf.NewDataset()
	ex := func(s string) rdf.Term { return rdf.IRI("http://ex.org/" + s) }
	vals := []rdf.Term{rdf.IntLit(1), rdf.Lit("1.0"), rdf.IntLit(3), rdf.Lit("x"), ex("o"), rdf.Blank("b"), rdf.Lit("10"), rdf.Lit("9")}
	r := rand.New(rand.NewSource(3))
	for s := 0; s < 60; s++ {
		for c := 0; c < cols; c++ {
			ds.Default().MustAdd(rdf.T(ex(fmt.Sprintf("s%d", s)), ex(fmt.Sprintf("p%d", c)), vals[r.Intn(3+c%5)]))
		}
	}
	where, order := "", ""
	for c := 0; c < cols; c++ {
		where += fmt.Sprintf(" ?s ex:p%d ?v%d .", c, c)
		if c%3 == 1 {
			order += fmt.Sprintf(" DESC(?v%d)", c)
		} else {
			order += fmt.Sprintf(" ?v%d", c)
		}
	}
	canon := MustParse(`PREFIX ex: <http://ex.org/> SELECT * WHERE {` + where + ` }`)
	got, err := Eval(ds, canon)
	if err != nil {
		t.Fatal(err)
	}
	want, err := refEval(ds, canon)
	if err != nil {
		t.Fatal(err)
	}
	if d := sequenceDiff(got.Vars, got.Solutions(), want); d != "" {
		t.Fatalf("canonical order: %s", d)
	}
	checkEquivalence(t, ds, MustParse(`PREFIX ex: <http://ex.org/> SELECT * WHERE {`+where+` } ORDER BY`+order), -1)
}
