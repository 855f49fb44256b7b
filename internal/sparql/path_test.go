package sparql

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"mdm/internal/rdf"
)

func pathEx(s string) rdf.Term { return rdf.IRI("http://ex.org/" + s) }

// edgeGraph builds a dataset whose default graph has one p-edge per
// pair.
func edgeGraph(edges [][2]string) *rdf.Dataset {
	ds := rdf.NewDataset()
	for _, e := range edges {
		ds.Default().MustAdd(rdf.T(pathEx(e[0]), pathEx("p"), pathEx(e[1])))
	}
	return ds
}

// TestPathCycleSafety pins termination and oracle agreement for
// closures over graphs where naive expansion would loop forever:
// self-loops, 2-cycles, and cycles entangled with side branches. Each
// query also runs through both forced join strategies and the
// cursor API via checkEquivalence.
func TestPathCycleSafety(t *testing.T) {
	graphs := map[string][][2]string{
		"self-loop":       {{"a", "a"}},
		"two-cycle":       {{"a", "b"}, {"b", "a"}},
		"cycle with tail": {{"a", "b"}, {"b", "c"}, {"c", "a"}, {"c", "d"}},
		"diamond cycle":   {{"a", "b"}, {"a", "c"}, {"b", "d"}, {"c", "d"}, {"d", "a"}},
	}
	queries := []string{
		`PREFIX ex: <http://ex.org/> SELECT ?x WHERE { ex:a ex:p+ ?x }`,
		`PREFIX ex: <http://ex.org/> SELECT ?x WHERE { ex:a ex:p* ?x }`,
		`PREFIX ex: <http://ex.org/> SELECT ?x WHERE { ?x ex:p+ ex:a }`,
		`PREFIX ex: <http://ex.org/> SELECT ?x ?y WHERE { ?x ex:p+ ?y }`,
		`PREFIX ex: <http://ex.org/> SELECT ?x WHERE { ?x ex:p* ?x }`,
		`PREFIX ex: <http://ex.org/> SELECT ?x WHERE { ex:a (^ex:p)+ ?x }`,
		`PREFIX ex: <http://ex.org/> SELECT ?x WHERE { ex:a (ex:p/ex:p)+ ?x }`,
	}
	for name, edges := range graphs {
		t.Run(name, func(t *testing.T) {
			ds := edgeGraph(edges)
			for _, src := range queries {
				checkEquivalence(t, ds, MustParse(src), -1)
			}
		})
	}
}

// TestPathZeroLength pins the SPARQL zero-length-path corner cases: *
// and ? match every subject/object node to itself, and a constant
// endpoint matches itself even when the graph never mentions it.
func TestPathZeroLength(t *testing.T) {
	ds := edgeGraph([][2]string{{"a", "b"}})

	res, err := Run(ds, `PREFIX ex: <http://ex.org/> SELECT ?x WHERE { ex:ghost ex:p* ?x }`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 1 {
		t.Fatalf("ghost p* rows = %d, want 1\n%s", res.Len(), res.Table())
	}
	if x, _ := res.Term(0, "x"); x != pathEx("ghost") {
		t.Fatalf("ghost p* binds %v, want itself", x)
	}

	// Both ends free: each of the graph's nodes (a and b) reaches
	// itself, plus a reaches b in one step.
	res, err = Run(ds, `PREFIX ex: <http://ex.org/> SELECT ?x ?y WHERE { ?x ex:p* ?y }`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 3 {
		t.Fatalf("free p* rows = %d, want 3\n%s", res.Len(), res.Table())
	}

	// ASK with a constant zero-length match.
	res, err = Run(ds, `PREFIX ex: <http://ex.org/> ASK { ex:ghost ex:p? ex:ghost }`)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Bool {
		t.Fatal("ghost p? ghost = false, want true")
	}

	// p+ has no zero-length component: an unconnected constant yields
	// nothing.
	res, err = Run(ds, `PREFIX ex: <http://ex.org/> SELECT ?x WHERE { ex:ghost ex:p+ ?x }`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 0 {
		t.Fatalf("ghost p+ rows = %d, want 0", res.Len())
	}

	// Oracle agreement for the same shapes.
	for _, src := range []string{
		`PREFIX ex: <http://ex.org/> SELECT ?x WHERE { ex:ghost ex:p* ?x }`,
		`PREFIX ex: <http://ex.org/> SELECT ?x ?y WHERE { ?x ex:p? ?y }`,
		`PREFIX ex: <http://ex.org/> SELECT ?x ?y WHERE { ?x ex:p* ?y }`,
	} {
		checkEquivalence(t, ds, MustParse(src), -1)
	}
}

// cycleDataset builds a single directed n-node cycle v0 -> v1 -> ... ->
// v(n-1) -> v0.
func cycleDataset(n int) *rdf.Dataset {
	ds := rdf.NewDataset()
	p := pathEx("p")
	for i := 0; i < n; i++ {
		ds.Default().MustAdd(rdf.T(
			rdf.IRI(fmt.Sprintf("http://ex.org/v%d", i)), p,
			rdf.IRI(fmt.Sprintf("http://ex.org/v%d", (i+1)%n))))
	}
	return ds
}

// TestPathClosureLinearWork pins the semi-naive fixpoint's complexity:
// over a 10k-node cycle, v0 p+ ?x must reach all 10k nodes while
// expanding each node once — O(edges), not O(nodes * edges). The
// expansion counter gets a 2.5x allowance for the extra seed expansion
// and future bookkeeping, which is still orders of magnitude below the
// ~10^8 of a quadratic walk.
func TestPathClosureLinearWork(t *testing.T) {
	const n = 10_000
	ds := cycleDataset(n)
	q := MustParse(`PREFIX ex: <http://ex.org/> SELECT ?x WHERE { ex:v0 ex:p+ ?x }`)

	before := pathExpansions.Load()
	res, err := Eval(ds, q)
	if err != nil {
		t.Fatal(err)
	}
	expanded := pathExpansions.Load() - before

	if res.Len() != n {
		t.Fatalf("rows = %d, want %d", res.Len(), n)
	}
	if max := int64(5 * n / 2); expanded > max {
		t.Fatalf("fixpoint expanded %d nodes for %d edges; O(edges) bound is %d", expanded, n, max)
	}
}

// TestPathCancelMidClosure cancels deterministically inside the
// fixpoint loop: the 10k-node closure polls the context every 1024
// expansions, so a countdown of 3 expires while the frontier is still
// being drained, long before the first row reaches the caller.
func TestPathCancelMidClosure(t *testing.T) {
	ds := cycleDataset(10_000)
	q := MustParse(`PREFIX ex: <http://ex.org/> SELECT ?x WHERE { ex:v0 ex:p+ ?x }`)

	ctx := &countdownCtx{Context: context.Background()}
	ctx.n.Store(3)
	cur, err := EvalCursor(ds, q)
	if err != nil {
		t.Fatal(err)
	}
	rows := 0
	for cur.Next(ctx) {
		rows++
	}
	if rows != 0 {
		t.Fatalf("Next yielded %d rows under a canceled context", rows)
	}
	if !errors.Is(cur.Err(), context.Canceled) {
		t.Fatalf("Err() = %v, want context.Canceled", cur.Err())
	}
	if cur.Next(context.Background()) {
		t.Fatal("Next succeeded after cancellation")
	}
}

// TestPathPagingPrefix pins LIMIT/OFFSET pages of a path query against
// slices of the full canonical drain.
func TestPathPagingPrefix(t *testing.T) {
	ds := cycleDataset(100)
	full, err := Run(ds, `PREFIX ex: <http://ex.org/> SELECT ?x WHERE { ex:v0 ex:p+ ?x }`)
	if err != nil {
		t.Fatal(err)
	}
	if full.Len() != 100 {
		t.Fatalf("full drain rows = %d, want 100", full.Len())
	}
	for _, page := range []struct{ off, lim int }{{0, 10}, {25, 25}, {90, 20}, {100, 5}} {
		q := MustParse(fmt.Sprintf(
			`PREFIX ex: <http://ex.org/> SELECT ?x WHERE { ex:v0 ex:p+ ?x } LIMIT %d OFFSET %d`, page.lim, page.off))
		res, err := Eval(ds, q)
		if err != nil {
			t.Fatal(err)
		}
		want := full.Len() - page.off
		if want < 0 {
			want = 0
		}
		if want > page.lim {
			want = page.lim
		}
		if res.Len() != want {
			t.Fatalf("OFFSET %d LIMIT %d rows = %d, want %d", page.off, page.lim, res.Len(), want)
		}
		for i := 0; i < res.Len(); i++ {
			got, _ := res.Term(i, "x")
			exp, _ := full.Term(page.off+i, "x")
			if got != exp {
				t.Fatalf("page row %d = %v, full row %d = %v", i, got, page.off+i, exp)
			}
		}
	}
}

// BenchmarkPathClosure measures the fixpoint on the two extreme graph
// shapes: a deep chain (frontier of one, maximal depth) and a wide
// fan-out (one expansion, maximal frontier).
func BenchmarkPathClosure(b *testing.B) {
	const n = 10_000
	bench := func(b *testing.B, ds *rdf.Dataset, src string, rows int) {
		q := MustParse(src)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			res, err := Eval(ds, q)
			if err != nil {
				b.Fatal(err)
			}
			if res.Len() != rows {
				b.Fatalf("rows = %d, want %d", res.Len(), rows)
			}
		}
	}
	b.Run("deep-chain", func(b *testing.B) {
		// A cycle is a chain whose last edge closes it: depth n.
		bench(b, cycleDataset(n),
			`PREFIX ex: <http://ex.org/> SELECT ?x WHERE { ex:v0 ex:p+ ?x }`, n)
	})
	b.Run("wide-fanout", func(b *testing.B) {
		ds := rdf.NewDataset()
		for i := 0; i < n; i++ {
			ds.Default().MustAdd(rdf.T(pathEx("root"), pathEx("p"),
				rdf.IRI(fmt.Sprintf("http://ex.org/leaf%d", i))))
		}
		bench(b, ds,
			`PREFIX ex: <http://ex.org/> SELECT ?x WHERE { ex:root ex:p+ ?x }`, n)
	})
}
