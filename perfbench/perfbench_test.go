package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"slices"
	"strings"
	"testing"
	"time"

	"mdm/internal/schema"
)

func TestPercentile(t *testing.T) {
	for _, tc := range []struct {
		xs   []float64
		q    float64
		want float64
	}{
		{[]float64{5, 1, 4, 2, 3}, 0.5, 3},
		{[]float64{5, 1, 4, 2, 3}, 0.25, 2},
		{[]float64{5, 1, 4, 2, 3}, 0, 1},
		{[]float64{5, 1, 4, 2, 3}, 1, 5},
		{[]float64{1, 2}, 0.99, 1.99},
		{[]float64{10, 20, 30, 40}, 0.5, 25},
		{[]float64{7}, 0.99, 7},
	} {
		if got := percentile(tc.xs, tc.q); math.Abs(got-tc.want) > 1e-9 {
			t.Errorf("percentile(%v, %v) = %v, want %v", tc.xs, tc.q, got, tc.want)
		}
	}
	if !math.IsNaN(percentile(nil, 0.5)) {
		t.Error("percentile of no samples should be NaN")
	}
	xs := []float64{3, 1, 2}
	percentile(xs, 0.5)
	if !slices.Equal(xs, []float64{3, 1, 2}) {
		t.Error("percentile must not reorder its input")
	}
}

func allPayloads(srcs []*source) map[string]payload {
	out := map[string]payload{}
	for _, s := range srcs {
		for _, r := range s.releases {
			for _, f := range formats {
				out[pathFor(r, f)] = render(r, f)
			}
		}
	}
	return out
}

func TestProviderDeterministic(t *testing.T) {
	a := allPayloads(newWalkChain(7).fx.sources)
	b := allPayloads(newWalkChain(7).fx.sources)
	if len(a) == 0 || len(a) != len(b) {
		t.Fatalf("payload sets differ in size: %d vs %d", len(a), len(b))
	}
	for p, pa := range a {
		if !bytes.Equal(pa.body, b[p].body) || pa.ctype != b[p].ctype {
			t.Fatalf("payload %s differs between two generations of seed 7", p)
		}
	}
	other := allPayloads(newWalkChain(8).fx.sources)
	same := 0
	for p := range a {
		if bytes.Equal(a[p].body, other[p].body) {
			same++
		}
	}
	if same == len(a) {
		t.Fatal("seeds 7 and 8 generated identical payloads")
	}
	ga, gb := newGovHub(7, 40), newGovHub(7, 40)
	if !slices.Equal(ga.plan, gb.plan) {
		t.Fatal("governance release sequence differs for one seed")
	}
}

func TestProviderServesPublishedPayloads(t *testing.T) {
	wc := newWalkChain(3)
	p, err := newProvider(wc.fx.sources)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	r := wc.srcs[1].releases[0]
	get := func(path string) (int, []byte) {
		resp, err := http.Get(p.URL() + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, b
	}
	if code, _ := get(r.path()); code != http.StatusNotFound {
		t.Fatalf("unpublished payload: status %d, want 404", code)
	}
	p.publish(r.path())
	code, body := get(r.path())
	if code != http.StatusOK || !bytes.Equal(body, render(r, r.format).body) {
		t.Fatalf("published payload: status %d, %d bytes", code, len(body))
	}
	get(r.path())
	if n, b := p.pathCounts(r.path()); n != 2 || b != 2*int64(len(body)) {
		t.Fatalf("path counts = %d requests, %d bytes; want 2, %d", n, b, 2*len(body))
	}
	if n, _ := p.counts(); n != 2 {
		t.Fatalf("total requests = %d, want 2 (404s are not counted)", n)
	}
}

// TestFormatsAgree checks that the JSON, XML and CSV renderings of a
// release flatten to the same signature and rows through the server's
// own schema package, and that the signature is the one the checker
// expects the server to log.
func TestFormatsAgree(t *testing.T) {
	for _, s := range newGovHub(5, 30).fx.sources[:3] {
		for _, r := range s.releases {
			var first []schema.Doc
			for _, f := range formats {
				sig, docs, err := schema.ExtractSignature(r.name, schema.Format(f), render(r, f).body)
				if err != nil {
					t.Fatalf("%s %s: %v", r.name, f, err)
				}
				if sig.String() != r.signature() {
					t.Fatalf("%s %s: signature %s, want %s", r.name, f, sig, r.signature())
				}
				if first == nil {
					first = docs
					continue
				}
				for i := range docs {
					for k, v := range docs[i] {
						if v.Text() != first[i][k].Text() || v.T != first[i][k].T {
							t.Fatalf("%s %s: row %d field %s = %v, want %v", r.name, f, i, k, v, first[i][k])
						}
					}
				}
			}
		}
	}
}

func walkAnswerBody(t *testing.T, op *readOp, rows [][]string) []byte {
	t.Helper()
	b, err := json.Marshal(map[string]any{"columns": op.walk.aliases(), "rows": rows})
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func expectedRows(a *answer) [][]string {
	var out [][]string
	for k := range a.set {
		out = append(out, strings.Split(k, "\x1f"))
	}
	return out
}

// TestCheckerCountsWrongAnswer serves a walk's expected answer and
// then corrupted versions of it, and checks that the closed loop counts
// each corrupted answer as a failed request.
func TestCheckerCountsWrongAnswer(t *testing.T) {
	wc := newWalkChain(11)
	ans := wc.answers()
	op := wc.walkOp(newRand(11, "test"), chainShape{1, 2}, "json", ans)
	rows := expectedRows(ans[[3]int{1, 2, maskOf(op)}])
	slices.Reverse(rows) // order must not matter

	var body []byte
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) { w.Write(body) }))
	defer srv.Close()
	c := srv.Client()

	body = walkAnswerBody(t, op, rows)
	if s := runRead(c, srv.URL, op); s.err != nil {
		t.Fatalf("correct answer rejected: %v", s.err)
	}
	wrong := slices.Clone(rows)
	wrong[0] = slices.Clone(wrong[0])
	wrong[0][0] += "x"
	for name, bad := range map[string][][]string{
		"changed cell": wrong,
		"missing row":  rows[1:],
		"extra row":    append(slices.Clone(rows), rows[0]),
	} {
		body = walkAnswerBody(t, op, bad)
		s := runRead(c, srv.URL, op)
		if s.err == nil {
			t.Fatalf("%s: wrong answer accepted", name)
		}
		_, failed := endToEnd(&liveRun{parts: []part{{samples: []sample{s}, elapsed: time.Second}}, setups: []time.Duration{time.Second}})
		if failed != 1 {
			t.Fatalf("%s: counted %d failures, want 1", name, failed)
		}
	}
	body = []byte(`{"error":"boom"}`)
	if s := runRead(c, srv.URL, op); s.err == nil {
		t.Fatal("error body accepted")
	}
}

func maskOf(op *readOp) int {
	m := 0
	for i, s := range op.walk.sel {
		if strings.HasSuffix(s[2], "_name") {
			m |= 1 << i
		}
	}
	return m
}

func TestPageCheck(t *testing.T) {
	a := newAnswer()
	for _, r := range [][]string{{"a"}, {"b"}, {"c"}} {
		a.add(r)
	}
	if err := a.page([][]string{{"c"}, {"a"}}, 2, 0); err != nil {
		t.Fatal(err)
	}
	if err := a.page([][]string{{"c"}}, 2, 2); err != nil {
		t.Fatal(err)
	}
	if a.page([][]string{{"c"}, {"c"}}, 2, 0) == nil {
		t.Fatal("duplicate page rows accepted")
	}
	if a.page([][]string{{"z"}}, 1, 0) == nil {
		t.Fatal("foreign page row accepted")
	}
}

// TestMetricsScrape parses a /metrics exposition and treats a missing
// family as absent rather than zero.
func TestMetricsScrape(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		io.WriteString(w, "# HELP x y\n# TYPE mdm_sparql_plan_cache_total counter\n"+
			"mdm_sparql_plan_cache_total{result=\"hit\"} 3\nmdm_sparql_plan_cache_total{result=\"miss\"} 5\n"+
			"mdm_tdb_compact_duration_seconds_sum 0.25\n")
	}))
	defer srv.Close()
	m, err := scrape(srv.Client(), srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	if v, ok := family(m, "mdm_sparql_plan_cache_total", `result="hit"`); !ok || v != 3 {
		t.Fatalf("hits = %v, %v", v, ok)
	}
	if v, ok := family(m, "mdm_sparql_plan_cache_total", ""); !ok || v != 8 {
		t.Fatalf("lookups = %v, %v", v, ok)
	}
	if _, ok := family(m, "mdm_federate_retries_total", ""); ok {
		t.Fatal("missing family reported present")
	}
}

func TestSelfTime(t *testing.T) {
	t0 := time.Unix(0, 0)
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	spans := []span{
		{Name: "scatter", Start: at(0), End: at(100), Parent: -1},
		{Name: "fetch", Start: at(10), End: at(40), Parent: 0},
		{Name: "fetch", Start: at(30), End: at(60), Parent: 0},
		{Name: "fetch", Start: at(80), End: at(90), Parent: 0},
	}
	agg := aggregate(spans)
	if got := agg["scatter"].self; got != 40*time.Millisecond {
		t.Fatalf("scatter self = %v, want 40ms (overlapping children count once)", got)
	}
	if agg["fetch"].n != 3 || agg["fetch"].dur != 70*time.Millisecond {
		t.Fatalf("fetch stats = %+v", *agg["fetch"])
	}
}

// TestBenchmarkJSON checks BENCHMARK.json against the definitions here:
// every workload's why records its client count, the seed argument and
// every mdmd flag passed, and the per-layer metrics match layerDefs.
func TestBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("no BENCHMARK.json next to the benchmark directory")
	}
	var bj struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct{ Name string }               `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &bj); err != nil {
		t.Fatal(err)
	}
	if len(bj.Workloads) != len(configs) {
		t.Fatalf("%d workloads, want %d", len(bj.Workloads), len(configs))
	}
	for _, w := range bj.Workloads {
		cfg, ok := configs[w.Name]
		if !ok {
			t.Fatalf("unknown workload %s", w.Name)
		}
		if !strings.Contains(w.Why, strings.Join(cfg.flags(), " ")) {
			t.Errorf("%s: why does not record the mdmd flags %v", w.Name, cfg.flags())
		}
		clients := fmt.Sprintf("%d clients", cfg.clients)
		if cfg.clients == 1 {
			clients = "1 client,"
		}
		if !strings.Contains(w.Why, "--seed") || !strings.Contains(w.Why, clients) {
			t.Errorf("%s: why does not record the clients and the seed argument", w.Name)
		}
	}
	var e2e []string
	for _, m := range bj.EndToEnd {
		e2e = append(e2e, m.Name)
	}
	if !slices.Equal(e2e, gatedEndToEnd) {
		t.Errorf("end_to_end = %v, want %v", e2e, gatedEndToEnd)
	}
	if len(bj.PerLayer) != len(layerDefs) {
		t.Fatalf("%d per-layer metrics, want %d", len(bj.PerLayer), len(layerDefs))
	}
	for i, m := range bj.PerLayer {
		d := layerDefs[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
			t.Errorf("per_layer[%d] = %+v, want %s %s %s", i, m, d.name, d.unit, d.better)
		}
	}
}
