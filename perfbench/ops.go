package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/url"
	"slices"
	"sort"
	"strings"
)

// Request classes. Latencies are reported per class.
const (
	classWalk   = "walk"
	classSPARQL = "sparql"
	classGovern = "govern"
)

// govKind is one steward step of the REST API.
type govKind int

const (
	opPrefix govKind = iota
	opConcept
	opFeature
	opAttach
	opIdentifier
	opRelate
	opSource
	opWrapper
	opSuggest
	opMapping
	opDrift
)

var govLabels = map[govKind]string{
	opPrefix: "prefix", opConcept: "concept", opFeature: "feature", opAttach: "attach",
	opIdentifier: "identifier", opRelate: "relate", opSource: "source", opWrapper: "register",
	opSuggest: "suggest", opMapping: "mapping", opDrift: "drift",
}

// govOp is one steward step: a global-graph edit, a source declaration,
// a release registration, a mapping suggestion or definition, or a
// drift probe. The same step renders as a REST request for the live
// run and applies through the facade in the traced replay.
type govOp struct {
	kind    govKind
	a, b, c string
	rel     *release
	prev    *release // opSuggest: the superseded release
	seq     int      // opWrapper: expected release-log position
	fx      *fixture // opMapping: the fixture whose global graph it maps to
	// done runs after the step succeeded (the steward's progress counters).
	done func()
}

// request renders the step as an HTTP request against provider base
// URL purl (used for wrapper URLs).
func (o *govOp) request(purl string) (method, path string, body []byte) {
	post := func(p string, v any) (string, string, []byte) {
		b, _ := json.Marshal(v)
		return http.MethodPost, p, b
	}
	switch o.kind {
	case opPrefix:
		return post("/api/prefixes", map[string]string{"prefix": o.a, "namespace": o.b})
	case opConcept:
		return post("/api/global/concepts", map[string]string{"iri": o.a, "label": o.b})
	case opFeature:
		return post("/api/global/features", map[string]string{"iri": o.a, "label": o.b})
	case opAttach:
		return post("/api/global/attach", map[string]string{"concept": o.a, "feature": o.b})
	case opIdentifier:
		return post("/api/global/identifiers", map[string]string{"feature": o.a})
	case opRelate:
		return post("/api/global/relations", map[string]string{"from": o.a, "property": o.b, "to": o.c})
	case opSource:
		return post("/api/sources", map[string]string{"id": o.a, "label": o.b})
	case opWrapper:
		return post("/api/wrappers", map[string]string{"name": o.rel.name, "source": o.rel.src.id, "url": purl + o.rel.path()})
	case opSuggest:
		return http.MethodGet, "/api/mappings/" + url.PathEscape(o.rel.name) + "/suggest?from=" + url.QueryEscape(o.prev.name), nil
	case opMapping:
		return post("/api/mappings", map[string]any{"wrapper": o.rel.name,
			"subgraph": o.fx.mappingSubgraph(o.rel), "sameAs": o.rel.sameAs()})
	default:
		return http.MethodGet, "/api/drift/" + url.PathEscape(o.rel.name), nil
	}
}

func (o *govOp) wantStatus() int {
	switch o.kind {
	case opSuggest, opDrift:
		return http.StatusOK
	}
	return http.StatusCreated
}

// releaseReply is the part of POST /api/wrappers' answer the checker
// compares.
type releaseReply struct {
	Seq        int      `json:"seq"`
	Kind       string   `json:"kind"`
	Wrapper    string   `json:"wrapper"`
	Signature  string   `json:"signature"`
	Supersedes string   `json:"supersedes"`
	Breaking   bool     `json:"breaking"`
	Changes    []string `json:"changes"`
}

// expectRelease is the release record the server must log for r.
func (o *govOp) expectRelease() releaseReply {
	r := o.rel
	want := releaseReply{Seq: o.seq, Kind: "new-source", Wrapper: r.name, Signature: r.signature(), Changes: r.changes}
	if r.version > 1 {
		want.Kind = "new-version"
		want.Supersedes = r.src.releases[r.version-2].name
		want.Breaking = strings.HasPrefix(strings.Join(r.changes, ""), "renamed")
	}
	return want
}

// expectSuggest is the attribute -> feature map the server must
// suggest for o.rel: the superseded release's links, carried over to
// the renamed attributes.
func (o *govOp) expectSuggest() map[string]string {
	out := map[string]string{}
	for _, f := range o.prev.mapped {
		out[o.rel.attrs[f]] = o.rel.src.fields[f].feature
	}
	return out
}

// check verifies the server's answer to the step.
func (o *govOp) check(status int, body []byte) error {
	if status != o.wantStatus() {
		return fmt.Errorf("status %d: %s", status, truncate(body))
	}
	switch o.kind {
	case opWrapper:
		var got releaseReply
		if err := json.Unmarshal(body, &got); err != nil {
			return err
		}
		return o.compareRelease(got)
	case opSuggest:
		var got struct {
			Mapping struct {
				SameAs map[string]string `json:"sameAs"`
			} `json:"mapping"`
			Changes []string `json:"changes"`
		}
		if err := json.Unmarshal(body, &got); err != nil {
			return err
		}
		return o.compareSuggest(got.Mapping.SameAs, got.Changes, expandCURIE)
	case opDrift:
		var got struct {
			Drift    []string `json:"drift"`
			Breaking bool     `json:"breaking"`
		}
		if err := json.Unmarshal(body, &got); err != nil {
			return err
		}
		if len(got.Drift) > 0 || got.Breaking {
			return fmt.Errorf("unexpected drift on %s: %v", o.rel.name, got.Drift)
		}
	}
	return nil
}

func (o *govOp) compareRelease(got releaseReply) error {
	want := o.expectRelease()
	if got.Seq != want.Seq || got.Kind != want.Kind || got.Wrapper != want.Wrapper ||
		got.Signature != want.Signature || got.Supersedes != want.Supersedes ||
		got.Breaking != want.Breaking || !slices.Equal(got.Changes, want.Changes) {
		return fmt.Errorf("release of %s: got %+v, want %+v", o.rel.name, got, want)
	}
	return nil
}

func (o *govOp) compareSuggest(sameAs map[string]string, changes []string, expand func(string) string) error {
	want := o.expectSuggest()
	if len(sameAs) != len(want) {
		return fmt.Errorf("suggest %s: %d links, want %d", o.rel.name, len(sameAs), len(want))
	}
	for a, f := range sameAs {
		if want[a] != expand(f) {
			return fmt.Errorf("suggest %s: %s -> %s, want %s", o.rel.name, a, f, want[a])
		}
	}
	if !slices.Equal(changes, o.rel.changes) {
		return fmt.Errorf("suggest %s: changes %v, want %v", o.rel.name, changes, o.rel.changes)
	}
	return nil
}

// expandCURIE resolves the compact IRIs the server writes with the
// prefixes a fixture binds (ex) or the server binds itself (G, S).
func expandCURIE(s string) string {
	for p, ns := range map[string]string{"ex:": nsEx, "G:": nsGlobal, "S:": nsSource} {
		if strings.HasPrefix(s, p) {
			return ns + s[len(p):]
		}
	}
	return s
}

// --- reads ---------------------------------------------------------------

// walkSpec is a walk: projected (concept, feature, alias) triples and
// the relation edges between the concepts.
type walkSpec struct {
	sel  [][3]string
	rels [][3]string
}

func (w *walkSpec) aliases() []string {
	out := make([]string, len(w.sel))
	for i, s := range w.sel {
		out[i] = s[2]
	}
	return out
}

// concepts lists the walk's concepts in order of first selection.
func (w *walkSpec) concepts() []string {
	var out []string
	for _, s := range w.sel {
		if !slices.Contains(out, s[0]) {
			out = append(out, s[0])
		}
	}
	return out
}

func (w *walkSpec) body() []byte {
	type sel struct {
		Concept string `json:"concept"`
		Feature string `json:"feature"`
		Alias   string `json:"alias"`
	}
	req := struct {
		Select    []sel       `json:"select"`
		Relations [][3]string `json:"relations,omitempty"`
	}{Relations: w.rels}
	for _, s := range w.sel {
		req.Select = append(req.Select, sel{s[0], s[1], s[2]})
	}
	b, _ := json.Marshal(req)
	return b
}

// omq renders the walk as an ontology-mediated SPARQL query, the form
// /api/query/sparql accepts; variables carry the aliases so both forms
// answer with the same columns.
func (w *walkSpec) omq() string {
	cs := w.concepts()
	var sb strings.Builder
	sb.WriteString("SELECT")
	for _, s := range w.sel {
		sb.WriteString(" ?" + s[2])
	}
	sb.WriteString(" WHERE {\n")
	for i, c := range cs {
		fmt.Fprintf(&sb, "  ?x%d <%s> <%s> .\n", i, rdfType, c)
	}
	for _, s := range w.sel {
		fmt.Fprintf(&sb, "  ?x%d <%s> ?%s .\n", slices.Index(cs, s[0]), s[1], s[2])
	}
	for _, r := range w.rels {
		fmt.Fprintf(&sb, "  ?x%d <%s> ?x%d .\n", slices.Index(cs, r[0]), r[1], slices.Index(cs, r[2]))
	}
	sb.WriteString("}")
	return sb.String()
}

// readOp is one analyst request: a walk (JSON, paged, or SPARQL OMQ)
// or a metadata SPARQL query, with the check of its answer.
type readOp struct {
	class  string
	label  string // template name, for diagnostics
	walk   *walkSpec
	omq    bool   // send the walk as SPARQL to /api/query/sparql
	query  string // metadata SPARQL text
	limit  int    // page size, -1 = none
	offset int    // page offset, -1 = none
	ndjson bool
	// countOnly says the check needs only the number of rows.
	countOnly bool
	// check verifies the answer's columns and rows.
	check func(cols []string, rows [][]string) error
}

// template names the request's shape without its constants.
func (r *readOp) template() string {
	if i := strings.IndexByte(r.label, ' '); i >= 0 && r.walk == nil {
		return r.label[:i]
	}
	return r.label
}

func (r *readOp) request() (method, path string, body []byte) {
	q := url.Values{}
	if r.limit >= 0 {
		q.Set("limit", fmt.Sprint(r.limit))
	}
	if r.offset >= 0 {
		q.Set("offset", fmt.Sprint(r.offset))
	}
	if r.ndjson {
		q.Set("format", "ndjson")
	}
	path = "/api/sparql"
	switch {
	case r.walk != nil && r.omq:
		path = "/api/query/sparql"
		body, _ = json.Marshal(map[string]string{"query": r.walk.omq()})
	case r.walk != nil:
		path = "/api/query"
		body = r.walk.body()
	default:
		body, _ = json.Marshal(map[string]string{"query": r.query})
	}
	if len(q) > 0 {
		path += "?" + q.Encode()
	}
	return http.MethodPost, path, body
}

// verify decodes a response body and runs the answer check.
func (r *readOp) verify(status int, body []byte) error {
	if status != http.StatusOK {
		return fmt.Errorf("%s: status %d: %s", r.label, status, truncate(body))
	}
	cols, rows, err := decodeRows(body, r.ndjson, !r.countOnly)
	if err != nil {
		return fmt.Errorf("%s: %w", r.label, err)
	}
	if err := r.check(cols, rows); err != nil {
		return fmt.Errorf("%s: %w", r.label, err)
	}
	return nil
}

// decodeRows reads a query answer: a JSON document with columns (walks)
// or vars (SPARQL) and rows, or NDJSON with a header line and one array
// per row. A trailing error line fails the answer. Without cells only
// the rows' count is needed: rows are still parsed as JSON but their
// cells are not materialised, which keeps the checker's CPU off the
// server's cores.
func decodeRows(body []byte, ndjson, cells bool) ([]string, [][]string, error) {
	type head struct {
		Columns []string          `json:"columns"`
		Vars    []string          `json:"vars"`
		Rows    []json.RawMessage `json:"rows"`
		Error   string            `json:"error"`
	}
	var cols []string
	var raw [][]byte
	if !ndjson {
		var h head
		if err := json.Unmarshal(body, &h); err != nil {
			return nil, nil, err
		}
		cols = append(h.Columns, h.Vars...)
		for _, r := range h.Rows {
			raw = append(raw, r)
		}
	} else {
		lines := bytes.Split(bytes.TrimSuffix(body, []byte("\n")), []byte("\n"))
		var h head
		if err := json.Unmarshal(lines[0], &h); err != nil {
			return nil, nil, err
		}
		cols = append(h.Columns, h.Vars...)
		for _, line := range lines[1:] {
			if len(line) == 0 || line[0] != '[' || !json.Valid(line) {
				_ = json.Unmarshal(line, &h)
				return nil, nil, fmt.Errorf("stream error: %s", h.Error)
			}
			raw = append(raw, line)
		}
	}
	rows := make([][]string, len(raw))
	if cells {
		for i, r := range raw {
			if err := json.Unmarshal(r, &rows[i]); err != nil {
				return nil, nil, err
			}
		}
	}
	return cols, rows, nil
}

func truncate(b []byte) string {
	if len(b) > 200 {
		return string(b[:200]) + "..."
	}
	return string(b)
}

// --- expected answers ----------------------------------------------------

// answer is an expected walk answer: a set of distinct rows. Its
// digest is order-independent, so it can be compared with rows in any
// order.
type answer struct {
	set    map[string]struct{}
	digest uint64
}

func newAnswer() *answer { return &answer{set: map[string]struct{}{}} }

func rowKey(row []string) string { return strings.Join(row, "\x1f") }

func (a *answer) add(row []string) {
	k := rowKey(row)
	if _, dup := a.set[k]; dup {
		return
	}
	a.set[k] = struct{}{}
	a.digest += strHash(k)
}

func (a *answer) len() int { return len(a.set) }

// reorder maps the answer's columns onto the expected column order.
func reorder(cols, want []string, rows [][]string) ([][]string, error) {
	idx := make([]int, len(want))
	for i, w := range want {
		idx[i] = slices.Index(cols, w)
		if idx[i] < 0 {
			return nil, fmt.Errorf("column %s missing from %v", w, cols)
		}
	}
	out := make([][]string, len(rows))
	for i, row := range rows {
		if len(row) != len(cols) {
			return nil, fmt.Errorf("row %d has %d cells, want %d", i, len(row), len(cols))
		}
		r := make([]string, len(want))
		for j, k := range idx {
			r[j] = row[k]
		}
		out[i] = r
	}
	return out, nil
}

// matches reports whether rows are exactly the answer: same size,
// same order-independent digest, no duplicates.
func (a *answer) matches(rows [][]string) error {
	if len(rows) != a.len() {
		return fmt.Errorf("%d rows, want %d", len(rows), a.len())
	}
	var d uint64
	for _, r := range rows {
		d += strHash(rowKey(r))
	}
	if d != a.digest {
		return errors.New("rows differ from the expected answer")
	}
	return nil
}

// page checks a page of limit rows from offset: the right size, no
// duplicates, every row part of the answer.
func (a *answer) page(rows [][]string, limit, offset int) error {
	want := max(0, min(limit, a.len()-max(offset, 0)))
	if len(rows) != want {
		return fmt.Errorf("page of %d rows, want %d", len(rows), want)
	}
	seen := map[string]bool{}
	for _, r := range rows {
		k := rowKey(r)
		if _, ok := a.set[k]; !ok || seen[k] {
			return fmt.Errorf("page row %v is not part of the answer", r)
		}
		seen[k] = true
	}
	return nil
}

// checkWalk returns the check of a walk whose valid answers are alts
// (one per state the server may have been in while it ran).
func checkWalk(aliases []string, limit, offset int, alts ...*answer) func([]string, [][]string) error {
	return func(cols []string, rows [][]string) error {
		rows, err := reorder(cols, aliases, rows)
		if err != nil {
			return err
		}
		var last error
		for _, a := range alts {
			if limit >= 0 {
				last = a.page(rows, limit, offset)
			} else {
				last = a.matches(rows)
			}
			if last == nil {
				return nil
			}
		}
		return last
	}
}

// checkCount returns the check of a metadata query whose row count
// must be one of counts.
func checkCount(counts ...int) func([]string, [][]string) error {
	return func(_ []string, rows [][]string) error {
		if slices.Contains(counts, len(rows)) {
			return nil
		}
		return fmt.Errorf("%d rows, want one of %v", len(rows), counts)
	}
}

// checkColumn returns the check of a metadata query with n rows whose
// column col holds exactly the values want (in any order).
func checkColumn(n int, col string, want []string) func([]string, [][]string) error {
	return func(cols []string, rows [][]string) error {
		if len(rows) != n {
			return fmt.Errorf("%d rows, want %d", len(rows), n)
		}
		i := slices.Index(cols, col)
		if i < 0 {
			return fmt.Errorf("column %s missing from %v", col, cols)
		}
		got := make([]string, len(rows))
		for k, r := range rows {
			got[k] = r[i]
		}
		sort.Strings(got)
		w := slices.Clone(want)
		sort.Strings(w)
		if !slices.Equal(got, w) {
			return fmt.Errorf("column %s differs from the expected values", col)
		}
		return nil
	}
}

// checkSorted returns the check of an ORDER BY col LIMIT n query.
func checkSorted(n int, col string) func([]string, [][]string) error {
	return func(cols []string, rows [][]string) error {
		if len(rows) != n {
			return fmt.Errorf("%d rows, want %d", len(rows), n)
		}
		i := slices.Index(cols, col)
		if i < 0 {
			return fmt.Errorf("column %s missing from %v", col, cols)
		}
		for k := 1; k < len(rows); k++ {
			if rows[k-1][i] > rows[k][i] {
				return fmt.Errorf("rows not ordered by %s", col)
			}
		}
		return nil
	}
}
