package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"mdm"
	"mdm/internal/federate"
	"mdm/internal/obs"
	"mdm/internal/relalg"
	"mdm/internal/rest"
	"mdm/internal/schema"
	"mdm/internal/sparql"
	"mdm/internal/tdb"
	"mdm/internal/wrapper"
)

// span is one timed call into a layer, recorded by the benchmark around
// the layer's public function.
type span struct {
	Name   string    `json:"name"`
	Start  time.Time `json:"start"`
	End    time.Time `json:"end"`
	Parent int       `json:"parent"` // index of the causing span, -1 for a root
	Req    int       `json:"req"`    // request the span belongs to
	Rows   int64     `json:"rows,omitempty"`
	Bytes  int64     `json:"bytes,omitempty"` // file bytes written during the span
}

func (s span) dur() time.Duration { return s.End.Sub(s.Start) }

// tracer keeps spans in memory; they are written out when the replay
// ends. While off, begin returns -1 and nothing is recorded.
type tracer struct {
	mu    sync.Mutex
	spans []span
	on    atomic.Bool
}

func (t *tracer) begin(name string, parent, req int) int {
	if !t.on.Load() {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Start: time.Now(), Parent: parent, Req: req})
	return len(t.spans) - 1
}

func (t *tracer) end(id int) {
	if id < 0 {
		return
	}
	now := time.Now()
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

func (t *tracer) annotate(id int, rows, bytes int64) {
	if id < 0 {
		return
	}
	t.mu.Lock()
	t.spans[id].Rows += rows
	t.spans[id].Bytes += bytes
	t.mu.Unlock()
}

// selfTime is a span's duration minus the part of it covered by its
// children (their union, since wrapper fetches overlap).
func selfTime(all []span, id int, children map[int][]int) time.Duration {
	s := all[id]
	type iv struct{ a, b time.Time }
	var ivs []iv
	for _, c := range children[id] {
		ivs = append(ivs, iv{all[c].Start, all[c].End})
	}
	slices.SortFunc(ivs, func(x, y iv) int { return x.a.Compare(y.a) })
	covered := time.Duration(0)
	var cur iv
	for i, v := range ivs {
		switch {
		case i == 0:
			cur = v
		case !v.a.After(cur.b):
			if v.b.After(cur.b) {
				cur.b = v.b
			}
		default:
			covered += cur.b.Sub(cur.a)
			cur = v
		}
	}
	if len(ivs) > 0 {
		covered += cur.b.Sub(cur.a)
	}
	return s.dur() - covered
}

type spanKey struct{}

type spanRef struct{ id, req int }

func withSpan(ctx context.Context, id, req int) context.Context {
	return context.WithValue(ctx, spanKey{}, spanRef{id, req})
}

func spanFrom(ctx context.Context) spanRef {
	if r, ok := ctx.Value(spanKey{}).(spanRef); ok {
		return r
	}
	return spanRef{-1, -1}
}

// timedWrapper decorates a registered wrapper with a span around each
// fetch, recording the rows it returned.
type timedWrapper struct {
	*wrapper.HTTP
	tr *tracer
}

func (w *timedWrapper) Fetch(ctx context.Context) (*relalg.Relation, error) {
	ref := spanFrom(ctx)
	id := w.tr.begin("wrapper.fetch", ref.id, ref.req)
	rel, err := w.HTTP.Fetch(ctx)
	w.tr.end(id)
	if rel != nil {
		w.tr.annotate(id, int64(len(rel.Rows)), 0)
	}
	return rel, err
}

// wchar reads the bytes this process has written so far
// (/proc/self/io), so spans can report the file writes a call caused.
func wchar() int64 {
	b, err := os.ReadFile("/proc/self/io")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "wchar: "); ok {
			n, _ := strconv.ParseInt(v, 10, 64)
			return n
		}
	}
	return 0
}

// replayer replays a workload's generated requests in-process against an
// mdm.System opened with the workload's store options, calling each
// layer's public functions itself so it can time them.
type replayer struct {
	sys  *mdm.System
	api  *rest.Server
	prov *provider
	tr   tracer
	req  int

	// Per-request totals of the three read passes.
	reads, walks, sparqls int
	plainWall, tracedWall time.Duration
	restWall              time.Duration
	restBytes             int64
	cqs                   int
	rowsOut, walkRowsOut  int64
	fetches, fetchBytes   int64
	explains              int
	opRowsIn, opScanRows  int64
	opRowsOut             int64
	sortTime, scanTime    time.Duration
	failures              []error
}

func openReplay(dir string, cfg config, prov *provider) (*replayer, error) {
	sys, err := mdm.OpenWith(dir, cfg.storeOptions())
	if err != nil {
		return nil, err
	}
	fed := sys.Federation()
	fed.Parallel = federate.DefaultParallel
	fed.SourceTimeout = federate.DefaultSourceTimeout
	// Dedup-only source cache: every pass fetches, so passes compare
	// like with like; cache reuse is measured on the live run.
	fed.Cache = federate.NewCache(0)
	fed.Retry.Max = federate.DefaultRetries
	fed.Breakers = federate.NewBreakerSet(federate.DefaultBreakerThreshold, federate.DefaultBreakerCooldown)
	api := rest.NewServer(sys)
	api.SlowLog = obs.NewSlowLogWriter(io.Discard, 250*time.Millisecond)
	return &replayer{sys: sys, api: api, prov: prov}, nil
}

func (rp *replayer) newReq() int { rp.req++; return rp.req }

// gov applies one steward step through the facade, with spans around
// the layer calls, and checks the outcome as the live run does.
func (rp *replayer) gov(op *govOp) error {
	ctx := context.Background()
	req := rp.newReq()
	tr := &rp.tr
	root := tr.begin("govern", -1, req)
	defer tr.end(root)
	timed := func(name string, f func() error) error {
		id := tr.begin(name, root, req)
		w0 := wchar()
		err := f()
		tr.end(id)
		tr.annotate(id, 0, wchar()-w0)
		return err
	}
	sys := rp.sys
	var err error
	switch op.kind {
	case opPrefix:
		err = timed("bdi.edit", func() error { sys.BindPrefix(op.a, op.b); return nil })
	case opConcept:
		err = timed("bdi.edit", func() error { return sys.AddConcept(op.a, op.b) })
	case opFeature:
		err = timed("bdi.edit", func() error { return sys.AddFeature(op.a, op.b) })
	case opAttach:
		err = timed("bdi.edit", func() error { return sys.AttachFeature(op.a, op.b) })
	case opIdentifier:
		err = timed("bdi.edit", func() error { return sys.MarkIdentifier(op.a) })
	case opRelate:
		err = timed("bdi.edit", func() error { return sys.RelateConcepts(op.a, op.b, op.c) })
	case opSource:
		err = timed("bdi.edit", func() error { return sys.AddSource(op.a, op.b) })
	case opWrapper:
		err = rp.register(op, timed)
	case opSuggest:
		var m mdm.Mapping
		var changes []mdm.Change
		err = timed("release.suggest", func() (e error) {
			m, changes, e = sys.SuggestMapping(op.prev.name, op.rel.name)
			return e
		})
		if err == nil {
			sameAs := map[string]string{}
			for a, f := range m.SameAs {
				sameAs[a] = f.Value
			}
			err = op.compareSuggest(sameAs, changeStrings(changes), func(s string) string { return s })
		}
	case opMapping:
		m := mdm.Mapping{Wrapper: op.rel.name, SameAs: map[string]mdm.Term{}}
		for _, t := range op.fx.mappingSubgraph(op.rel) {
			m.Subgraph = append(m.Subgraph, mdm.T(sys.IRI(t[0]), sys.IRI(t[1]), sys.IRI(t[2])))
		}
		for a, f := range op.rel.sameAs() {
			m.SameAs[a] = sys.IRI(f)
		}
		err = timed("bdi.define_mapping", func() error { return sys.DefineMapping(m) })
	case opDrift:
		var changes []mdm.Change
		err = timed("release.drift", func() (e error) { changes, e = sys.DetectDrift(ctx, op.rel.name); return e })
		if err == nil && len(changes) > 0 {
			err = fmt.Errorf("unexpected drift on %s: %v", op.rel.name, changeStrings(changes))
		}
	}
	if err == nil && op.done != nil {
		op.done()
	}
	return err
}

// register samples the new release's payload (wrapper.NewHTTP fetches
// it and extracts the signature), times the schema layer alone on the
// same bytes, and registers the release.
func (rp *replayer) register(op *govOp, timed func(string, func() error) error) error {
	r := op.rel
	var hw *wrapper.HTTP
	if err := timed("wrapper.sample", func() (e error) {
		hw, e = wrapper.NewHTTP(context.Background(), r.name, r.src.id, rp.prov.URL()+r.path())
		return e
	}); err != nil {
		return err
	}
	body := rp.prov.payloads[r.path()].body
	if err := timed("schema.extract", func() error {
		_, _, e := schema.ExtractSignature(r.name, schema.Format(r.format), body)
		return e
	}); err != nil {
		return err
	}
	var rel mdm.Release
	if err := timed("release.register", func() (e error) {
		rel, e = rp.sys.RegisterWrapper(&timedWrapper{HTTP: hw, tr: &rp.tr})
		return e
	}); err != nil {
		return err
	}
	return op.compareRelease(releaseReply{Seq: rel.Seq, Kind: string(rel.Kind), Wrapper: rel.Wrapper,
		Signature: rel.Signature, Supersedes: rel.Supersedes, Breaking: rel.Breaking, Changes: changeStrings(rel.Changes)})
}

func changeStrings(cs []mdm.Change) []string {
	var out []string
	for _, c := range cs {
		out = append(out, c.String())
	}
	return out
}

// read replays one analyst request in three passes: through the layers
// untraced, through the layers traced, and through the REST handler
// (Server.ServeHTTP). Metadata queries get a fourth, EXPLAIN pass for
// the SPARQL operator spans. Every pass checks the answer.
func (rp *replayer) read(op *readOp) {
	rp.reads++
	passes := []func(){
		func() {
			t0 := time.Now()
			rp.check(rp.layered(op, -1))
			rp.plainWall += time.Since(t0)
		},
		func() {
			rp.tr.on.Store(true)
			r0, b0 := rp.prov.counts()
			t0 := time.Now()
			rp.check(rp.layered(op, rp.newReq()))
			rp.tracedWall += time.Since(t0)
			r1, b1 := rp.prov.counts()
			rp.tr.on.Store(false)
			rp.fetches += r1 - r0
			rp.fetchBytes += b1 - b0
		},
		func() {
			m, p, b := op.request()
			hreq := httptest.NewRequest(m, p, bytes.NewReader(b))
			rec := httptest.NewRecorder()
			t0 := time.Now()
			rp.api.ServeHTTP(rec, hreq)
			rp.restWall += time.Since(t0)
			rp.restBytes += int64(rec.Body.Len())
			rp.check(op.verify(rec.Code, rec.Body.Bytes()))
		},
	}
	// Rotate the pass order so no pass always runs first (cold) or last.
	for k := range passes {
		passes[(k+rp.reads)%len(passes)]()
	}
	if op.walk == nil {
		rp.explain(op)
	}
}

func (rp *replayer) check(err error) {
	if err != nil {
		rp.failures = append(rp.failures, err)
	}
}

// layered executes a read through the layers' public functions: for a
// walk the OMQ translation, the rewriter and the federation engine's
// scatter and drain; for a metadata query the SPARQL parser, planner
// (cursor construction on a pinned snapshot) and executor (drain). With
// req < 0 it records nothing.
func (rp *replayer) layered(op *readOp, req int) error {
	tr := &rp.tr
	root := -1
	if req >= 0 {
		root = tr.begin("request", -1, req)
		defer tr.end(root)
	}
	ctx := context.Background()
	sys := rp.sys
	if op.walk != nil {
		var walk *mdm.Walk
		if op.omq {
			id := tr.begin("rewrite.from_sparql", root, req)
			w, err := sys.WalkFromSPARQL(op.walk.omq())
			tr.end(id)
			if err != nil {
				return err
			}
			walk = w
		} else {
			walk = mdm.NewWalk()
			for _, s := range op.walk.sel {
				walk.SelectAs(sys.IRI(s[0]), sys.IRI(s[1]), s[2])
			}
			for _, r := range op.walk.rels {
				walk.Relate(sys.IRI(r[0]), sys.IRI(r[1]), sys.IRI(r[2]))
			}
		}
		id := tr.begin("rewrite", root, req)
		res, err := sys.Rewrite(walk)
		tr.end(id)
		if err != nil {
			return err
		}
		id = tr.begin("federate.scatter", root, req)
		cur, err := sys.Federation().RunWith(withSpan(ctx, id, req), res.Plan, mdm.QueryOpts{Limit: op.limit, Offset: op.offset})
		tr.end(id)
		if err != nil {
			return err
		}
		id = tr.begin("federate.drain", root, req)
		var rows [][]string
		for cur.Next(ctx) {
			row := cur.Row()
			cells := make([]string, len(row))
			for i, v := range row {
				cells[i] = v.Text()
			}
			rows = append(rows, cells)
		}
		cur.Close()
		tr.end(id)
		tr.annotate(id, int64(len(rows)), 0)
		if err := cur.Err(); err != nil {
			return err
		}
		if req >= 0 {
			rp.walks++
			rp.cqs += len(res.CQs)
			rp.walkRowsOut += int64(len(rows))
		}
		return op.check(cur.Columns(), rows)
	}

	id := tr.begin("sparql.parse", root, req)
	q, err := sparql.Parse(op.query)
	tr.end(id)
	if err != nil {
		return err
	}
	if op.limit >= 0 {
		q.Limit = op.limit
	}
	if op.offset >= 0 {
		q.Offset = op.offset
	}
	id = tr.begin("sparql.plan", root, req)
	ds := sys.Ontology().Dataset()
	var pin *tdb.Snapshot
	if st := sys.Storage(); st != nil {
		pin = st.PinSnapshot()
		ds = pin.Dataset()
	}
	cur, err := sparql.EvalCursorTrace(ds, q, nil)
	tr.end(id)
	if err != nil {
		if pin != nil {
			pin.Release()
		}
		return err
	}
	id = tr.begin("sparql.exec", root, req)
	vars := cur.Vars()
	var rows [][]string
	for cur.Next(ctx) {
		row := cur.Row()
		cells := make([]string, len(vars))
		for i := range vars {
			if t, ok := row.Term(i); ok {
				cells[i] = t.Value
			}
		}
		rows = append(rows, cells)
	}
	err = cur.Err()
	cur.Close()
	if pin != nil {
		pin.Release()
	}
	tr.end(id)
	tr.annotate(id, int64(len(rows)), 0)
	if err != nil {
		return err
	}
	if req >= 0 {
		rp.sparqls++
		rp.rowsOut += int64(len(rows))
	}
	return op.check(vars, rows)
}

// explain runs a metadata query with System.ExplainSPARQL and sums its
// operator spans: rows read by each operator, the self time of sorts
// (sort, top-k, canon-sort) and of index access (triple-scan,
// hash-join). Operator times are inclusive of their inputs, which are
// created before them, so an operator's self time is its time minus
// that of the operator created just before it (for a sort, the largest
// earlier time: its whole input chain).
func (rp *replayer) explain(op *readOp) {
	rep, err := rp.sys.ExplainSPARQL(context.Background(), op.query)
	if err != nil {
		rp.check(err)
		return
	}
	rp.explains++
	rows, _ := strconv.ParseInt(rep.Attrs["rows"], 10, 64)
	rp.opRowsOut += rows
	maxBefore := 0.0
	for i, o := range rep.Operators {
		rp.opRowsIn += o.RowsIn
		prev := 0.0
		if i > 0 {
			prev = rep.Operators[i-1].TimeMS
		}
		switch o.Op {
		case "sort", "top-k", "canon-sort":
			rp.sortTime += msDur(max(0, o.TimeMS-maxBefore))
		case "triple-scan", "hash-join":
			rp.scanTime += msDur(max(0, o.TimeMS-prev))
			rp.opScanRows += o.RowsOut
		}
		maxBefore = max(maxBefore, o.TimeMS)
	}
}

func msDur(ms float64) time.Duration { return time.Duration(ms * float64(time.Millisecond)) }

// replayRun replays the workload: the fixture's steward steps, then the
// analysts' requests (interleaved with the steward's releases on
// governance-loop, one release per block of five reads) until the time
// budget is spent. It returns the per-layer metrics it can compute.
func replayRun(dir string, w *workload, seed uint64, prov *provider, budget time.Duration) (*replayer, error) {
	prov.reset(w.initialPaths())
	rp, err := openReplay(filepath.Join(dir, "replay"), w.cfg, prov)
	if err != nil {
		return nil, err
	}
	rp.tr.on.Store(true)
	for _, op := range w.setup {
		if err := rp.gov(op); err != nil {
			rp.sys.Close()
			return nil, fmt.Errorf("replay setup: %w", err)
		}
	}
	rp.tr.on.Store(false)
	streams := make([]func() (*readOp, bool), w.readers)
	for i := range streams {
		streams[i] = w.reader(i, seed)
	}
	deadline := time.Now().Add(budget)
	for i := 0; time.Now().Before(deadline); i++ {
		if w.releases > 0 && i%len(govMix) == 0 {
			k := i / len(govMix)
			if k < w.releases {
				path, ops := w.steward(k)
				prov.publish(path)
				rp.tr.on.Store(true)
				for _, op := range ops {
					rp.check(rp.gov(op))
				}
				rp.tr.on.Store(false)
			}
		}
		op, _ := streams[i%len(streams)]()
		rp.read(op)
	}
	return rp, nil
}

func (rp *replayer) close() { rp.sys.Close() }
