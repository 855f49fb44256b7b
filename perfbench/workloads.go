package main

import (
	"fmt"
	"math/rand/v2"
	"sync"
	"sync/atomic"
	"time"

	"mdm"
	"mdm/internal/tdb"
)

// config is a workload's fixed shape: its client count and every mdmd
// flag it passes besides -addr and -data. The flush policy is always
// passed explicitly, so both sides of a comparison run the same one.
// The traced replay opens its in-process system with the same settings;
// flags left at mdmd's defaults (-fanout, -compact-wal-threshold,
// -retries, the breaker knobs) are the federate and tdb defaults there.
type config struct {
	clients         int
	fsyncInterval   string
	compactInterval string
	cacheTTL        string
}

func (c config) flags() []string {
	return []string{"-fsync", "batch", "-fsync-interval", c.fsyncInterval,
		"-compact-interval", c.compactInterval, "-source-cache-ttl", c.cacheTTL}
}

// storeOptions are the tdb options mdmd derives from the flags.
func (c config) storeOptions() mdm.StoreOptions {
	d := func(s string) time.Duration { v, _ := time.ParseDuration(s); return v }
	return mdm.StoreOptions{Sync: tdb.SyncBatch, SyncInterval: d(c.fsyncInterval),
		CompactInterval: d(c.compactInterval), CompactWALThreshold: 4096}
}

var configs = map[string]config{
	"walk-evolution":  {clients: 1, fsyncInterval: "5ms", compactInterval: "60s", cacheTTL: "0s"},
	"metadata-sparql": {clients: 1, fsyncInterval: "5ms", compactInterval: "60s", cacheTTL: "0s"},
	"governance-loop": {clients: 2, fsyncInterval: "5ms", compactInterval: "2s", cacheTTL: "1s"},
}

// stewardPeriod paces the governance-loop steward: one release per
// period, so every run of a given length registers the same releases
// and ends on the same ontology.
const stewardPeriod = 100 * time.Millisecond

// workload is what the live run and the traced replay need from one
// workload: its fixture steps, a probe request that shows the system
// can answer, the analysts' request streams, and (governance-loop
// only) the steward's release sequence.
type workload struct {
	cfg     config
	sources []*source
	setup   []*govOp
	probe   func() *readOp
	// reader returns a client's request stream; the flag marks the last
	// request of a block of the workload's fixed mix.
	reader   func(client int, seed uint64) func() (*readOp, bool)
	readers  int // clients that issue reads; the rest run the steward
	releases int // steward releases in the window (0 = no steward)
	// steward returns the steps of the i-th release and the provider
	// path it publishes first.
	steward func(i int) (path string, ops []*govOp)
}

func newWorkload(name string, seed uint64, seconds int) (*workload, error) {
	cfg, ok := configs[name]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", name)
	}
	w := &workload{cfg: cfg, readers: cfg.clients}
	switch name {
	case "walk-evolution":
		wc := newWalkChain(seed)
		w.sources, w.setup = wc.fx.sources, wc.setupOps()
		ans := wc.answers()
		w.reader = wc.reader(ans)
		w.probe = func() *readOp { return wc.walkOp(newRand(seed, "probe"), chainShape{2, 3}, "json", ans) }
	case "metadata-sparql":
		mc := newMetaCatalog(seed)
		w.sources, w.setup = mc.fx.sources, mc.setupOps()
		w.reader = mc.reader
		w.probe = func() *readOp { return mc.conceptFeatures() }
	case "governance-loop":
		w.releases = seconds * int(time.Second/stewardPeriod)
		gh := newGovHub(seed, w.releases)
		w.sources, w.setup = gh.fx.sources, gh.setupOps()
		st := newGovState(gh)
		w.readers = cfg.clients - 1
		w.reader = st.reader
		w.probe = func() *readOp { return st.walk(0, true, -1, -1, "probe") }
		w.steward = st.release
	}
	return w, nil
}

// initialPaths lists the provider paths visible before the run: every
// release except those the governance steward publishes during it.
func (w *workload) initialPaths() map[string]bool {
	later := map[string]bool{}
	for i := 0; i < w.releases; i++ {
		p, _ := w.steward(i)
		later[p] = true
	}
	out := map[string]bool{}
	for _, s := range w.sources {
		for _, r := range s.releases {
			if !later[r.path()] {
				out[r.path()] = true
			}
		}
	}
	return out
}

// --- walk-evolution streams ---------------------------------------------

// chainShape is a sub-chain start..end of the walk-evolution chain.
type chainShape struct{ start, end int }

func chainShapes() []chainShape {
	var out []chainShape
	for s := 0; s < len(chainRows); s++ {
		for e := s; e < len(chainRows); e++ {
			out = append(out, chainShape{s, e})
		}
	}
	return out
}

// answers precomputes every walk answer: per shape, per choice of
// text or numeric feature for each concept.
func (wc *walkChain) answers() map[[3]int]*answer {
	out := map[[3]int]*answer{}
	for _, sh := range chainShapes() {
		n := sh.end - sh.start + 1
		for mask := 0; mask < 1<<n; mask++ {
			use := make([]bool, n)
			for i := range use {
				use[i] = mask&(1<<i) != 0
			}
			out[[3]int{sh.start, sh.end, mask}] = wc.chainAnswer(sh.start, sh.end, use)
		}
	}
	return out
}

// walkForms are the forms a walk is sent in: a JSON walk, a SPARQL OMQ,
// or a page of 100 rows.
var walkForms = []string{"json", "omq", "page"}

// blockShapes is the fixed mix of every block of walk requests: each
// sub-chain that avoids the 8-release head source twice, each one
// through it once, and the 4-concept walk twice. The light walks are 12
// of 17, so the median falls inside their dense middle rather than in
// the sparse gap between light and heavy walks, and the 4-concept walks
// give the tail enough samples.
func blockShapes() []chainShape {
	var out []chainShape
	for _, sh := range chainShapes() {
		out = append(out, sh)
		if sh.start > 0 || sh.end == len(chainRows)-1 {
			out = append(out, sh)
		}
	}
	return out
}

// reader returns client streams of blocks in a seeded order. Each
// position of the block cycles through the walk forms from block to
// block; projections are seeded. The mix is the same for every seed;
// only the order and the constants change.
func (wc *walkChain) reader(ans map[[3]int]*answer) func(int, uint64) func() (*readOp, bool) {
	shapes := blockShapes()
	return func(client int, seed uint64) func() (*readOp, bool) {
		rng := newRand(seed, fmt.Sprintf("walk-evolution/client%d", client))
		var block []*readOp
		n := 0
		return func() (*readOp, bool) {
			if len(block) == 0 {
				for _, si := range rng.Perm(len(shapes)) {
					form := walkForms[(si+n)%len(walkForms)]
					block = append(block, wc.walkOp(rng, shapes[si], form, ans))
				}
				n++
			}
			op := block[0]
			block = block[1:]
			return op, len(block) == 0
		}
	}
}

func (wc *walkChain) walkOp(rng *rand.Rand, sh chainShape, form string, ans map[[3]int]*answer) *readOp {
	w := &walkSpec{}
	mask := 0
	for i := sh.start; i <= sh.end; i++ {
		c := wc.fx.concepts[i]
		feat, alias := c.features[2], fmt.Sprintf("c%d_val", i)
		if rng.IntN(2) == 0 {
			feat, alias = c.features[1], fmt.Sprintf("c%d_name", i)
			mask |= 1 << (i - sh.start)
		}
		w.sel = append(w.sel, [3]string{c.iri, feat, alias})
		if i > sh.start {
			prev := wc.fx.concepts[i-1]
			w.rels = append(w.rels, [3]string{prev.iri, prev.relations[0][0], c.iri})
		}
	}
	a := ans[[3]int{sh.start, sh.end, mask}]
	op := &readOp{class: classWalk, label: fmt.Sprintf("walk C%d..C%d %s", sh.start, sh.end, form),
		walk: w, omq: form == "omq", limit: -1, offset: -1}
	if form == "page" {
		op.limit, op.offset = 100, rng.IntN(a.len())
	}
	op.check = checkWalk(w.aliases(), op.limit, op.offset, a)
	return op
}

// --- metadata-sparql streams ----------------------------------------------

const sparqlPrefixes = "PREFIX G: <" + nsGlobal + ">\nPREFIX S: <" + nsSource + ">\n" +
	"PREFIX rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#>\n" +
	"PREFIX rdfs: <http://www.w3.org/2000/01/rdf-schema#>\n" +
	"PREFIX owl: <http://www.w3.org/2002/07/owl#>\nPREFIX ex: <" + nsEx + ">\n"

// metaMix is the fixed count of each query template in every block of
// 20 metadata requests.
var metaMix = []struct {
	name string
	n    int
}{
	{"concept-features", 2}, {"features-of", 3}, {"listing", 1}, {"listing-ndjson", 1},
	{"wrappers-per-source", 2}, {"top-attributes", 2}, {"source-page", 3}, {"impact", 3}, {"ancestors", 3},
}

func sparqlOp(label, query string, check func([]string, [][]string) error) *readOp {
	return &readOp{class: classSPARQL, label: label, query: sparqlPrefixes + query, limit: -1, offset: -1, check: check}
}

// countOp is a metadata query whose answer is checked by its row count.
func countOp(label, query string, check func([]string, [][]string) error) *readOp {
	op := sparqlOp(label, query, check)
	op.countOnly = true
	return op
}

func (mc *metaCatalog) conceptFeatures() *readOp {
	return countOp("concept-features",
		"SELECT ?c ?f WHERE { GRAPH <"+graphG+"> { ?c rdf:type G:Concept . ?c G:hasFeature ?f } }",
		checkCount(metaConcepts*metaFeatures))
}

// reader returns client streams of blocks with the fixed template mix
// in a seeded order. Constants (concept, source, feature) are drawn
// from a Zipf distribution, so some query texts repeat and others do
// not.
func (mc *metaCatalog) reader(client int, seed uint64) func() (*readOp, bool) {
	rng := newRand(seed, fmt.Sprintf("metadata-sparql/client%d", client))
	zc := rand.NewZipf(rng, 1.3, 1, metaConcepts-1)
	zs := rand.NewZipf(rng, 1.3, 1, metaSources-1)
	var names []string
	for _, m := range metaMix {
		for i := 0; i < m.n; i++ {
			names = append(names, m.name)
		}
	}
	var block []*readOp
	return func() (*readOp, bool) {
		if len(block) == 0 {
			for _, i := range rng.Perm(len(names)) {
				block = append(block, mc.metaOp(names[i], rng, zc, zs))
			}
		}
		op := block[0]
		block = block[1:]
		return op, len(block) == 0
	}
}

func (mc *metaCatalog) metaOp(name string, rng *rand.Rand, zc, zs *rand.Zipf) *readOp {
	listing := "SELECT ?s ?w ?a WHERE { GRAPH <" + graphS + "> { ?s S:hasWrapper ?w . ?w S:hasAttribute ?a } }"
	switch name {
	case "concept-features":
		return mc.conceptFeatures()
	case "features-of":
		c := mc.fx.concepts[zc.Uint64()]
		return countOp(name, "SELECT ?f WHERE { GRAPH <"+graphG+"> { <"+c.iri+"> G:hasFeature ?f } }",
			checkCount(metaFeatures))
	case "listing", "listing-ndjson":
		op := countOp(name, listing, checkCount(mc.listingRows()))
		op.ndjson = name == "listing-ndjson"
		return op
	case "wrappers-per-source":
		want := make([]string, metaSources)
		for i := range want {
			want[i] = fmt.Sprint(metaReleases)
		}
		return sparqlOp(name, "SELECT ?s (COUNT(?w) AS ?n) WHERE { GRAPH <"+graphS+"> { ?s S:hasWrapper ?w } } GROUP BY ?s",
			checkColumn(metaSources, "n", want))
	case "top-attributes":
		return sparqlOp(name, "SELECT ?w ?a WHERE { GRAPH <"+graphS+"> { ?w S:hasAttribute ?a } } ORDER BY ?a LIMIT 10",
			checkSorted(10, "a"))
	case "source-page":
		si := int(zs.Uint64())
		total := mc.sourceAttrRows(si)
		op := countOp(name, fmt.Sprintf("SELECT ?w ?a WHERE { GRAPH <%s> { ?s rdfs:label %q . ?s S:hasWrapper ?w . ?w S:hasAttribute ?a } }",
			graphS, mc.fx.sources[si].id), nil)
		op.limit, op.offset = 20, rng.IntN(total)
		op.check = checkCount(min(20, total-op.offset))
		return op
	case "impact":
		c, f := int(zc.Uint64()), rng.IntN(metaFeatures)
		return countOp(name, "SELECT ?g ?a WHERE { GRAPH ?g { ?a owl:sameAs <"+mc.fx.concepts[c].features[f]+"> } }",
			checkCount(mc.impactRows(c, f)))
	default: // ancestors
		c := 1 + int(zc.Uint64())%(metaConcepts-1)
		return countOp(name, "SELECT ?a WHERE { GRAPH <"+graphG+"> { <"+mc.fx.concepts[c].iri+"> ex:partOf+ ?a } }",
			checkCount(mc.depth[c]))
	}
}

// --- governance-loop streams -----------------------------------------------

// govState is the steward's progress, shared with the analyst: which
// source was evolved last, and how many releases of each source are
// registered and mapped. The analyst's checks accept any answer the
// server could have given while a request ran: every count from the
// one read before sending to the one read after the reply, plus one
// for a steward step applied but not yet acknowledged.
type govState struct {
	gh         *govHub
	current    atomic.Int64
	registered []atomic.Int64
	mapped     []atomic.Int64

	mu      sync.Mutex
	answers map[[3]int]*answer // (source, mapped releases, with hub) -> answer
}

func newGovState(gh *govHub) *govState {
	st := &govState{gh: gh, registered: make([]atomic.Int64, govSources), mapped: make([]atomic.Int64, govSources),
		answers: map[[3]int]*answer{}}
	for j := range st.registered {
		st.registered[j].Store(govBaseReleases)
		st.mapped[j].Store(govBaseReleases)
	}
	st.current.Store(int64(gh.plan[0]))
	return st
}

// release returns the steward's i-th release; its steps advance the
// shared counters as the server acknowledges them.
func (st *govState) release(i int) (string, []*govOp) {
	r, ops := st.gh.stewardRelease(i)
	j := st.gh.plan[i]
	for _, op := range ops {
		switch op.kind {
		case opWrapper:
			op.done = func() { st.current.Store(int64(j)); st.registered[j].Add(1) }
		case opMapping:
			op.done = func() { st.mapped[j].Add(1) }
		}
	}
	return r.path(), ops
}

func (st *govState) answer(j, m int, hub bool) *answer {
	key := [3]int{j, m, 0}
	if hub {
		key[2] = 1
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	a, ok := st.answers[key]
	if !ok {
		a = st.gh.walkAnswer(j, m, hub)
		st.answers[key] = a
	}
	return a
}

// walk builds the walk over the current source's concept (and the hub
// with hub set), checked against every mapped-release count in range.
func (st *govState) walk(j int, hub bool, limit, offset int, label string) *readOp {
	s := st.gh.gs[j]
	c := st.gh.fx.conceptOf[s.concept]
	w := &walkSpec{sel: [][3]string{{c.iri, c.features[1], "gname"}}}
	if hub {
		h := st.gh.fx.conceptOf[st.gh.hub.concept]
		w.sel = append(w.sel, [3]string{h.iri, h.features[1], "hname"})
		w.rels = [][3]string{{c.iri, govIn, h.iri}}
	} else {
		w.sel = append(w.sel, [3]string{c.iri, c.features[2], "gval"})
	}
	lo := int(st.mapped[j].Load())
	op := &readOp{class: classWalk, label: label, walk: w, limit: limit, offset: offset}
	op.check = func(cols []string, rows [][]string) error {
		hi := int(st.mapped[j].Load()) + 1
		var alts []*answer
		for m := lo; m <= min(hi, len(s.releases)); m++ {
			alts = append(alts, st.answer(j, m, hub))
		}
		return checkWalk(w.aliases(), limit, offset, alts...)(cols, rows)
	}
	return op
}

// countRange checks a metadata count against a steward counter.
func countRange(ctr *atomic.Int64) func([]string, [][]string) error {
	lo := int(ctr.Load())
	return func(_ []string, rows [][]string) error {
		hi := int(ctr.Load()) + 1
		if len(rows) < lo || len(rows) > hi {
			return fmt.Errorf("%d rows, want %d..%d", len(rows), lo, hi)
		}
		return nil
	}
}

var govMix = []string{"walk-hub", "walk-omq", "walk-hub-page", "release-history", "impact"}

// reader returns the analyst's stream: blocks of the five templates in
// a seeded order, each about the source the steward evolved last.
func (st *govState) reader(client int, seed uint64) func() (*readOp, bool) {
	rng := newRand(seed, fmt.Sprintf("governance-loop/client%d", client))
	var order []int
	return func() (*readOp, bool) {
		if len(order) == 0 {
			order = rng.Perm(len(govMix))
		}
		name := govMix[order[0]]
		order = order[1:]
		return st.op(name, rng), len(order) == 0
	}
}

// op builds one analyst request about the source the steward evolved
// last, capturing the steward's counters at creation (just before it is
// sent).
func (st *govState) op(name string, rng *rand.Rand) *readOp {
	j := int(st.current.Load())
	s := st.gh.gs[j]
	switch name {
	case "walk-hub":
		return st.walk(j, true, -1, -1, name)
	case "walk-omq":
		op := st.walk(j, false, -1, -1, name)
		op.omq = true
		return op
	case "walk-hub-page":
		return st.walk(j, true, 20, rng.IntN(govBaseRows), name)
	case "release-history":
		return countOp(name, fmt.Sprintf("SELECT ?w WHERE { GRAPH <%s> { ?s rdfs:label %q . ?s S:hasWrapper ?w } }", graphS, s.id),
			countRange(&st.registered[j]))
	default:
		return countOp(name, "SELECT ?g ?a WHERE { GRAPH ?g { ?a owl:sameAs <"+s.fields[1].feature+"> } }",
			countRange(&st.mapped[j]))
	}
}
