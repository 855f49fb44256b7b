package main

import (
	"fmt"
	"math/rand/v2"
	"slices"
	"strings"
)

// concept is one global-graph concept a fixture declares.
type concept struct {
	iri      string
	features []string // the first is the identifier
	// relations lists (property, target concept IRI) edges.
	relations [][2]string
}

// fixture is the ontology and the sources one workload starts from.
type fixture struct {
	concepts  []*concept
	sources   []*source
	conceptOf map[string]*concept // concept IRI -> concept
	ownerOf   map[string]string   // feature IRI -> concept IRI
}

func newFixture() *fixture {
	return &fixture{conceptOf: map[string]*concept{}, ownerOf: map[string]string{}}
}

func (fx *fixture) addConcept(c *concept) {
	fx.concepts = append(fx.concepts, c)
	fx.conceptOf[c.iri] = c
	for _, f := range c.features {
		fx.ownerOf[f] = c.iri
	}
}

// mappingSubgraph returns the global-graph triples a release's mapping
// covers: its concept with the mapped features, and for each reference
// field the relation edge plus the referenced concept's identifier.
func (fx *fixture) mappingSubgraph(r *release) [][3]string {
	c := fx.conceptOf[r.src.concept]
	out := [][3]string{{c.iri, rdfType, gConcept}}
	for _, f := range r.mapped {
		fd := r.src.fields[f]
		if fd.kind != kindRef {
			out = append(out, [3]string{c.iri, gHasFeat, fd.feature})
			continue
		}
		target := fx.ownerOf[fd.feature]
		for _, rel := range c.relations {
			if rel[1] == target {
				out = append(out, [3]string{c.iri, rel[0], target})
			}
		}
		out = append(out, [3]string{target, rdfType, gConcept}, [3]string{target, gHasFeat, fd.feature})
	}
	return out
}

// globalOps declares the fixture's global graph: the ex prefix, every
// concept with its features (the first marked identifier) and every
// concept relation.
func (fx *fixture) globalOps() []*govOp {
	ops := []*govOp{{kind: opPrefix, a: "ex", b: nsEx}}
	for _, c := range fx.concepts {
		ops = append(ops, &govOp{kind: opConcept, a: c.iri, b: localName(c.iri)})
		for i, f := range c.features {
			ops = append(ops,
				&govOp{kind: opFeature, a: f, b: localName(f)},
				&govOp{kind: opAttach, a: c.iri, b: f})
			if i == 0 {
				ops = append(ops, &govOp{kind: opIdentifier, a: f})
			}
		}
	}
	for _, c := range fx.concepts {
		for _, rel := range c.relations {
			ops = append(ops, &govOp{kind: opRelate, a: c.iri, b: rel[0], c: rel[1]})
		}
	}
	return ops
}

// releaseOps registers a release and defines its mapping; seq is the
// release-log position the server must assign it. A release that adds
// an attribute linked to a new feature first declares the feature. The
// steward's loop also fetches the suggested mapping and probes drift.
func (fx *fixture) releaseOps(r *release, seq int, steward bool) []*govOp {
	var ops []*govOp
	if r.extraFeature != "" {
		ops = append(ops,
			&govOp{kind: opFeature, a: r.extraFeature, b: localName(r.extraFeature)},
			&govOp{kind: opAttach, a: r.src.concept, b: r.extraFeature})
	}
	ops = append(ops, &govOp{kind: opWrapper, rel: r, seq: seq})
	if steward {
		ops = append(ops, &govOp{kind: opSuggest, rel: r, prev: r.src.releases[r.version-2]})
	}
	if len(r.mapped) > 0 {
		ops = append(ops, &govOp{kind: opMapping, rel: r, fx: fx})
	}
	if steward {
		ops = append(ops, &govOp{kind: opDrift, rel: r})
	}
	return ops
}

func localName(iri string) string {
	return iri[strings.LastIndexAny(iri, "/#")+1:]
}

// mapAll links every field of the release that has a feature.
func mapAll(r *release) {
	r.mapped = r.mapped[:0]
	for f := range r.attrs {
		if r.src.fields[f].feature != "" {
			r.mapped = append(r.mapped, f)
		}
	}
}

var formats = []string{"json", "xml", "csv"}

// --- walk-evolution ---------------------------------------------------

// walkChain is the walk-evolution fixture: a chain of four concepts
// C0 -r0-> C1 -r1-> C2 -r2-> C3, one HTTP-wrapped source per concept.
// The head source has eight releases, the others two; rows fall
// 1000/100/10/3. Every release serves each entity of its home release
// plus a seeded half of the rest, so an answer is complete only if the
// walk unions all releases.
type walkChain struct {
	fx       *fixture
	srcs     []*source
	label    []int // field index of each source's text field
	amount   []int // field index of each source's numeric field
	refField []int // field index of each source's reference (-1 for the tail)
}

var chainRows = []int{1000, 100, 10, 3}
var chainReleases = []int{8, 2, 2, 2}

func newWalkChain(seed uint64) *walkChain {
	wc := &walkChain{fx: newFixture()}
	n := len(chainRows)
	for i := 0; i < n; i++ {
		c := &concept{iri: ex(fmt.Sprintf("C%d", i)),
			features: []string{ex(fmt.Sprintf("id%d", i)), ex(fmt.Sprintf("name%d", i)), ex(fmt.Sprintf("val%d", i))}}
		if i+1 < n {
			c.relations = [][2]string{{ex(fmt.Sprintf("r%d", i)), ex(fmt.Sprintf("C%d", i+1))}}
		}
		wc.fx.addConcept(c)
	}
	rng := newRand(seed, "walk-evolution/fixture")
	for i := 0; i < n; i++ {
		c := wc.fx.concepts[i]
		s := &source{id: fmt.Sprintf("chain%d", i), seed: seed, concept: c.iri, fields: []field{
			{base: fmt.Sprintf("id%d", i), kind: kindKey, feature: c.features[0]},
			{base: fmt.Sprintf("label%d", i), kind: kindText, feature: c.features[1]},
			{base: fmt.Sprintf("amount%d", i), kind: kindNum, feature: c.features[2]},
		}}
		wc.label = append(wc.label, 1)
		wc.amount = append(wc.amount, 2)
		wc.refField = append(wc.refField, -1)
		if i+1 < n {
			s.fields = append(s.fields, field{base: fmt.Sprintf("ref%d", i+1), kind: kindRef,
				feature: wc.fx.concepts[i+1].features[0], refN: chainRows[i+1]})
			wc.refField[i] = 3
		}
		nrel, rows := chainReleases[i], chainRows[i]
		renamable := len(s.fields)
		// The seed picks which field a release renames and which entities
		// it serves; which releases add a field, their formats and their
		// sizes are the same for every seed.
		s.buildReleases(nrel,
			func(v int) evolution {
				if v%4 == 0 {
					return evolution{rename: -1, add: &field{base: fmt.Sprintf("extra%d", v), kind: kindText}}
				}
				return evolution{rename: 1 + rng.IntN(renamable-1)}
			},
			func(v int) string { return formats[(i+v)%3] },
			func(v int) []int { return halfAndHome(rng, rows, nrel, v) })
		for _, r := range s.releases {
			mapAll(r)
		}
		wc.srcs = append(wc.srcs, s)
		wc.fx.sources = append(wc.fx.sources, s)
	}
	return wc
}

// halfAndHome returns the entities release v of nrel serves: every
// entity whose home release it is (k mod nrel), plus a seeded half of the
// others, in ascending order.
func halfAndHome(rng *rand.Rand, rows, nrel, v int) []int {
	var keys, others []int
	for k := 0; k < rows; k++ {
		if k%nrel+1 == v {
			keys = append(keys, k)
		} else {
			others = append(others, k)
		}
	}
	rng.Shuffle(len(others), func(a, b int) { others[a], others[b] = others[b], others[a] })
	keys = append(keys, others[:len(others)/2]...)
	slices.Sort(keys)
	return keys
}

func (wc *walkChain) setupOps() []*govOp {
	ops := wc.fx.globalOps()
	seq := 0
	for _, s := range wc.srcs {
		ops = append(ops, &govOp{kind: opSource, a: s.id, b: s.id})
		for _, r := range s.releases {
			seq++
			ops = append(ops, wc.fx.releaseOps(r, seq, false)...)
		}
	}
	return ops
}

// chainAnswer is the expected answer of the walk over concepts
// start..end projecting one field per concept (useName picks the text
// field, else the numeric one): every reference chain from every
// entity of the start source, deduplicated.
func (wc *walkChain) chainAnswer(start, end int, useName []bool) *answer {
	a := newAnswer()
	row := make([]string, end-start+1)
	for e := 0; e < chainRows[start]; e++ {
		cur := e
		for i := start; i <= end; i++ {
			s := wc.srcs[i]
			f := wc.amount[i]
			if useName[i-start] {
				f = wc.label[i]
			}
			row[i-start] = s.value(f, cur)
			if i < end {
				cur = s.ref(wc.refField[i], cur)
			}
		}
		a.add(row)
	}
	return a
}

// --- metadata-sparql --------------------------------------------------

// metaCatalog is the metadata-sparql fixture: many sources with many
// releases and attributes, a taxonomy-like concept tree, and mappings
// for the first and the latest release of every source.
type metaCatalog struct {
	fx    *fixture
	depth []int // depth of each concept in the partOf tree (root = 0)
}

const (
	metaConcepts = 30
	metaFeatures = 8
	metaSources  = 150
	metaReleases = 10
	metaAttrs    = 20
	metaRows     = 3
)

var partOf = ex("partOf")

func newMetaCatalog(seed uint64) *metaCatalog {
	mc := &metaCatalog{fx: newFixture()}
	for c := 0; c < metaConcepts; c++ {
		con := &concept{iri: ex(fmt.Sprintf("K%d", c))}
		for f := 0; f < metaFeatures; f++ {
			con.features = append(con.features, ex(fmt.Sprintf("k%df%d", c, f)))
		}
		d := 0
		if c > 0 {
			con.relations = [][2]string{{partOf, ex(fmt.Sprintf("K%d", (c-1)/2))}}
			d = mc.depth[(c-1)/2] + 1
		}
		mc.depth = append(mc.depth, d)
		mc.fx.addConcept(con)
	}
	rng := newRand(seed, "metadata-sparql/fixture")
	for si := 0; si < metaSources; si++ {
		con := mc.fx.concepts[si%metaConcepts]
		s := &source{id: fmt.Sprintf("m%d", si), seed: seed, concept: con.iri}
		for a := 0; a < metaAttrs; a++ {
			fd := field{base: fmt.Sprintf("a%d", a), kind: kindNum}
			switch {
			case a == 0:
				fd.kind = kindKey
			case a%2 == 1:
				fd.kind = kindText
			}
			if a < metaFeatures {
				fd.feature = con.features[a]
			}
			s.fields = append(s.fields, fd)
		}
		s.buildReleases(metaReleases,
			func(v int) evolution {
				if v%3 == 1 {
					return evolution{rename: -1, add: &field{base: fmt.Sprintf("extra%d", v), kind: kindNum}}
				}
				return evolution{rename: 1 + rng.IntN(metaAttrs-1)}
			},
			func(v int) string { return formats[(si+v)%3] },
			func(v int) []int { return []int{0, 1, 2}[:metaRows] })
		mapAll(s.releases[0])
		mapAll(s.releases[metaReleases-1])
		mc.fx.sources = append(mc.fx.sources, s)
	}
	return mc
}

func (mc *metaCatalog) setupOps() []*govOp {
	ops := mc.fx.globalOps()
	seq := 0
	for _, s := range mc.fx.sources {
		ops = append(ops, &govOp{kind: opSource, a: s.id, b: s.id})
		for _, r := range s.releases {
			seq++
			ops = append(ops, mc.fx.releaseOps(r, seq, false)...)
		}
	}
	return ops
}

// listingRows is the size of the full source -> wrapper -> attribute
// listing: one row per (wrapper, attribute) edge.
func (mc *metaCatalog) listingRows() int {
	n := 0
	for _, s := range mc.fx.sources {
		for _, r := range s.releases {
			n += len(r.attrNames())
		}
	}
	return n
}

// sourceAttrRows is the number of (wrapper, attribute) edges of one
// source.
func (mc *metaCatalog) sourceAttrRows(si int) int {
	n := 0
	for _, r := range mc.fx.sources[si].releases {
		n += len(r.attrNames())
	}
	return n
}

// impactRows is the number of mappings linking an attribute to feature
// f of concept c.
func (mc *metaCatalog) impactRows(c, f int) int {
	n := 0
	for si, s := range mc.fx.sources {
		if si%metaConcepts != c {
			continue
		}
		for _, r := range s.releases {
			if _, ok := r.sameAsFeature(mc.fx.concepts[c].features[f]); ok {
				n++
			}
		}
	}
	return n
}

func (r *release) sameAsFeature(feature string) (string, bool) {
	for a, f := range r.sameAs() {
		if f == feature {
			return a, true
		}
	}
	return "", false
}

// --- governance-loop --------------------------------------------------

// govHub is the governance-loop fixture: a hub concept H with a small
// source, and many concepts G0..Gn-1 that each relate to H and have a
// source of their own. Each release of a G source serves five more
// entities than the one before, so a walk's answer tells how many
// releases were mapped when it ran. Every G mapping covers H (through
// the reference to it), so a walk over H weighs every mapped release:
// walk cost grows with the whole ontology the steward evolves.
type govHub struct {
	fx  *fixture
	hub *source
	gs  []*source
	// plan is the steward's release sequence: source index per release,
	// in order. Every G source starts with govBaseReleases releases.
	plan []int
}

const (
	govSources      = 24
	govBaseReleases = 2
	govHubRows      = 20
	govBaseRows     = 50
	govGrowth       = 5
)

var govIn = ex("in")

// govRows is the number of entities release v of a G source serves.
func govRows(v int) int { return govBaseRows + govGrowth*(v-1) }

func newGovHub(seed uint64, releases int) *govHub {
	gh := &govHub{fx: newFixture()}
	hub := &concept{iri: ex("H"), features: []string{ex("hid"), ex("hname")}}
	gh.fx.addConcept(hub)
	for j := 0; j < govSources; j++ {
		gh.fx.addConcept(&concept{iri: ex(fmt.Sprintf("G%d", j)),
			features:  []string{ex(fmt.Sprintf("g%did", j)), ex(fmt.Sprintf("g%dname", j)), ex(fmt.Sprintf("g%dval", j))},
			relations: [][2]string{{govIn, hub.iri}}})
	}
	rng := newRand(seed, "governance-loop/fixture")
	gh.hub = &source{id: "hub", seed: seed, concept: hub.iri, fields: []field{
		{base: "hid", kind: kindKey, feature: hub.features[0]},
		{base: "hname", kind: kindText, feature: hub.features[1]},
	}}
	gh.hub.buildReleases(govBaseReleases, func(int) evolution { return evolution{rename: 1} },
		func(v int) string { return formats[v%3] },
		func(int) []int { return seq(govHubRows) })
	gh.fx.sources = append(gh.fx.sources, gh.hub)

	// The steward's sequence: rounds over a seeded permutation of the
	// sources, so releases rotate and no source grows far beyond the
	// others.
	count := make([]int, govSources)
	for len(gh.plan) < releases {
		for _, j := range rng.Perm(govSources) {
			if len(gh.plan) == releases {
				break
			}
			gh.plan = append(gh.plan, j)
			count[j]++
		}
	}
	for j := 0; j < govSources; j++ {
		c := gh.fx.concepts[j+1]
		s := &source{id: fmt.Sprintf("g%d", j), seed: seed, concept: c.iri, fields: []field{
			{base: fmt.Sprintf("g%did", j), kind: kindKey, feature: c.features[0]},
			{base: fmt.Sprintf("g%dname", j), kind: kindText, feature: c.features[1]},
			{base: fmt.Sprintf("g%dval", j), kind: kindNum, feature: c.features[2]},
			{base: "hubref", kind: kindRef, feature: hub.features[0], refN: govHubRows},
		}}
		s.buildReleases(govBaseReleases+count[j],
			func(v int) evolution {
				if v%3 == 0 {
					return evolution{rename: -1, add: &field{base: fmt.Sprintf("x%d", v), kind: kindText,
						feature: ex(fmt.Sprintf("g%dx%d", j, v))}}
				}
				return evolution{rename: rng.IntN(4)}
			},
			func(v int) string { return formats[(j+v)%3] },
			func(v int) []int { return seq(govRows(v)) })
		gh.gs = append(gh.gs, s)
		gh.fx.sources = append(gh.fx.sources, s)
	}
	for _, s := range gh.fx.sources {
		for _, r := range s.releases {
			mapAll(r)
		}
	}
	return gh
}

func seq(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

func (gh *govHub) setupOps() []*govOp {
	ops := gh.fx.globalOps()
	seq := 0
	for _, s := range gh.fx.sources {
		ops = append(ops, &govOp{kind: opSource, a: s.id, b: s.id})
		for _, r := range s.releases[:govBaseReleases] {
			seq++
			ops = append(ops, gh.fx.releaseOps(r, seq, false)...)
		}
	}
	return ops
}

// setupReleases is the number of releases the fixture registers.
func (gh *govHub) setupReleases() int { return (1 + govSources) * govBaseReleases }

// stewardRelease returns the governance steps of the steward's i-th
// release: global-graph edits for a new attribute, registration,
// suggested mapping, mapping definition and drift probe.
func (gh *govHub) stewardRelease(i int) (*release, []*govOp) {
	j := gh.plan[i]
	v := govBaseReleases + 1
	for _, k := range gh.plan[:i] {
		if k == j {
			v++
		}
	}
	r := gh.gs[j].releases[v-1]
	return r, gh.fx.releaseOps(r, gh.setupReleases()+i+1, true)
}

// walkAnswer is the expected answer of the walk over G_j (and H when
// withHub) once m releases of G_j are mapped: G_j's name and value, or
// its name and the referenced hub entity's name.
func (gh *govHub) walkAnswer(j, m int, withHub bool) *answer {
	s := gh.gs[j]
	a := newAnswer()
	for e := 0; e < govRows(m); e++ {
		if withHub {
			a.add([]string{s.value(1, e), gh.hub.value(1, s.ref(3, e))})
		} else {
			a.add([]string{s.value(1, e), s.value(2, e)})
		}
	}
	return a
}
