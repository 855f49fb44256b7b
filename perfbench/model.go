package main

import (
	"fmt"
	"math/rand/v2"
	"sort"
	"strconv"
	"strings"
)

// IRIs of the generated fixtures and of the BDI metamodel they use.
const (
	nsEx      = "http://bench.mdm.example/ex/"
	nsGlobal  = "http://www.essi.upc.edu/~snadal/BDIOntology/Global/"
	nsSource  = "http://www.essi.upc.edu/~snadal/BDIOntology/Source/"
	rdfType   = "http://www.w3.org/1999/02/22-rdf-syntax-ns#type"
	owlSameAs = "http://www.w3.org/2002/07/owl#sameAs"
	gConcept  = nsGlobal + "Concept"
	gHasFeat  = nsGlobal + "hasFeature"
	graphG    = nsGlobal + "graph"
	graphS    = nsSource + "graph"
	sHasWrap  = nsSource + "hasWrapper"
	sHasAttr  = nsSource + "hasAttribute"
)

func ex(local string) string { return nsEx + local }

// mix hashes its inputs into one well-spread 64-bit value (splitmix64
// finalizer over a running combination). Every generated value goes
// through it, so a (seed, coordinates) pair always yields the same data.
func mix(xs ...uint64) uint64 {
	h := uint64(0x9e3779b97f4a7c15)
	for _, x := range xs {
		h ^= x + 0x9e3779b97f4a7c15 + (h << 6) + (h >> 2)
		h ^= h >> 30
		h *= 0xbf58476d1ce4e5b9
		h ^= h >> 27
		h *= 0x94d049bb133111eb
		h ^= h >> 31
	}
	return h
}

// newRand returns a deterministic generator for one stream of a seed.
func newRand(seed uint64, stream string) *rand.Rand {
	return rand.New(rand.NewPCG(seed, mix(seed, strHash(stream))))
}

func strHash(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

// fieldKind says how a logical field's values are generated.
type fieldKind int

const (
	kindKey  fieldKind = iota // the entity key: an int
	kindRef                   // a reference to an entity of another source: an int
	kindText                  // a string that starts with a letter
	kindNum                   // an int
)

// field is one logical column of a source. Its attribute name may
// change from release to release; its values never do.
type field struct {
	base    string
	kind    fieldKind
	feature string // global feature IRI the mapping links it to ("" = unmapped)
	refN    int    // kindRef: number of entities of the referenced source
}

// source is a synthetic data source: a set of entities with logical
// fields, published as a sequence of releases (schema versions).
type source struct {
	id       string
	seed     uint64
	concept  string // concept IRI the source's mappings cover
	fields   []field
	releases []*release
}

// release is one schema version of a source: one wrapper, one provider
// path, one payload format, and the entities it serves.
type release struct {
	src     *source
	version int // 1-based
	name    string
	format  string   // json, xml or csv
	attrs   []string // attribute name per field index; "" = field absent
	keys    []int    // entity keys served, ascending
	changes []string // expected change descriptions versus the previous release
	// mapped lists the field indexes the release's LAV mapping links.
	mapped []int
	// extraFeature is the feature a governance release adds for a new
	// attribute ("" when the release adds none).
	extraFeature string
}

func (r *release) path() string {
	return fmt.Sprintf("/s/%s/v%d.%s", r.src.id, r.version, r.format)
}

// value renders field f of entity e. Ints render in decimal, which is
// also how the server renders them back, so expected answers are the
// strings produced here.
func (s *source) value(f, e int) string {
	fd := s.fields[f]
	h := mix(s.seed, strHash(s.id), uint64(f), uint64(e))
	switch fd.kind {
	case kindKey:
		return strconv.Itoa(e)
	case kindRef:
		return strconv.Itoa(int(h % uint64(fd.refN)))
	case kindText:
		return fmt.Sprintf("%s_e%d_%05x", fd.base, e, h&0xfffff)
	default:
		return strconv.Itoa(int(h % 100000))
	}
}

// ref returns the referenced entity of e through field f.
func (s *source) ref(f, e int) int {
	v, _ := strconv.Atoi(s.value(f, e))
	return v
}

// evolution is the schema change one release applies to its predecessor.
type evolution struct {
	rename int    // field index to rename, or -1
	add    *field // field to add, or nil
}

// buildReleases derives a source's releases from its initial fields
// and a change per later release. Each rename gives the field the name
// base_vN; each addition appends a field. keysOf picks the entities a
// release serves.
func (s *source) buildReleases(n int, evolve func(v int) evolution, formatOf func(v int) string, keysOf func(v int) []int) {
	attrs := make([]string, len(s.fields))
	for i, f := range s.fields {
		attrs[i] = f.base
	}
	for v := 1; v <= n; v++ {
		r := &release{src: s, version: v, name: fmt.Sprintf("%s_v%d", s.id, v), format: formatOf(v), keys: keysOf(v)}
		if v > 1 {
			ev := evolve(v)
			switch {
			case ev.rename >= 0:
				old := attrs[ev.rename]
				attrs[ev.rename] = fmt.Sprintf("%s_v%d", s.fields[ev.rename].base, v)
				r.changes = []string{fmt.Sprintf("renamed %s -> %s", old, attrs[ev.rename])}
			case ev.add != nil:
				s.fields = append(s.fields, *ev.add)
				attrs = append(attrs, ev.add.base)
				r.changes = []string{"added " + ev.add.base}
				r.extraFeature = ev.add.feature
			}
		}
		r.attrs = append([]string(nil), attrs...)
		s.releases = append(s.releases, r)
	}
}

// signature renders the wrapper signature the server extracts: the
// attribute names sorted, in the paper's w(a1, ..., an) notation.
func (r *release) signature() string {
	names := r.attrNames()
	sort.Strings(names)
	return r.name + "(" + strings.Join(names, ", ") + ")"
}

func (r *release) attrNames() []string {
	var out []string
	for _, a := range r.attrs {
		if a != "" {
			out = append(out, a)
		}
	}
	return out
}

// sameAs returns the release's mapping links: attribute -> feature IRI.
func (r *release) sameAs() map[string]string {
	out := map[string]string{}
	for _, f := range r.mapped {
		if f < len(r.attrs) && r.attrs[f] != "" {
			out[r.attrs[f]] = r.src.fields[f].feature
		}
	}
	return out
}
