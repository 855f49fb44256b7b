package sparql

import (
	"cmp"
	"math/bits"
	"slices"
	"strconv"
	"strings"

	"mdm/internal/rdf"
)

// This file holds the result orders and the two barriers that impose
// them. There are two orders over terms:
//
//   - The ORDER BY order (compareOrder), also used by MIN/MAX: IRIs <
//     blank nodes < numeric literals < other literals. A literal is
//     numeric when strconv.ParseFloat accepts its lexical form; numeric
//     literals compare by value, with NaN before every other number and
//     numerically equal literals ("1", "1.0", "+1") tied. IRIs, blank
//     nodes and non-numeric literals compare by rdf.Compare. Distinct
//     terms tie only when they are numerically equal, so the order is a
//     strict weak order: irreflexive, transitive, with transitive ties.
//   - The canonical order, used when a query has no ORDER BY: plain
//     rdf.Compare, which ties only identical terms.
//
// A row order (rowOrder) compares key columns left to right, unbound
// first, each column ascending or descending (a descending column also
// puts unbound last). Both barriers break remaining ties by input
// position, so ORDER BY is a stable sort:
//
//   - sortIter, the full barrier, ranks the distinct key IDs once and
//     sorts packed integer keys (ranks, then the row index);
//   - topKIter, the bounded barrier, keeps the k smallest rows under
//     (order, input sequence) in a max-heap, so its output is exactly
//     the first k rows the full barrier would emit.

// Term classes in ascending order. clsUnbound only appears as a key of
// an unbound column.
const (
	clsUnbound uint8 = iota
	clsIRI
	clsBlank
	clsNumber
	clsLiteral
)

// ordKey is a term's position under the ORDER BY order as far as it can
// be told without the term itself: its class and, for numbers, its value.
// Terms of one class other than numbers compare by rdf.Compare.
type ordKey struct {
	cls uint8
	f   float64
}

// orderKey classifies t. It checks the kind before any parse, and it
// never calls strconv.ParseFloat on a form that cannot parse, because a
// failed ParseFloat allocates its error: classification allocates
// nothing unless the lexical form is numeric syntax out of float64's
// range (say "1e400"), which is not a number under this order.
func orderKey(t rdf.Term) ordKey {
	switch t.Kind {
	case rdf.KindIRI:
		return ordKey{cls: clsIRI}
	case rdf.KindBlank:
		return ordKey{cls: clsBlank}
	}
	if mayParseFloat(t.Value) {
		if f, err := strconv.ParseFloat(t.Value, 64); err == nil {
			return ordKey{cls: clsNumber, f: f}
		}
	}
	return ordKey{cls: clsLiteral}
}

// cmpKeyed compares two terms given their keys (see orderKey).
func cmpKeyed(ka ordKey, a rdf.Term, kb ordKey, b rdf.Term) int {
	switch {
	case ka.cls != kb.cls:
		return cmp.Compare(ka.cls, kb.cls)
	case ka.cls == clsNumber:
		return cmp.Compare(ka.f, kb.f) // NaN first; -0 ties 0
	}
	return rdf.Compare(a, b)
}

// compareOrder is the ORDER BY term order (see the top of this file).
func compareOrder(a, b rdf.Term) int {
	return cmpKeyed(orderKey(a), a, orderKey(b), b)
}

// legacyCompareOrder is the comparator ORDER BY used before the order
// was made total: numeric when both sides parse, else rdf.Compare. It is
// not transitive ("9" < "10" < "5x" < "9"); it exists only for the
// mutOrderNonTransitive mutation check.
func legacyCompareOrder(a, b rdf.Term) int {
	ka, kb := orderKey(a), orderKey(b)
	if ka.cls == clsNumber && kb.cls == clsNumber {
		return cmp.Compare(ka.f, kb.f)
	}
	return rdf.Compare(a, b)
}

// mayParseFloat reports whether strconv.ParseFloat might accept s. It
// never rejects a string ParseFloat accepts (FuzzOrderTotal checks
// that), and it rejects every string that is not number-shaped: an
// optional sign, then "inf"/"infinity" (any case), "nan" (unsigned), or
// digits, dots and underscores with a decimal exponent, or the same
// after a 0x prefix with hex digits and a binary exponent.
func mayParseFloat(s string) bool {
	t := s
	if t != "" && (t[0] == '+' || t[0] == '-') {
		t = t[1:]
	}
	if t == "" {
		return false
	}
	switch t[0] | 0x20 {
	case 'i':
		return strings.EqualFold(t, "inf") || strings.EqualFold(t, "infinity")
	case 'n':
		return len(t) == len(s) && strings.EqualFold(t, "nan")
	}
	hex := len(t) > 2 && t[0] == '0' && t[1]|0x20 == 'x'
	if hex {
		t = t[2:]
	}
	for i := 0; i < len(t); i++ {
		c := t[i]
		switch {
		case '0' <= c && c <= '9', c == '.', c == '_', c == '+', c == '-':
		case hex && ('a' <= c|0x20 && c|0x20 <= 'f' || c|0x20 == 'p'):
		case !hex && c|0x20 == 'e':
		default:
			return false
		}
	}
	return true
}

// rowOrder is an order over rows: the key columns slots, compared left
// to right. numeric selects the ORDER BY term order (else canonical);
// desc, when non-nil, reverses individual columns.
type rowOrder struct {
	e       *evaluator
	slots   []int
	desc    []bool
	numeric bool
}

// keys writes the ordKeys of row's key columns into dst. Only the
// ORDER BY order keys terms; canonical rows compare by rdf.Compare.
func (o *rowOrder) keys(dst []ordKey, row []rdf.TermID) {
	for c, s := range o.slots {
		if id := row[s]; id != unboundID {
			dst[c] = orderKey(o.e.term(id))
		} else {
			dst[c] = ordKey{}
		}
	}
}

// cmpRows compares rows a and b with keys ka and kb (nil under the
// canonical order).
func (o *rowOrder) cmpRows(a, b []rdf.TermID, ka, kb []ordKey) int {
	for c, s := range o.slots {
		x, y := a[s], b[s]
		if x == y {
			continue
		}
		var r int
		switch {
		case x == unboundID:
			r = -1
		case y == unboundID:
			r = 1
		case !o.numeric:
			r = rdf.Compare(o.e.term(x), o.e.term(y))
		default:
			r = cmpKeyed(ka[c], o.e.term(x), kb[c], o.e.term(y))
		}
		if r != 0 {
			if o.desc != nil && o.desc[c] {
				return -r
			}
			return r
		}
	}
	return 0
}

// rankedID is a distinct key ID with its key, ranked by sortRows.
type rankedID struct {
	id rdf.TermID
	k  ordKey
}

// sortRows stable-sorts rows under the order without comparing terms
// row by row: the distinct IDs of the key columns are ranked once (tied
// IDs share a rank, unbound is rank 0), and the rows then sort on
// integer ranks, with the row index as the final tie-break.
func (o *rowOrder) sortRows(rows [][]rdf.TermID) {
	if len(rows) < 2 || len(o.slots) == 0 {
		return
	}
	e := o.e
	var maxID rdf.TermID
	for _, r := range rows {
		for _, s := range o.slots {
			if id := r[s]; id != unboundID && id > maxID {
				maxID = id
			}
		}
	}
	// Rank storage is O(result) no matter how large the dictionary is:
	// a dense ID-indexed slice when the ID range is in the same
	// ballpark as the result's cell count (it wins on constant
	// factors), a map otherwise (a few rows over a huge dictionary must
	// not allocate dictionary-sized arrays). Ranks are 1-based; 0 marks
	// an ID not seen yet.
	cells := len(rows) * len(o.slots)
	dense := int(maxID) <= 4*cells+1024
	var rankD []uint32
	var rankM map[rdf.TermID]uint32
	if dense {
		rankD = make([]uint32, int(maxID)+1)
	} else {
		rankM = make(map[rdf.TermID]uint32, cells)
	}
	distinct := make([]rdf.TermID, 0, 64)
	for _, r := range rows {
		for _, s := range o.slots {
			id := r[s]
			if id == unboundID {
				continue
			}
			if dense {
				if rankD[id] == 0 {
					rankD[id] = 1
					distinct = append(distinct, id)
				}
			} else if _, ok := rankM[id]; !ok {
				rankM[id] = 1
				distinct = append(distinct, id)
			}
		}
	}
	setRank := func(id rdf.TermID, r uint32) {
		if dense {
			rankD[id] = r
		} else {
			rankM[id] = r
		}
	}
	var nRanks uint32
	if !o.numeric {
		// rdf.Compare ties no two distinct IDs: the dictionary is a
		// bijection over terms.
		slices.SortFunc(distinct, func(a, b rdf.TermID) int { return rdf.Compare(e.term(a), e.term(b)) })
		for i, id := range distinct {
			setRank(id, uint32(i+1))
		}
		nRanks = uint32(len(distinct))
	} else {
		// Key each distinct ID once; numerically equal IDs share a rank.
		ranked := make([]rankedID, len(distinct))
		for i, id := range distinct {
			ranked[i] = rankedID{id: id, k: orderKey(e.term(id))}
		}
		cmpID := func(a, b rankedID) int { return cmpKeyed(a.k, e.term(a.id), b.k, e.term(b.id)) }
		if mutation == mutOrderNonTransitive {
			cmpID = func(a, b rankedID) int { return legacyCompareOrder(e.term(a.id), e.term(b.id)) }
		}
		slices.SortFunc(ranked, cmpID)
		for i, d := range ranked {
			if i == 0 || cmpID(ranked[i-1], d) != 0 {
				nRanks++
			}
			setRank(d.id, nRanks)
		}
	}
	// colRank is a cell's rank in its column's direction: ascending
	// puts unbound (0) first, descending maps rank r to nRanks+1-r,
	// which puts unbound last.
	colRank := func(c int, id rdf.TermID) uint64 {
		var r uint32
		if id != unboundID {
			if dense {
				r = rankD[id]
			} else {
				r = rankM[id]
			}
		}
		if o.desc != nil && o.desc[c] {
			r = nRanks + 1 - r
		}
		return uint64(r)
	}
	// Sort integers: when the column ranks and a row index pack into 64
	// bits (it takes > 20 key columns or > 2^60 result cells not to),
	// the comparison is one machine word; otherwise sort row indexes by
	// their rank vectors, then index. Either way the key's low bits name
	// the row to permute into place.
	n := len(rows)
	keys := make([]uint64, n)
	idxBits := bits.Len(uint(n - 1))
	keyBits := bits.Len(uint(nRanks + 1))
	mask := ^uint64(0)
	if len(o.slots)*keyBits+idxBits <= 64 {
		for i, r := range rows {
			k := uint64(0)
			for c, s := range o.slots {
				k = k<<keyBits | colRank(c, r[s])
			}
			keys[i] = k<<idxBits | uint64(i)
		}
		slices.Sort(keys)
		mask = uint64(1)<<idxBits - 1
	} else {
		for i := range keys {
			keys[i] = uint64(i)
		}
		slices.SortFunc(keys, func(a, b uint64) int {
			ra, rb := rows[a], rows[b]
			for c, s := range o.slots {
				if d := cmp.Compare(colRank(c, ra[s]), colRank(c, rb[s])); d != 0 {
					return d
				}
			}
			return cmp.Compare(a, b)
		})
	}
	// Sorted position i must receive rows[keys[i]&mask]. Apply that
	// permutation in place by walking its cycles, overwriting each
	// visited index bits with the identity to mark the slot done.
	for i := range keys {
		j := int(keys[i] & mask)
		if j == i {
			continue
		}
		tmp, cur := rows[i], i
		for j != i {
			rows[cur] = rows[j]
			keys[cur] = keys[cur]&^mask | uint64(cur)
			cur = j
			j = int(keys[cur] & mask)
		}
		rows[cur] = tmp
		keys[cur] = keys[cur]&^mask | uint64(cur)
	}
}

// sortIter is the full order barrier: it drains its input, copying each
// row (after DISTINCT over the key columns when distinct is set, which
// only the canonical order asks for), sorts the rows and streams them.
type sortIter struct {
	ord      rowOrder
	src      rowIter
	distinct bool

	filled bool
	rows   [][]rdf.TermID
	pos    int
}

func (it *sortIter) next() []rdf.TermID {
	e := it.ord.e
	if !it.filled {
		it.filled = true
		var seen map[string]struct{}
		var key []byte
		if it.distinct {
			seen = map[string]struct{}{}
			key = make([]byte, 0, 4*len(it.ord.slots))
		}
		for {
			row := it.src.next()
			if row == nil {
				break
			}
			if it.distinct {
				key = appendRowKey(key[:0], row, it.ord.slots)
				if _, dup := seen[string(key)]; dup {
					continue
				}
				seen[string(key)] = struct{}{}
			}
			it.rows = append(it.rows, e.extend(row))
		}
		if e.err != nil {
			return nil
		}
		it.ord.sortRows(it.rows)
	}
	if e.err != nil || it.pos >= len(it.rows) {
		return nil
	}
	r := it.rows[it.pos]
	it.pos++
	return r
}

// topKIter is the bounded order barrier: while draining its input it
// keeps the k smallest rows under (order, input sequence) in a max-heap
// of slots, then streams them in order. Its output equals the first k
// rows of sortIter over the same input. With distinct (canonical order
// only) a row identical in the key columns to a retained row is
// dropped. Memory and allocation are O(k): a rejected row is neither
// copied nor keyed twice, and an evicted row's copy is reused.
type topKIter struct {
	ord      rowOrder
	src      rowIter
	k        int
	distinct bool

	filled bool
	slots  []topSlot
	keys   []ordKey // slot*len(ord.slots)+column -> key (ORDER BY order)
	heap   []int32  // slot numbers, greatest row first
	in     []ordKey // keys of the incoming row
	seen   map[string]struct{}
	key    []byte
	pos    int
}

// topSlot is a retained row and its input position.
type topSlot struct {
	row []rdf.TermID
	seq int
}

func (it *topKIter) next() []rdf.TermID {
	e := it.ord.e
	if !it.filled {
		it.filled = true
		if it.k > 0 { // k == 0: empty page, skip evaluation entirely
			it.fill()
		}
		if e.err != nil {
			return nil
		}
		// Emit in order: sort the retained slots ascending.
		slices.SortFunc(it.heap, it.cmpSlots)
	}
	if e.err != nil || it.pos >= len(it.heap) {
		return nil
	}
	r := it.slots[it.heap[it.pos]].row
	it.pos++
	return r
}

func (it *topKIter) fill() {
	e, nk := it.ord.e, len(it.ord.slots)
	// Capacity for small pages up front; a page deep into a large
	// result grows on demand.
	c := min(it.k, 64)
	it.slots, it.heap = make([]topSlot, 0, c), make([]int32, 0, c)
	if it.ord.numeric {
		it.in = make([]ordKey, nk)
		it.keys = make([]ordKey, 0, c*nk)
	}
	if it.distinct {
		it.seen = map[string]struct{}{}
	}
	for seq := 0; ; seq++ {
		row := it.src.next()
		if row == nil {
			return
		}
		if it.in != nil {
			it.ord.keys(it.in, row)
		}
		full := len(it.heap) == it.k
		// Ties with the greatest retained row lose: they come later.
		if full && it.ord.cmpRows(row, it.slots[it.heap[0]].row, it.in, it.slotKeys(it.heap[0])) >= 0 {
			continue
		}
		if it.distinct {
			it.key = appendRowKey(it.key[:0], row, it.ord.slots)
			if _, dup := it.seen[string(it.key)]; dup {
				continue
			}
			it.seen[string(it.key)] = struct{}{}
		}
		var slot int32
		if full {
			slot = it.heap[0]
			if it.distinct {
				it.key = appendRowKey(it.key[:0], it.slots[slot].row, it.ord.slots)
				delete(it.seen, string(it.key))
			}
			e.release(it.slots[slot].row)
			it.slots[slot] = topSlot{row: e.extend(row), seq: seq}
		} else {
			slot = int32(len(it.slots))
			it.slots = append(it.slots, topSlot{row: e.extend(row), seq: seq})
			if it.in != nil {
				it.keys = append(it.keys, make([]ordKey, nk)...)
			}
			it.heap = append(it.heap, slot)
		}
		copy(it.slotKeys(slot), it.in)
		if full {
			it.siftDown(0)
		} else {
			it.siftUp(len(it.heap) - 1)
		}
	}
}

// slotKeys returns the keys of a retained row (nil under the canonical
// order).
func (it *topKIter) slotKeys(slot int32) []ordKey {
	if it.in == nil {
		return nil
	}
	n := len(it.ord.slots)
	return it.keys[int(slot)*n : int(slot+1)*n]
}

// cmpSlots orders retained rows by (order, input sequence).
func (it *topKIter) cmpSlots(a, b int32) int {
	sa, sb := &it.slots[a], &it.slots[b]
	if c := it.ord.cmpRows(sa.row, sb.row, it.slotKeys(a), it.slotKeys(b)); c != 0 || mutation == mutTopKNoSeq {
		return c
	}
	return cmp.Compare(sa.seq, sb.seq)
}

func (it *topKIter) siftUp(i int) {
	h := it.heap
	for i > 0 {
		p := (i - 1) / 2
		if it.cmpSlots(h[i], h[p]) <= 0 {
			return
		}
		h[i], h[p] = h[p], h[i]
		i = p
	}
}

func (it *topKIter) siftDown(i int) {
	h := it.heap
	for {
		m, l, r := i, 2*i+1, 2*i+2
		if l < len(h) && it.cmpSlots(h[l], h[m]) > 0 {
			m = l
		}
		if r < len(h) && it.cmpSlots(h[r], h[m]) > 0 {
			m = r
		}
		if m == i {
			return
		}
		h[i], h[m] = h[m], h[i]
		i = m
	}
}
