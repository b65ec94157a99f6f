package relation

import (
	"fmt"
	"sort"
	"strconv"
)

// Relation is a set of same-arity tuples with optional hash indexes on
// column subsets. Insertion is set-semantics: duplicates are ignored.
// Scans and index probes charge the relation's Meter one retrieval per
// tuple produced.
//
// Internally every stored constant is interned into a dense int32 id
// (see symtab), and all hash structures — the membership set, the
// index buckets — are keyed by fixed-width integer encodings of those
// ids: a packed uint64 for width ≤ 2, a compact byte string for wider
// rows. The hot paths (Insert dedup, Contains, index probes) therefore
// allocate nothing and never re-encode a value as a string.
type Relation struct {
	name   string
	arity  int
	meter  *Meter
	syms   *symtab
	tuples []Tuple
	ids    []int32 // interned image of tuples: arity ids per tuple

	present  *intSet             // membership, arity <= 2
	presentW map[string]struct{} // membership, arity >= 3

	indexes  map[uint64]*index // keyed by packed col spec (<= 8 cols)
	indexesW map[string]*index // rare wide specs (> 8 cols)
	ixList   []*index          // all indexes, flat for Insert's update loop

	arena  []Value // current chunk backing stored tuples
	frozen bool    // read-only: no inserts, no lazy index builds
}

type index struct {
	cols     []int
	buckets  map[uint64][]int32 // key over cols -> tuple positions, <= 2 cols
	bucketsW map[string][]int32 // wider keys
}

// wideBufCap sizes the stack scratch used to build wide keys: rows up
// to 16 columns encode without a heap allocation.
const wideBufCap = 64

// New creates an empty relation with the given name and arity, charging
// retrievals to meter (which may be nil for an unmetered relation). The
// relation owns a private symbol table; relations created through a
// Store share the store's table instead.
func New(name string, arity int, meter *Meter) *Relation {
	return newRelation(name, arity, meter, newSymtab())
}

func newRelation(name string, arity int, meter *Meter, syms *symtab) *Relation {
	if arity < 0 {
		panic("relation: negative arity for " + name)
	}
	r := &Relation{
		name:    name,
		arity:   arity,
		meter:   meter,
		syms:    syms,
		indexes: make(map[uint64]*index),
	}
	if arity <= 2 {
		r.present = newIntSet()
	} else {
		r.presentW = make(map[string]struct{})
	}
	return r
}

// Name returns the relation's name.
func (r *Relation) Name() string { return r.name }

// Arity returns the number of columns.
func (r *Relation) Arity() int { return r.arity }

// Len returns the number of tuples.
func (r *Relation) Len() int { return len(r.tuples) }

// Meter returns the meter charged by this relation's access paths.
func (r *Relation) Meter() *Meter { return r.meter }

// SetMeter redirects this relation's cost accounting to m.
func (r *Relation) SetMeter(m *Meter) { r.meter = m }

// Freeze marks the relation read-only. A frozen relation is safe for
// concurrent readers: Insert panics, and Lookup never builds an index
// lazily — a probe with no prebuilt index falls back to a filtered
// scan instead of mutating the index map. Build any hot-path indexes
// with EnsureIndex before freezing. Freezing is irreversible.
func (r *Relation) Freeze() { r.frozen = true }

// Frozen reports whether the relation has been frozen.
func (r *Relation) Frozen() bool { return r.frozen }

// narrowKey packs up to two ids into a uint64. Each membership or
// bucket map belongs to exactly one fixed width, so 0-, 1-, and 2-id
// encodings can never meet in the same map and need no tagging.
func narrowKey(ids []int32) uint64 {
	switch len(ids) {
	case 0:
		return 0
	case 1:
		return uint64(uint32(ids[0]))
	default:
		return uint64(uint32(ids[0]))<<32 | uint64(uint32(ids[1]))
	}
}

// appendWide encodes ids as fixed 4-byte words onto b. The encoding is
// injective per width, which is all a single map requires.
func appendWide(b []byte, ids []int32) []byte {
	for _, id := range ids {
		u := uint32(id)
		b = append(b, byte(u), byte(u>>8), byte(u>>16), byte(u>>24))
	}
	return b
}

// Insert adds t to the relation if not already present and reports
// whether it was new. The tuple is copied, so callers may reuse t.
func (r *Relation) Insert(t Tuple) bool {
	if r.frozen {
		panic("relation: Insert into frozen relation " + r.name)
	}
	if len(t) != r.arity {
		panic(fmt.Sprintf("relation: %s has arity %d, inserting %d-tuple %v", r.name, r.arity, len(t), t))
	}
	// Intern into the tail of r.ids, rolled back if t is a duplicate.
	// Appending before the dedup probe lets the probe key slice the
	// flat storage instead of a temporary.
	base := len(r.ids)
	for _, v := range t {
		r.ids = append(r.ids, r.syms.intern(v))
	}
	ids := r.ids[base:]
	if r.present != nil {
		if !r.present.add(narrowKey(ids)) {
			r.ids = r.ids[:base]
			return false
		}
	} else {
		var buf [wideBufCap]byte
		b := appendWide(buf[:0], ids)
		if _, dup := r.presentW[string(b)]; dup {
			r.ids = r.ids[:base]
			return false
		}
		r.presentW[string(b)] = struct{}{}
	}
	pos := int32(len(r.tuples))
	r.tuples = append(r.tuples, r.cloneStored(t))
	for _, ix := range r.ixList {
		ix.insert(ids, pos)
	}
	return true
}

// arenaChunkMax caps the storage chunk size. Chunks start small (so a
// two-tuple delta relation does not pin kilobytes) and double per
// chunk, keeping both the waste and the allocation count within a
// constant factor of the stored data.
const arenaChunkMax = 1024

// cloneStored copies t into the relation's chunked arena and returns a
// capacity-capped slice of the chunk, so later appends can never
// scribble past a stored tuple. Full chunks are simply abandoned to
// the tuples that reference them.
func (r *Relation) cloneStored(t Tuple) Tuple {
	if len(r.arena)+len(t) > cap(r.arena) {
		n := 2 * cap(r.arena)
		if n > arenaChunkMax {
			n = arenaChunkMax
		}
		if n < 16 {
			n = 16
		}
		if n < len(t) {
			n = len(t)
		}
		r.arena = make([]Value, 0, n)
	}
	base := len(r.arena)
	r.arena = append(r.arena, t...)
	return Tuple(r.arena[base : base+len(t) : base+len(t)])
}

// insert files the row at pos under its bucket key.
func (ix *index) insert(ids []int32, pos int32) {
	if ix.buckets != nil {
		var kbuf [2]int32
		k := narrowKey(subIDs(kbuf[:0], ids, ix.cols))
		ix.buckets[k] = append(ix.buckets[k], pos)
		return
	}
	var buf [wideBufCap]byte
	var kbuf [16]int32
	k := string(appendWide(buf[:0], subIDs(kbuf[:0], ids, ix.cols)))
	ix.bucketsW[k] = append(ix.bucketsW[k], pos)
}

// subIDs gathers ids at the given columns onto dst.
func subIDs(dst []int32, ids []int32, cols []int) []int32 {
	for _, c := range cols {
		dst = append(dst, ids[c])
	}
	return dst
}

// InsertValues is Insert on a tuple built from vs.
func (r *Relation) InsertValues(vs ...Value) bool { return r.Insert(Tuple(vs)) }

// Contains reports whether t is in the relation. It charges one
// retrieval (the probe fetches the matching tuple, if any).
func (r *Relation) Contains(t Tuple) bool {
	r.meter.Add(1)
	var buf [16]int32
	ids, ok := r.resolve(buf[:0], t)
	if !ok {
		return false
	}
	if r.present != nil {
		return r.present.has(narrowKey(ids))
	}
	var bbuf [wideBufCap]byte
	_, ok = r.presentW[string(appendWide(bbuf[:0], ids))]
	return ok
}

// resolve maps vals to their interned ids without interning: a miss
// proves the value is stored nowhere in this relation's symbol table,
// so the caller can answer "no match" immediately.
func (r *Relation) resolve(dst []int32, vals []Value) ([]int32, bool) {
	for _, v := range vals {
		id, ok := r.syms.lookup(v)
		if !ok {
			return nil, false
		}
		dst = append(dst, id)
	}
	return dst, true
}

// Scan calls fn for every tuple, charging one retrieval each. fn must
// not modify the tuple. Returning false from fn stops the scan early.
func (r *Relation) Scan(fn func(Tuple) bool) {
	for _, t := range r.tuples {
		r.meter.Add(1)
		if !fn(t) {
			return
		}
	}
}

// Tuples returns a copy of the stored tuple list in insertion order,
// uncharged. The returned slice is the caller's; the tuples themselves
// are shared with the relation and must not be mutated. It is intended
// for result extraction and tests, not for evaluation joins.
func (r *Relation) Tuples() []Tuple {
	out := make([]Tuple, len(r.tuples))
	copy(out, r.tuples)
	return out
}

// SortedTuples returns a sorted copy of the tuples, for deterministic
// output.
func (r *Relation) SortedTuples() []Tuple {
	out := make([]Tuple, len(r.tuples))
	copy(out, r.tuples)
	sort.Slice(out, func(i, j int) bool { return out[i].Less(out[j]) })
	return out
}

// specKey packs a column list into a uint64 map key, one byte per
// column. Specs longer than 8 columns (or with column numbers ≥ 255)
// fall back to the string form, kept in a separate map so the two
// encodings never collide.
func specKey(cols []int) (uint64, bool) {
	if len(cols) > 8 {
		return 0, false
	}
	var k uint64
	for _, c := range cols {
		if c >= 255 {
			return 0, false
		}
		k = k<<8 | uint64(c+1)
	}
	return k, true
}

// findIndex returns the index on exactly this column list, if built.
func (r *Relation) findIndex(cols []int) *index {
	if k, ok := specKey(cols); ok {
		return r.indexes[k]
	}
	if r.indexesW == nil {
		return nil
	}
	return r.indexesW[colSpec(cols)]
}

// EnsureIndex builds (once) a hash index on the given columns.
func (r *Relation) EnsureIndex(cols ...int) {
	if r.findIndex(cols) != nil {
		return
	}
	if r.frozen {
		panic("relation: EnsureIndex on frozen relation " + r.name)
	}
	for _, c := range cols {
		if c < 0 || c >= r.arity {
			panic(fmt.Sprintf("relation: index column %d out of range for %s/%d", c, r.name, r.arity))
		}
	}
	ix := &index{cols: append([]int(nil), cols...)}
	if len(cols) <= 2 {
		ix.buckets = make(map[uint64][]int32)
	} else {
		ix.bucketsW = make(map[string][]int32)
	}
	for pos := range r.tuples {
		ix.insert(r.row(pos), int32(pos))
	}
	r.ixList = append(r.ixList, ix)
	if k, ok := specKey(cols); ok {
		r.indexes[k] = ix
		return
	}
	if r.indexesW == nil {
		r.indexesW = make(map[string]*index)
	}
	r.indexesW[colSpec(cols)] = ix
}

// row returns the interned id row of tuple pos.
func (r *Relation) row(pos int) []int32 {
	return r.ids[pos*r.arity : (pos+1)*r.arity]
}

// Lookup calls fn for every tuple whose cols match vals, charging one
// retrieval per tuple produced. It uses a hash index, building one on
// first use. Returning false from fn stops the lookup early.
func (r *Relation) Lookup(cols []int, vals []Value, fn func(Tuple) bool) {
	if len(cols) != len(vals) {
		panic("relation: Lookup cols/vals length mismatch on " + r.name)
	}
	if len(cols) == 0 {
		r.Scan(fn)
		return
	}
	ix := r.findIndex(cols)
	if ix == nil {
		if r.frozen {
			// No lazy build on a frozen relation: a filtered scan keeps
			// concurrent readers mutation-free at the cost of one
			// retrieval per matching tuple, exactly as an index probe
			// charges.
			r.scanMatch(cols, vals, fn)
			return
		}
		r.EnsureIndex(cols...)
		ix = r.findIndex(cols)
	}
	var buf [16]int32
	pids, ok := r.resolve(buf[:0], vals)
	if !ok {
		return // a probe value stored nowhere matches nothing
	}
	var positions []int32
	if ix.buckets != nil {
		positions = ix.buckets[narrowKey(pids)]
	} else {
		var bbuf [wideBufCap]byte
		positions = ix.bucketsW[string(appendWide(bbuf[:0], pids))]
	}
	for _, pos := range positions {
		r.meter.Add(1)
		if !fn(r.tuples[pos]) {
			return
		}
	}
}

// scanMatch is Lookup's index-free fallback: a full scan filtered on
// cols = vals, charging one retrieval per matching tuple. The filter
// compares interned ids, so an unresolvable probe value matches
// nothing (uncharged, like an empty bucket) and resolvable ones cost
// an integer compare per row instead of a Value compare.
func (r *Relation) scanMatch(cols []int, vals []Value, fn func(Tuple) bool) {
	var buf [16]int32
	pids, ok := r.resolve(buf[:0], vals)
	if !ok {
		return
	}
	arity := r.arity
	for pos := range r.tuples {
		row := r.ids[pos*arity : pos*arity+arity]
		match := true
		for i, c := range cols {
			if row[c] != pids[i] {
				match = false
				break
			}
		}
		if !match {
			continue
		}
		r.meter.Add(1)
		if !fn(r.tuples[pos]) {
			return
		}
	}
}

// snapshot returns a frozen copy charging to meter, resolving symbols
// through syms (the snapshot owner's cloned table). It shares the
// (append-only) tuple and id storage with r but owns its membership
// and index maps, so later inserts into r never touch the snapshot.
func (r *Relation) snapshot(meter *Meter, syms *symtab) *Relation {
	c := &Relation{
		name:    r.name,
		arity:   r.arity,
		meter:   meter,
		syms:    syms,
		tuples:  r.tuples[:len(r.tuples):len(r.tuples)],
		ids:     r.ids[:len(r.ids):len(r.ids)],
		indexes: make(map[uint64]*index, len(r.indexes)),
		frozen:  true,
	}
	if r.present != nil {
		c.present = r.present.clone()
	} else {
		c.presentW = make(map[string]struct{}, len(r.presentW))
		for k := range r.presentW {
			c.presentW[k] = struct{}{}
		}
	}
	for spec, ix := range r.indexes {
		cx := ix.clone()
		c.indexes[spec] = cx
		c.ixList = append(c.ixList, cx)
	}
	if len(r.indexesW) > 0 {
		c.indexesW = make(map[string]*index, len(r.indexesW))
		for spec, ix := range r.indexesW {
			cx := ix.clone()
			c.indexesW[spec] = cx
			c.ixList = append(c.ixList, cx)
		}
	}
	return c
}

// clone copies the index with capped bucket slices, so appends in the
// original allocate fresh backing instead of scribbling on the copy.
func (ix *index) clone() *index {
	c := &index{cols: append([]int(nil), ix.cols...)}
	if ix.buckets != nil {
		c.buckets = make(map[uint64][]int32, len(ix.buckets))
		for k, pos := range ix.buckets {
			c.buckets[k] = pos[:len(pos):len(pos)]
		}
	} else {
		c.bucketsW = make(map[string][]int32, len(ix.bucketsW))
		for k, pos := range ix.bucketsW {
			c.bucketsW[k] = pos[:len(pos):len(pos)]
		}
	}
	return c
}

// MatchCount returns how many tuples match vals on cols, charging one
// retrieval per matching tuple (they are produced to be counted).
func (r *Relation) MatchCount(cols []int, vals []Value) int {
	n := 0
	r.Lookup(cols, vals, func(Tuple) bool { n++; return true })
	return n
}

// Clone returns a deep copy sharing the meter but not storage or
// indexes.
func (r *Relation) Clone() *Relation {
	c := New(r.name, r.arity, r.meter)
	for _, t := range r.tuples {
		c.Insert(t)
	}
	return c
}

// InsertAll inserts every tuple of s into r and returns how many were
// new. The relations must have equal arity.
func (r *Relation) InsertAll(s *Relation) int {
	if s.arity != r.arity {
		panic(fmt.Sprintf("relation: InsertAll arity mismatch %s/%d vs %s/%d", r.name, r.arity, s.name, s.arity))
	}
	added := 0
	for _, t := range s.tuples {
		if r.Insert(t) {
			added++
		}
	}
	return added
}

// Difference returns the tuples of r not present in s, as a new
// relation named name. Each candidate charges one retrieval from r and
// one membership probe against s.
func (r *Relation) Difference(name string, s *Relation) *Relation {
	out := New(name, r.arity, r.meter)
	r.Scan(func(t Tuple) bool {
		if !s.Contains(t) {
			out.Insert(t)
		}
		return true
	})
	return out
}

// Project returns a new relation named name holding the given columns
// of every tuple, deduplicated. Each source tuple charges one
// retrieval.
func (r *Relation) Project(name string, cols ...int) *Relation {
	out := New(name, len(cols), r.meter)
	r.Scan(func(t Tuple) bool {
		p := make(Tuple, len(cols))
		for i, c := range cols {
			p[i] = t[c]
		}
		out.Insert(p)
		return true
	})
	return out
}

// Select returns the tuples satisfying pred, as a new relation.
func (r *Relation) Select(name string, pred func(Tuple) bool) *Relation {
	out := New(name, r.arity, r.meter)
	r.Scan(func(t Tuple) bool {
		if pred(t) {
			out.Insert(t)
		}
		return true
	})
	return out
}

// Join computes the natural join of r and s on r.cols[i] = s.cols[i],
// emitting r's tuple concatenated with s's tuple, as a new relation.
// Cost: one retrieval per r tuple plus one per matching s tuple.
func (r *Relation) Join(name string, rCols []int, s *Relation, sCols []int) *Relation {
	if len(rCols) != len(sCols) {
		panic("relation: Join column lists differ in length")
	}
	out := New(name, r.arity+s.arity, r.meter)
	vals := make([]Value, len(rCols))
	r.Scan(func(t Tuple) bool {
		for i, c := range rCols {
			vals[i] = t[c]
		}
		s.Lookup(sCols, vals, func(u Tuple) bool {
			j := make(Tuple, 0, len(t)+len(u))
			j = append(j, t...)
			j = append(j, u...)
			out.Insert(j)
			return true
		})
		return true
	})
	return out
}

// SemiJoin returns the tuples of r that have at least one match in s
// on the given columns. Cost: one retrieval per r tuple plus one per
// probe that finds a match.
func (r *Relation) SemiJoin(name string, rCols []int, s *Relation, sCols []int) *Relation {
	if len(rCols) != len(sCols) {
		panic("relation: SemiJoin column lists differ in length")
	}
	out := New(name, r.arity, r.meter)
	vals := make([]Value, len(rCols))
	r.Scan(func(t Tuple) bool {
		for i, c := range rCols {
			vals[i] = t[c]
		}
		matched := false
		s.Lookup(sCols, vals, func(Tuple) bool {
			matched = true
			return false
		})
		if matched {
			out.Insert(t)
		}
		return true
	})
	return out
}

// String summarizes the relation for debugging: name/arity and size.
func (r *Relation) String() string {
	return fmt.Sprintf("%s/%d[%d]", r.name, r.arity, len(r.tuples))
}

// colSpec renders a column list as a string key, used only for the
// rare wide specs that do not fit the packed uint64 form.
func colSpec(cols []int) string {
	b := make([]byte, 0, 2*len(cols))
	for _, c := range cols {
		b = strconv.AppendInt(b, int64(c), 10)
		b = append(b, ',')
	}
	return string(b)
}
