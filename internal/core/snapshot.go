package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
	"sync"
)

// This file is the binary codec for the Compiled artifact, the piece
// of a durable snapshot that makes recovery cheap: the serving layer
// persists the interned symbol tables and the four CSR adjacency
// graphs alongside the raw fact slices, so a restart loads arrays
// instead of re-running Compile's map-heavy interning and arc
// deduplication. The encoding is uvarint-based and versionless on
// purpose — framing, checksums, and the format-version byte belong to
// the snapshot container (internal/durable), not to this payload.

// ErrBadArtifact reports a Compiled payload that fails structural
// validation (offsets out of range, arc ids past their domain).
var ErrBadArtifact = errors.New("core: malformed compiled artifact")

// AppendBinary serializes the artifact onto buf and returns the
// extended slice: generation, both symbol tables, then the four CSR
// graphs (offsets and arcs as uvarints; every value is non-negative).
// The graphs go out in flat CSR layout whatever their pages look like,
// padded to the domain size — snapshots never know (or care) how the
// artifact was built, and an encode/decode round trip of an extended
// artifact is exact.
func (c *Compiled) AppendBinary(buf []byte) []byte {
	w := bytes.NewBuffer(buf)
	c.WriteBinary(w) // writing to a bytes.Buffer cannot fail
	return w.Bytes()
}

// encodeChunk is how many encoded bytes WriteBinary buffers per write.
const encodeChunk = 64 << 10

// WriteBinary streams the AppendBinary encoding to w through a bounded
// buffer, so a large artifact is never held encoded in memory whole.
func (c *Compiled) WriteBinary(w io.Writer) error {
	buf := make([]byte, 0, encodeChunk)
	var err error
	flush := func(atLeast int) {
		if len(buf) >= atLeast {
			if err == nil {
				_, err = w.Write(buf)
			}
			buf = buf[:0]
		}
	}
	buf = binary.AppendUvarint(buf, c.Generation)
	for _, t := range []*names{&c.lNames, &c.rNames} {
		buf = binary.AppendUvarint(buf, uint64(t.n))
		for p := 0; p <= len(t.pages); p++ {
			for _, s := range t.page(p) {
				buf = binary.AppendUvarint(buf, uint64(len(s)))
				buf = append(buf, s...)
			}
			flush(encodeChunk)
		}
	}
	nL, nR := c.lNames.n, c.rNames.n
	for _, gn := range []struct {
		g *csr
		n int
	}{{&c.lOut, nL}, {&c.lIn, nL}, {&c.eOut, nL}, {&c.rOut, nR}} {
		buf = binary.AppendUvarint(buf, uint64(gn.n+1))
		buf = binary.AppendUvarint(buf, 0)
		at := 0
		for x := 0; x < gn.n; x++ {
			at += len(gn.g.row(int32(x)))
			buf = binary.AppendUvarint(buf, uint64(at))
			if x&pageMask == pageMask {
				flush(encodeChunk)
			}
		}
		buf = binary.AppendUvarint(buf, uint64(gn.g.m))
		for x := 0; x < gn.n; x++ {
			for _, v := range gn.g.row(int32(x)) {
				buf = binary.AppendUvarint(buf, uint64(v))
			}
			if x&pageMask == pageMask {
				flush(encodeChunk)
			}
		}
	}
	flush(0)
	return err
}

// DecodeCompiled decodes an artifact produced by AppendBinary from
// the front of data, returning the remaining bytes. The interning
// maps are reconstructed from the decoded name tables, so the result
// is behaviorally identical to the Compile output it was encoded from
// (per-node adjacency order is preserved by the CSR layout). The
// decoded flat arrays become the pages as they are; each name table
// decodes into one string its names slice, and the two interning maps
// are built on goroutines of their own while the graphs decode.
func DecodeCompiled(data []byte) (*Compiled, []byte, error) {
	r := &byteCursor{data: data}
	c := &Compiled{Generation: r.uvarint()}
	lNames := r.stringTable()
	rNames := r.stringTable()
	nL, nR := len(lNames), len(rNames)
	var lid, rid map[string]int32
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { defer wg.Done(); lid = indexNames(lNames) }()
	go func() { defer wg.Done(); rid = indexNames(rNames) }()
	defer wg.Wait() // the error returns below, too, leave no map builder behind
	for i, g := range []*csr{&c.lOut, &c.lIn, &c.eOut, &c.rOut} {
		off := r.int32s()
		m := r.uvarint()
		if r.err != nil {
			break
		}
		nodes, dom := nL, nL
		switch i {
		case 2: // eOut: L-node -> R-nodes
			nodes, dom = nL, nR
		case 3: // rOut: R-node -> R-nodes
			nodes, dom = nR, nR
		}
		if err := validateOffsets(off, nodes, m); err != nil {
			return nil, nil, err
		}
		if m > uint64(len(r.rest())) {
			return nil, nil, fmt.Errorf("%w: %d arcs longer than the payload", ErrBadArtifact, m)
		}
		// The arcs decode straight into the pages, in row order.
		*g = layCSR(off)
		for p := 0; p < (nodes+pageMask)>>pageShift; p++ {
			page := g.page(p)
			for k := page[0]; int(k) < len(page) && r.err == nil; k++ {
				v := r.uvarint()
				if v >= uint64(dom) {
					return nil, nil, fmt.Errorf("%w: arc id %d outside domain %d", ErrBadArtifact, v, dom)
				}
				page[k] = int32(v)
			}
		}
	}
	if r.err != nil {
		return nil, nil, fmt.Errorf("%w: %v", ErrBadArtifact, r.err)
	}
	c.lNames, c.rNames = pagedNames(lNames), pagedNames(rNames)
	wg.Wait()
	c.lid, c.rid = symTable{base: lid}, symTable{base: rid}
	return c, r.rest(), nil
}

// indexNames maps each name to its position in names.
func indexNames(names []string) map[string]int32 {
	m := make(map[string]int32, len(names))
	for i, name := range names {
		m[name] = int32(i)
	}
	return m
}

// validateOffsets checks the structural invariants row() indexes by,
// before any page is laid: one offset per node plus one, non-decreasing
// from 0 to the arc count m. Arc ids are checked against their domain
// as they decode. A corrupted payload must fail here, not panic in a
// solver.
func validateOffsets(off []int32, nodes int, m uint64) error {
	if len(off) != nodes+1 {
		return fmt.Errorf("%w: %d offsets for %d nodes", ErrBadArtifact, len(off), nodes)
	}
	if off[0] != 0 || uint64(off[nodes]) != m {
		return fmt.Errorf("%w: offset bounds [%d..%d] over %d arcs", ErrBadArtifact, off[0], off[nodes], m)
	}
	for i := 1; i < len(off); i++ {
		if off[i] < off[i-1] {
			return fmt.Errorf("%w: decreasing offset at node %d", ErrBadArtifact, i)
		}
	}
	return nil
}

// byteCursor is a tiny error-latching reader over a byte slice; the
// first malformed field poisons every later read, so decode loops can
// check r.err once.
type byteCursor struct {
	data []byte
	off  int
	err  error
}

func (r *byteCursor) fail(msg string) {
	if r.err == nil {
		r.err = errors.New(msg)
	}
}

func (r *byteCursor) uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.data[r.off:])
	if n <= 0 {
		r.fail("truncated uvarint")
		return 0
	}
	r.off += n
	return v
}

// stringTable decodes a table of n (uvarint length | bytes) strings
// into one arena string that every name slices: two allocations per
// table instead of one per name. A first pass validates the lengths and
// sizes the arena, a second copies the bytes, a third slices the names.
func (r *byteCursor) stringTable() []string {
	n := r.uvarint()
	if r.err != nil {
		return nil
	}
	if n > uint64(len(r.data)-r.off) {
		r.fail("string table longer than payload")
		return nil
	}
	start, total := r.off, 0
	for i := uint64(0); i < n; i++ {
		l := r.uvarint()
		if r.err != nil || l > uint64(len(r.data)-r.off) {
			r.fail("truncated string")
			return nil
		}
		r.off += int(l)
		total += int(l)
	}
	var arena strings.Builder
	arena.Grow(total)
	r.off = start
	for i := uint64(0); i < n; i++ {
		l := int(r.uvarint())
		arena.Write(r.data[r.off : r.off+l])
		r.off += l
	}
	all := arena.String()
	out := make([]string, n)
	r.off = start
	at := 0
	for i := range out {
		l := int(r.uvarint())
		out[i] = all[at : at+l]
		at += l
		r.off += l
	}
	return out
}

func (r *byteCursor) int32s() []int32 {
	n := r.uvarint()
	if r.err != nil {
		return nil
	}
	if n > uint64(len(r.data)-r.off) {
		r.fail("int32 run longer than payload")
		return nil
	}
	out := make([]int32, 0, n)
	for i := uint64(0); i < n && r.err == nil; i++ {
		v := r.uvarint()
		if v > 1<<31-1 {
			r.fail("int32 out of range")
			return nil
		}
		out = append(out, int32(v))
	}
	return out
}

func (r *byteCursor) rest() []byte {
	return r.data[r.off:]
}
