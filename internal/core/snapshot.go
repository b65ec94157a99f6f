package core

import (
	"encoding/binary"
	"errors"
	"fmt"
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
// A delta-extended artifact is flattened through the same layout —
// snapshots never know (or care) how the artifact was built, and an
// encode/decode round trip of an extended artifact is exact.
func (c *Compiled) AppendBinary(buf []byte) []byte {
	buf = binary.AppendUvarint(buf, c.Generation)
	buf = appendStringTable(buf, c.lNames)
	buf = appendStringTable(buf, c.rNames)
	nL, nR := len(c.lNames), len(c.rNames)
	for _, gn := range []struct {
		g *csr
		n int
	}{{&c.lOut, nL}, {&c.lIn, nL}, {&c.eOut, nL}, {&c.rOut, nR}} {
		flat := gn.g.flatten(gn.n)
		buf = appendInt32s(buf, flat.off)
		buf = appendInt32s(buf, flat.arcs)
	}
	return buf
}

// DecodeCompiled decodes an artifact produced by AppendBinary from
// the front of data, returning the remaining bytes. The interning
// maps are reconstructed from the decoded name tables, so the result
// is behaviorally identical to the Compile output it was encoded from
// (per-node adjacency order is preserved by the CSR layout).
func DecodeCompiled(data []byte) (*Compiled, []byte, error) {
	r := &byteCursor{data: data}
	c := &Compiled{Generation: r.uvarint()}
	c.lNames = r.stringTable()
	c.rNames = r.stringTable()
	nL, nR := len(c.lNames), len(c.rNames)
	for i, g := range []*csr{&c.lOut, &c.lIn, &c.eOut, &c.rOut} {
		g.off = r.int32s()
		g.arcs = r.int32s()
		g.m = len(g.arcs)
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
		if err := validateCSR(g, nodes, dom); err != nil {
			return nil, nil, err
		}
	}
	if r.err != nil {
		return nil, nil, fmt.Errorf("%w: %v", ErrBadArtifact, r.err)
	}
	c.lid = make(map[string]int32, nL)
	for i, name := range c.lNames {
		c.lid[name] = int32(i)
	}
	c.rid = make(map[string]int32, nR)
	for i, name := range c.rNames {
		c.rid[name] = int32(i)
	}
	return c, r.rest(), nil
}

// validateCSR checks the structural invariants row() indexes by:
// len(off) == nodes+1, offsets non-decreasing and ending at
// len(arcs), and every arc id inside its domain. A corrupted payload
// must fail here, not panic in a solver.
func validateCSR(g *csr, nodes, domain int) error {
	if len(g.off) != nodes+1 {
		return fmt.Errorf("%w: %d offsets for %d nodes", ErrBadArtifact, len(g.off), nodes)
	}
	if nodes >= 0 && len(g.off) > 0 {
		if g.off[0] != 0 || int(g.off[nodes]) != len(g.arcs) {
			return fmt.Errorf("%w: offset bounds [%d..%d] over %d arcs", ErrBadArtifact, g.off[0], g.off[nodes], len(g.arcs))
		}
	}
	for i := 1; i < len(g.off); i++ {
		if g.off[i] < g.off[i-1] {
			return fmt.Errorf("%w: decreasing offset at node %d", ErrBadArtifact, i)
		}
	}
	for _, a := range g.arcs {
		if a < 0 || int(a) >= domain {
			return fmt.Errorf("%w: arc id %d outside domain %d", ErrBadArtifact, a, domain)
		}
	}
	return nil
}

func appendStringTable(buf []byte, names []string) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(names)))
	for _, s := range names {
		buf = binary.AppendUvarint(buf, uint64(len(s)))
		buf = append(buf, s...)
	}
	return buf
}

func appendInt32s(buf []byte, vals []int32) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(vals)))
	for _, v := range vals {
		buf = binary.AppendUvarint(buf, uint64(uint32(v)))
	}
	return buf
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

func (r *byteCursor) stringTable() []string {
	n := r.uvarint()
	if r.err != nil {
		return nil
	}
	if n > uint64(len(r.data)-r.off) {
		r.fail("string table longer than payload")
		return nil
	}
	out := make([]string, 0, n)
	for i := uint64(0); i < n && r.err == nil; i++ {
		l := r.uvarint()
		if r.err != nil || l > uint64(len(r.data)-r.off) {
			r.fail("truncated string")
			return nil
		}
		out = append(out, string(r.data[r.off:r.off+int(l)]))
		r.off += int(l)
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
