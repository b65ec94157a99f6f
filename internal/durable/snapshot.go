package durable

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"magiccounting/internal/core"
)

// Snapshot is one point-in-time image of the database at generation
// Gen: the compiled CSR artifact for that generation, whose rows are
// the facts, or, when there is none, the raw fact slices.
type Snapshot struct {
	Gen uint64
	// L, E, R are the facts. WriteSnapshot ignores them when Compiled
	// is set, which must compile exactly them; a loaded snapshot holds
	// them only when its file stored them (format version 1, or no
	// artifact), and recovery still reads such files.
	//
	// Deprecated: the server writes its artifact alone. Writing pairs
	// stays for the end-to-end benchmark's shadow tracer until ROADMAP
	// item 1's [benchmark] half.
	L, E, R []core.Pair
	// Compiled is the artifact for generation Gen; nil is valid (the
	// facts are then written as pairs and recovery compiles them).
	Compiled *core.Compiled
	// compiledRaw holds the still-encoded artifact of a decoded
	// snapshot. Materializing it costs real work, so the payload
	// decoder defers it to RecoveryInfo.Artifact, which calls
	// decodeArtifact on first use, under the caller's own span.
	compiledRaw []byte
}

// decodeArtifact materializes the deferred compiled artifact, if any.
// The bytes sit behind the snapshot frame's CRC, so a failure here is
// an encoding incompatibility, not silent disk rot.
func (s *Snapshot) decodeArtifact() error {
	if s.compiledRaw == nil {
		return nil
	}
	c, tail, err := core.DecodeCompiled(s.compiledRaw)
	if err != nil {
		return fmt.Errorf("%w: snapshot artifact: %v", ErrCorrupt, err)
	}
	if len(tail) != 0 {
		return fmt.Errorf("%w: %d trailing bytes after snapshot artifact", ErrCorrupt, len(tail))
	}
	s.Compiled, s.compiledRaw = c, nil
	return nil
}

func snapshotName(gen uint64) string { return fmt.Sprintf("snap-%016x.snap", gen) }

func parseSnapshotGen(name string) (uint64, bool) {
	if !strings.HasPrefix(name, "snap-") || !strings.HasSuffix(name, ".snap") {
		return 0, false
	}
	gen, err := strconv.ParseUint(name[len("snap-"):len(name)-len(".snap")], 16, 64)
	return gen, err == nil
}

// writeSnapshotPayload streams a snapshot's payload to w and flushes
// it. A snapshot with an artifact is written as the artifact alone:
// its rows are the facts, so the fact section is empty. Without one,
// the facts are interned: one table of every distinct constant, then
// each relation as pairs of table indexes, so decoding allocates one
// string per distinct constant instead of two per fact.
//
//	uvarint gen
//	uvarint |names| | names (uvarint len | bytes)
//	3 × relation: uvarint count | count × (uvarint fromIdx | uvarint toIdx)
//	1 byte hasCompiled | [compiled artifact (core codec)]
//
// Format version 1 had the same layout but always filled the fact
// section, artifact or not.
func writeSnapshotPayload(w *bufio.Writer, snap Snapshot) error {
	idx := make(map[string]uint64)
	var names []string
	intern := func(s string) {
		if _, ok := idx[s]; !ok {
			idx[s] = uint64(len(names))
			names = append(names, s)
		}
	}
	rels := [][]core.Pair{snap.L, snap.E, snap.R}
	if snap.Compiled != nil {
		rels = [][]core.Pair{nil, nil, nil}
	}
	for _, rel := range rels {
		for _, p := range rel {
			intern(p.From)
			intern(p.To)
		}
	}
	// bufio.Writer errors are sticky: Flush reports the first one.
	var vbuf [binary.MaxVarintLen64]byte
	uvarint := func(v uint64) { w.Write(binary.AppendUvarint(vbuf[:0], v)) }
	uvarint(snap.Gen)
	uvarint(uint64(len(names)))
	for _, s := range names {
		uvarint(uint64(len(s)))
		w.WriteString(s)
	}
	for _, rel := range rels {
		uvarint(uint64(len(rel)))
		for _, p := range rel {
			uvarint(idx[p.From])
			uvarint(idx[p.To])
		}
	}
	if snap.Compiled != nil {
		w.WriteByte(1)
		if err := snap.Compiled.WriteBinary(w); err != nil {
			return err
		}
	} else {
		w.WriteByte(0)
	}
	return w.Flush()
}

// decodeSnapshotPayload decodes a payload of the given format version.
func decodeSnapshotPayload(data []byte, version byte) (*Snapshot, error) {
	r := payloadReader{data: data}
	snap := &Snapshot{Gen: r.uvarint()}
	nNames := r.uvarint()
	if r.err != nil || nNames > uint64(len(data)) {
		return nil, fmt.Errorf("%w: snapshot name table", ErrCorrupt)
	}
	names := make([]string, 0, nNames)
	for i := uint64(0); i < nNames && r.err == nil; i++ {
		names = append(names, r.str())
	}
	for _, dst := range []*[]core.Pair{&snap.L, &snap.E, &snap.R} {
		n := r.uvarint()
		if r.err != nil || n > uint64(len(data)) {
			return nil, fmt.Errorf("%w: snapshot relation count", ErrCorrupt)
		}
		pairs := make([]core.Pair, 0, n)
		for i := uint64(0); i < n && r.err == nil; i++ {
			fi, ti := r.uvarint(), r.uvarint()
			if fi >= uint64(len(names)) || ti >= uint64(len(names)) {
				return nil, fmt.Errorf("%w: snapshot fact references name %d of %d", ErrCorrupt, max(fi, ti), len(names))
			}
			pairs = append(pairs, core.Pair{From: names[fi], To: names[ti]})
		}
		*dst = pairs
	}
	if r.err != nil {
		return nil, fmt.Errorf("%w: snapshot payload: %v", ErrCorrupt, r.err)
	}
	if r.off >= len(data) {
		return nil, fmt.Errorf("%w: snapshot missing artifact flag", ErrCorrupt)
	}
	hasCompiled := data[r.off] == 1
	rest := data[r.off+1:]
	if hasCompiled {
		if len(rest) == 0 {
			return nil, fmt.Errorf("%w: snapshot artifact flag set but artifact missing", ErrCorrupt)
		}
		if version >= 2 && len(snap.L)+len(snap.E)+len(snap.R) > 0 {
			return nil, fmt.Errorf("%w: snapshot holds both an artifact and facts", ErrCorrupt)
		}
		snap.compiledRaw = rest
	} else if len(rest) != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes in snapshot", ErrCorrupt, len(rest))
	}
	return snap, nil
}

// writeSnapshotFile writes the snapshot atomically: temp file, fsync,
// rename, directory fsync. A crash mid-write leaves at most a stale
// .tmp that the next load ignores. The payload streams to the file
// behind a zeroed CRC/length slot, which is filled in once the payload
// is written, so a checkpoint never holds the encoded snapshot in
// memory.
func writeSnapshotFile(dir string, snap Snapshot) error {
	tmp := filepath.Join(dir, snapshotName(snap.Gen)+".tmp")
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	fail := func(err error) error {
		f.Close()
		os.Remove(tmp)
		return err
	}
	var slot [12]byte // uint32 CRC | uint64 payload length
	if _, err := f.Write(append(fileHeader(snapMagic, snapVersion), slot[:]...)); err != nil {
		return fail(err)
	}
	crc := crc32.NewIEEE()
	if err := writeSnapshotPayload(bufio.NewWriterSize(io.MultiWriter(f, crc), 64<<10), snap); err != nil {
		return fail(err)
	}
	end, err := f.Seek(0, io.SeekCurrent)
	if err != nil {
		return fail(err)
	}
	binary.LittleEndian.PutUint32(slot[0:4], crc.Sum32())
	binary.LittleEndian.PutUint64(slot[4:12], uint64(end-headerLen-int64(len(slot))))
	if _, err := f.WriteAt(slot[:], headerLen); err != nil {
		return fail(err)
	}
	if err := f.Sync(); err != nil {
		return fail(err)
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, filepath.Join(dir, snapshotName(snap.Gen))); err != nil {
		os.Remove(tmp)
		return err
	}
	syncDir(dir)
	return nil
}

// loadSnapshotFile reads and validates one snapshot file.
func loadSnapshotFile(path string) (*Snapshot, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	version, err := checkHeader(data, snapMagic, 1, snapVersion, path)
	if err != nil {
		return nil, err
	}
	body := data[headerLen:]
	if len(body) < 12 {
		return nil, fmt.Errorf("%w: %s: short snapshot frame", ErrCorrupt, path)
	}
	crc := binary.LittleEndian.Uint32(body[0:4])
	plen := binary.LittleEndian.Uint64(body[4:12])
	payload := body[12:]
	if plen != uint64(len(payload)) {
		return nil, fmt.Errorf("%w: %s: payload length %d, frame says %d (torn write)", ErrCorrupt, path, len(payload), plen)
	}
	if crc32.ChecksumIEEE(payload) != crc {
		return nil, fmt.Errorf("%w: %s: snapshot checksum mismatch", ErrCorrupt, path)
	}
	return decodeSnapshotPayload(payload, version)
}

// loadNewestSnapshot finds the newest snapshot that validates,
// skipping corrupt or torn ones (an older valid snapshot plus a
// longer replay still recovers). A version mismatch is not skipped:
// the whole directory belongs to another format, and silently
// ignoring it would replay a WAL written by that format too.
func loadNewestSnapshot(dir string) (*Snapshot, []string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, nil, err
	}
	var gens []uint64
	for _, e := range entries {
		if gen, ok := parseSnapshotGen(e.Name()); ok {
			gens = append(gens, gen)
		}
	}
	sort.Slice(gens, func(i, j int) bool { return gens[i] > gens[j] })
	var skipped []string
	for _, gen := range gens {
		path := filepath.Join(dir, snapshotName(gen))
		snap, err := loadSnapshotFile(path)
		if err != nil {
			if errors.Is(err, ErrIncompatibleVersion) {
				return nil, nil, err
			}
			skipped = append(skipped, fmt.Sprintf("%s: %v", filepath.Base(path), err))
			continue
		}
		return snap, skipped, nil
	}
	return nil, skipped, nil
}
