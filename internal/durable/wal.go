package durable

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// wal is the append side of the log: one active segment file, rotated
// by size, synced per the configured policy. All methods are safe for
// concurrent use; appends serialize on the internal mutex (the
// serving layer additionally serializes commits, so the lock is
// uncontended on the hot path).
type wal struct {
	dir  string
	opts Options

	mu     sync.Mutex
	f      *os.File
	seq    uint64 // active segment sequence number
	size   int64  // bytes written to the active segment
	dirty  bool   // unsynced bytes pending (interval policy)
	broken error  // sticky failure: a failed fsync, or a failed write whose truncate also failed
	closed bool

	stop chan struct{} // interval-sync goroutine shutdown
	done chan struct{}
}

// fsyncFile flushes a file to stable storage. A variable so a test can
// make the flush fail; nothing else assigns it.
var fsyncFile = (*os.File).Sync

func segmentName(seq uint64) string { return fmt.Sprintf("wal-%016x.log", seq) }

// parseSegmentSeq extracts the sequence number from a segment file
// name, reporting ok=false for non-segment names.
func parseSegmentSeq(name string) (uint64, bool) {
	if !strings.HasPrefix(name, "wal-") || !strings.HasSuffix(name, ".log") {
		return 0, false
	}
	seq, err := strconv.ParseUint(name[len("wal-"):len(name)-len(".log")], 16, 64)
	return seq, err == nil
}

// listSegments returns the directory's segment paths in sequence
// order.
func listSegments(dir string) ([]string, []uint64, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, nil, err
	}
	var seqs []uint64
	for _, e := range entries {
		if seq, ok := parseSegmentSeq(e.Name()); ok {
			seqs = append(seqs, seq)
		}
	}
	sort.Slice(seqs, func(i, j int) bool { return seqs[i] < seqs[j] })
	paths := make([]string, len(seqs))
	for i, seq := range seqs {
		paths[i] = filepath.Join(dir, segmentName(seq))
	}
	return paths, seqs, nil
}

func fileHeader(magic [5]byte, version byte) []byte {
	h := make([]byte, headerLen)
	copy(h, magic[:])
	h[5] = version
	return h
}

// checkHeader validates a file's 8-byte header against the magic and
// the format versions [oldest, newest] this binary reads, and returns
// the file's version.
func checkHeader(data []byte, magic [5]byte, oldest, newest byte, path string) (byte, error) {
	if len(data) < headerLen {
		return 0, fmt.Errorf("%w: %s: short header (%d bytes)", ErrCorrupt, path, len(data))
	}
	for i := range magic {
		if data[i] != magic[i] {
			return 0, fmt.Errorf("%w: %s: bad magic", ErrCorrupt, path)
		}
	}
	if v := data[5]; v < oldest || v > newest {
		return 0, fmt.Errorf("%w: %s holds format version %d, this binary reads versions %d to %d",
			ErrIncompatibleVersion, path, v, oldest, newest)
	}
	return data[5], nil
}

// openWAL opens the active segment for appending (at size, past any
// truncated tail) or creates segment 1 in an empty directory.
func openWAL(dir string, opts Options, seq uint64, size int64) (*wal, error) {
	w := &wal{dir: dir, opts: opts, seq: seq, size: size}
	if seq == 0 {
		if err := w.createSegmentLocked(1); err != nil {
			return nil, err
		}
	} else {
		f, err := os.OpenFile(filepath.Join(dir, segmentName(seq)), os.O_RDWR, 0o644)
		if err != nil {
			return nil, err
		}
		if size < headerLen {
			// A segment that crashed during creation: rewrite a clean
			// header over whatever partial bytes exist.
			if err := f.Truncate(0); err != nil {
				f.Close()
				return nil, err
			}
			if _, err := f.WriteAt(fileHeader(walMagic, walVersion), 0); err != nil {
				f.Close()
				return nil, err
			}
			size = headerLen
		}
		if _, err := f.Seek(size, 0); err != nil {
			f.Close()
			return nil, err
		}
		w.f, w.size = f, size
	}
	if opts.Fsync == FsyncInterval {
		w.stop = make(chan struct{})
		w.done = make(chan struct{})
		go w.syncLoop()
	}
	return w, nil
}

// createSegmentLocked closes the active segment (if any) and starts
// segment seq with a fresh header. Caller holds mu (or owns w
// exclusively during open).
func (w *wal) createSegmentLocked(seq uint64) error {
	if w.f != nil {
		if w.dirty { // durability boundary: a rotated-away segment is final
			if err := w.syncLocked(); err != nil {
				return err
			}
		}
		if err := w.f.Close(); err != nil {
			return err
		}
		w.f = nil
	}
	f, err := os.OpenFile(filepath.Join(w.dir, segmentName(seq)), os.O_RDWR|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(fileHeader(walMagic, walVersion)); err != nil {
		f.Close()
		return err
	}
	w.f, w.seq, w.size, w.dirty = f, seq, headerLen, false
	syncDir(w.dir)
	return nil
}

// append frames and writes one record payload, rotating first when
// the segment is full, then syncs per policy. On a write failure the
// partial frame is truncated away so the log never accumulates a torn
// record mid-file; if even the truncate fails, or the fsync does, the
// wal latches broken and every later append fails.
func (w *wal) append(payload []byte) error {
	if len(payload) > maxRecordBytes {
		return fmt.Errorf("durable: record of %d bytes exceeds the %d-byte limit", len(payload), maxRecordBytes)
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return ErrClosed
	}
	if err := w.failedLocked(); err != nil {
		return err
	}
	if w.size > headerLen && w.size+recordHeaderLen+int64(len(payload)) > w.opts.SegmentBytes {
		if err := w.createSegmentLocked(w.seq + 1); err != nil {
			return err
		}
	}
	frame := make([]byte, recordHeaderLen+len(payload))
	binary.LittleEndian.PutUint32(frame[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(frame[4:8], crc32.ChecksumIEEE(payload))
	copy(frame[recordHeaderLen:], payload)
	start := w.size
	if _, err := w.f.Write(frame); err != nil {
		if terr := w.f.Truncate(start); terr != nil {
			w.broken = fmt.Errorf("write: %v; truncate: %v", err, terr)
		} else {
			w.f.Seek(start, 0)
		}
		return fmt.Errorf("durable: wal append: %w", err)
	}
	w.size = start + int64(len(frame))
	w.dirty = true
	if w.opts.Fsync == FsyncAlways {
		return w.syncLocked()
	}
	return nil
}

// failedLocked reports the latched failure, if any. Caller holds mu.
func (w *wal) failedLocked() error {
	if w.broken != nil {
		return fmt.Errorf("durable: wal is failed: %w", w.broken)
	}
	return nil
}

// syncLocked flushes the active segment to stable storage and feeds
// the observer. A failure latches the wal broken: the record just
// written stays in the log unacknowledged, and since the kernel may
// drop the dirty pages of a failed fsync, a retry could report success
// for bytes that never reached the disk — so nothing is written or
// synced after it, no generation is logged twice, and recovery at
// worst replays that one record whole. Caller holds mu.
func (w *wal) syncLocked() error {
	start := time.Now()
	err := fsyncFile(w.f)
	if w.opts.OnFsync != nil {
		w.opts.OnFsync(time.Since(start))
	}
	if err != nil {
		w.broken = fmt.Errorf("fsync: %w", err)
		return fmt.Errorf("durable: wal fsync: %w", err)
	}
	w.dirty = false
	return nil
}

// sync forces an fsync regardless of policy.
func (w *wal) sync() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return ErrClosed
	}
	if err := w.failedLocked(); err != nil || !w.dirty {
		return err
	}
	return w.syncLocked()
}

// syncLoop is the FsyncInterval background ticker.
func (w *wal) syncLoop() {
	defer close(w.done)
	t := time.NewTicker(w.opts.FsyncInterval)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			w.mu.Lock()
			if !w.closed && w.dirty && w.broken == nil {
				w.syncLocked() // a failure latches; the next append reports it
			}
			w.mu.Unlock()
		case <-w.stop:
			return
		}
	}
}

// rotate seals the active segment and opens the next one, returning
// the new segment's sequence number: every record written before the
// call lives in a segment with a smaller sequence, which is the
// garbage-collection floor checkpointing relies on.
func (w *wal) rotate() (uint64, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return 0, ErrClosed
	}
	if err := w.failedLocked(); err != nil {
		return 0, err
	}
	if err := w.createSegmentLocked(w.seq + 1); err != nil {
		return 0, err
	}
	return w.seq, nil
}

// close syncs and closes the active segment. Further appends fail
// with ErrClosed.
func (w *wal) close() error {
	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		return nil
	}
	w.closed = true
	err := w.failedLocked()
	if err == nil && w.dirty {
		err = w.syncLocked()
	}
	if cerr := w.f.Close(); err == nil {
		err = cerr
	}
	w.mu.Unlock()
	if w.stop != nil {
		close(w.stop)
		<-w.done
	}
	return err
}

// syncDir fsyncs a directory so renames and creates within it are
// durable. Best effort: not every platform supports it, and losing a
// directory entry is recoverable (the file simply is not found).
func syncDir(dir string) {
	if d, err := os.Open(dir); err == nil {
		d.Sync()
		d.Close()
	}
}
