// Package durable is the persistence layer under the serving tier: an
// append-only, length-prefixed, CRC32-checksummed write-ahead log of
// fact batches (segment files with rotation and a configurable fsync
// policy), point-in-time snapshots that carry either the compiled CSR
// artifact (whose rows are the facts) or the raw L/E/R fact slices,
// and a recovery path that loads the newest valid snapshot and replays
// the WAL tail.
//
// The durability contract follows the magic-set maintenance reading
// of the paper's cost model: base facts are the cheap, authoritative
// state — they are logged synchronously ahead of every commit — while
// derived state (the Compiled artifact) is recomputable and therefore
// only snapshotted opportunistically. Recovery trusts the snapshot
// for bulk state and the log for the tail, truncating a torn final
// record instead of failing; a checksum failure mid-log cuts replay
// at the last durable prefix.
//
// On-disk layout (one directory per store):
//
//	wal-<seq>.log    segment: 8-byte header, then records
//	                 header  = "MCWAL" | version byte | 2 zero bytes
//	                 record  = uint32 payload len | uint32 CRC32(payload) | payload
//	snap-<gen>.snap  snapshot: 8-byte header ("MCSNP" | version | 0 0),
//	                 uint32 CRC32(payload), uint64 payload len, payload
//
// Both headers carry the format-version byte; opening a directory
// written by a version this binary cannot read fails with
// ErrIncompatibleVersion so an operator sees a clear startup error
// instead of silent misparsing. Snapshots of versions 1 and 2 load;
// segments are version 1.
package durable

import (
	"errors"
	"fmt"
	"time"
)

const (
	// walVersion and snapVersion are the on-disk format versions
	// stamped into every segment and snapshot header. Bump one on any
	// incompatible change to its file.
	walVersion = 1
	// Snapshot version 2 writes a snapshot that carries an artifact as
	// that artifact alone: its rows are the facts. Version 1 wrote the
	// facts as well, and still loads. A version 1 binary, which would
	// read a version 2 snapshot as an empty database, refuses it.
	snapVersion = 2

	headerLen       = 8
	recordHeaderLen = 8

	// maxRecordBytes bounds a single WAL record. The HTTP layer caps
	// request bodies at 8 MiB, so any larger length prefix is framing
	// corruption, not data — treating it as such keeps a corrupted
	// length from driving a giant allocation.
	maxRecordBytes = 64 << 20
)

var (
	walMagic  = [5]byte{'M', 'C', 'W', 'A', 'L'}
	snapMagic = [5]byte{'M', 'C', 'S', 'N', 'P'}
)

var (
	// ErrIncompatibleVersion reports a segment or snapshot written by
	// a different format version of this package.
	ErrIncompatibleVersion = errors.New("durable: incompatible format version")
	// ErrClosed reports an operation on a closed store.
	ErrClosed = errors.New("durable: store closed")
	// ErrCorrupt reports a file that is not a valid segment or
	// snapshot at all (bad magic, impossible structure).
	ErrCorrupt = errors.New("durable: corrupt file")
)

// FsyncPolicy selects when WAL appends reach stable storage.
type FsyncPolicy uint8

const (
	// FsyncAlways syncs after every append: an acknowledged commit
	// survives power loss. The policy for correctness-first serving.
	FsyncAlways FsyncPolicy = iota
	// FsyncInterval syncs on a background tick (Options.FsyncInterval):
	// a crash may lose the last interval's appends, never more.
	FsyncInterval
	// FsyncNever leaves syncing to the OS page cache: fastest, loses
	// an unbounded tail on power loss (process crashes still recover
	// everything the kernel accepted).
	FsyncNever
)

// ParseFsyncPolicy resolves the flag spelling of a policy.
func ParseFsyncPolicy(s string) (FsyncPolicy, error) {
	switch s {
	case "always":
		return FsyncAlways, nil
	case "interval":
		return FsyncInterval, nil
	case "never":
		return FsyncNever, nil
	}
	return 0, fmt.Errorf("durable: unknown fsync policy %q (want always, interval, or never)", s)
}

// String names the policy (the flag spelling).
func (p FsyncPolicy) String() string {
	switch p {
	case FsyncAlways:
		return "always"
	case FsyncInterval:
		return "interval"
	default:
		return "never"
	}
}

// Options tunes a store.
type Options struct {
	// Fsync is the WAL sync policy. The zero value is FsyncAlways.
	Fsync FsyncPolicy
	// FsyncInterval is the background sync period under FsyncInterval.
	// Zero selects 100ms.
	FsyncInterval time.Duration
	// SegmentBytes rotates the active segment once it would exceed
	// this size. Zero selects 64 MiB.
	SegmentBytes int64
	// OnFsync, when non-nil, observes the duration of every WAL fsync
	// (the serving layer feeds its mc_wal_fsync_seconds histogram).
	OnFsync func(time.Duration)
}

func (o Options) withDefaults() Options {
	if o.FsyncInterval <= 0 {
		o.FsyncInterval = 100 * time.Millisecond
	}
	if o.SegmentBytes <= 0 {
		o.SegmentBytes = 64 << 20
	}
	return o
}
