// Package wal is the streaming pipeline's durability layer (DESIGN.md
// §3.21): a segmented, CRC-32-framed, length-prefixed write-ahead log with
// monotonically sequenced records. The stream appends every accepted record
// BEFORE applying it to the in-memory aggregates; a checkpoint embeds the
// highest sequence it covers; restart is therefore restore-checkpoint +
// replay-the-WAL-suffix, and replay is exactly-once by sequence comparison —
// a record is applied again only if the checkpoint provably does not contain
// it, even when the process died between the WAL append and the aggregate
// apply.
//
// Recovery is prefix-consistent: Open scans the segment chain in sequence
// order and discards everything from the first invalid frame on (a torn
// tail after a crash, arbitrary corruption after a disk fault). What
// survives is always an exact prefix of what was appended — never a wrong
// or reordered record — which is the FuzzWALReplay contract.
//
// Durability policy is configurable: fsync on every append, after every N
// appends, or on an interval measured against the injected clock. With
// SyncEvery=1 an Append that returned nil is durable — the "acked" records
// the crash suite asserts are never lost.
//
// The package is stdlib-only and reuses the repository's proven disciplines:
// the versioned-frame + CRC trailer layout of internal/stream's checkpoint
// format, the fsync-file-then-fsync-parent-dir sequence of cmd/repart's
// atomicWrite, internal/fault injection points at every state transition
// ("wal.append", "wal.append.torn", "wal.sync", "wal.rotate",
// "wal.truncate"), and internal/obs counters/histograms/gauges.
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"spatialrepart/internal/fault"
	"spatialrepart/internal/grid"
	"spatialrepart/internal/obs"
)

// Segment file layout, all integers little-endian:
//
//	header:
//	  magic    [8]byte  "SPRTWAL1"
//	  version  uint16   segVersion
//	  firstSeq uint64   sequence of the segment's first record
//	frames (repeated):
//	  length   uint32   payload byte count
//	  seq      uint64   record sequence (contiguous, ascending)
//	  payload  []byte
//	  crc      uint32   CRC-32 (IEEE) of the seq bytes + payload
//
// The CRC covers the sequence number as well as the payload so a frame can
// never be silently re-attributed to a different position in the log. The
// file name, wal-<firstSeq as 16 hex digits>.seg, repeats the header's
// firstSeq; Open rejects a mismatch (a renamed or cross-wired segment).
var segMagic = [8]byte{'S', 'P', 'R', 'T', 'W', 'A', 'L', '1'}

const (
	segVersion uint16 = 1
	headerSize        = 8 + 2 + 8
	// frameOverhead is the fixed per-frame cost: length + seq + crc.
	frameOverhead = 4 + 8 + 4
	// maxPayload caps the per-record payload a frame may declare; a corrupt
	// length field must not drive allocations (the checkpoint decoder's
	// rule).
	maxPayload = 1 << 28

	// DefaultSegmentBytes is the rotation threshold when Options.SegmentBytes
	// is unset.
	DefaultSegmentBytes = 4 << 20

	// stampFile guards a WAL directory against cross-wiring: Open with a
	// non-empty Options.Stamp writes it on first use and rejects a mismatch
	// ever after (two cluster shards pointed at one directory, or a worker
	// restarted with different grid geometry).
	stampFile = "STAMP"
)

// ErrWAL wraps every structural error Open and Replay surface for corrupt
// or cross-wired logs, so callers can distinguish log damage from plain I/O
// failures.
var ErrWAL = errors.New("wal: corrupt or mismatched log")

// ErrClosed is returned by operations on a closed Log.
var ErrClosed = errors.New("wal: log closed")

// Options configures a Log. The zero value is a 4 MiB-segment,
// fsync-every-append log with no stamp and no instrumentation.
type Options struct {
	// SegmentBytes rotates the active segment once its size reaches this
	// many bytes (0 = DefaultSegmentBytes). Rotation happens between
	// records: a segment always holds whole frames.
	SegmentBytes int64
	// SyncEvery fsyncs after every n-th Append (<= 1 = every append, the
	// only policy under which a nil Append return means durable).
	SyncEvery int
	// SyncInterval additionally fsyncs an Append when this much time passed
	// since the last sync (0 = off). Measured against Now, so fake-clock
	// tests drive it deterministically.
	SyncInterval time.Duration
	// Now is the clock SyncInterval consults (nil = time.Now).
	Now func() time.Time
	// Stamp, when non-empty, is the log's identity: written to the
	// directory on first open, verified on every later open. Cluster shard
	// workers stamp their plan geometry and band index so a WAL directory
	// can never be shared between shards or reused across a geometry
	// change.
	Stamp string
	// Obs, when non-nil, receives the WAL metrics: wal.appended /
	// wal.replayed / wal.truncated_segments / wal.rotations counters, the
	// wal.fsync_ns latency histogram, and the wal.open_segment_bytes /
	// wal.segments gauges.
	Obs *obs.Observer
	// Fault, when non-nil, is consulted at the log's named injection points
	// ("wal.append", "wal.append.torn", "wal.sync", "wal.rotate",
	// "wal.truncate") — the crash-harness hook.
	Fault *fault.Injector
}

// segment is one on-disk segment of the chain.
type segment struct {
	path     string
	firstSeq uint64
	// lastSeq is the segment's highest valid sequence; firstSeq-1 for a
	// segment holding no frames yet.
	lastSeq uint64
	// size is the validated byte length (header + whole frames).
	size int64
}

// Log is an open write-ahead log. All methods are safe for concurrent use.
// A Log survives crashes, not errors: after a write or fsync error of
// unknown extent the log poisons itself and every later Append returns the
// original error — the caller's recovery path is the same as after a crash
// (reopen the directory, which re-validates the on-disk prefix).
type Log struct {
	// The mutable state below is guarded by mu (via the public methods).
	mu       sync.Mutex
	dir      string
	opts     Options
	now      func() time.Time
	segs     []segment // ascending firstSeq; the last one is active
	f        *os.File  // active segment, positioned at segs[last].size
	nextSeq  uint64    // sequence the next Append assigns
	unsynced int       // appends since the last fsync
	lastSync time.Time
	err      error // poison: set by a failed write/fsync of unknown extent
	closed   bool
}

// Open opens (creating if needed) the write-ahead log in dir, validates the
// segment chain, and discards everything after the first invalid frame —
// the torn tail a crash mid-append leaves behind. The returned log is
// positioned to append record NextSeq; call Replay first to fold the
// surviving records into the application state.
func Open(dir string, opts Options) (*Log, error) {
	if opts.SegmentBytes <= 0 {
		opts.SegmentBytes = DefaultSegmentBytes
	}
	now := opts.Now
	if now == nil {
		//spatialvet:ignore clockdirect the production default for the injectable clock
		now = time.Now
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	if err := checkStamp(dir, opts.Stamp); err != nil {
		return nil, err
	}
	l := &Log{dir: dir, opts: opts, now: now, lastSync: now()}
	if err := l.scan(); err != nil {
		return nil, err
	}
	if len(l.segs) == 0 {
		if err := l.openSegment(1); err != nil {
			return nil, err
		}
	} else {
		last := &l.segs[len(l.segs)-1]
		f, err := os.OpenFile(last.path, os.O_RDWR, 0o644)
		if err != nil {
			return nil, err
		}
		// Physically drop any torn tail so new frames extend a clean
		// prefix; the validated size is authoritative.
		if err := f.Truncate(last.size); err != nil {
			f.Close() //spatialvet:ignore errdrop best-effort cleanup of a failed open; the Truncate error is the one reported
			return nil, err
		}
		if _, err := f.Seek(last.size, io.SeekStart); err != nil {
			f.Close() //spatialvet:ignore errdrop best-effort cleanup of a failed open; the Seek error is the one reported
			return nil, err
		}
		l.f = f
		l.nextSeq = last.lastSeq + 1
	}
	l.publishGauges()
	return l, nil
}

// checkStamp enforces the directory-identity guard.
func checkStamp(dir, stamp string) error {
	if stamp == "" {
		return nil
	}
	path := filepath.Join(dir, stampFile)
	existing, err := os.ReadFile(path)
	switch {
	case err == nil:
		if string(existing) != stamp {
			return fmt.Errorf("%w: directory %s is stamped %q, this log wants %q (two shards sharing one WAL dir, or a geometry change)",
				ErrWAL, dir, string(existing), stamp)
		}
		return nil
	case os.IsNotExist(err):
		if werr := os.WriteFile(path, []byte(stamp), 0o644); werr != nil {
			return werr
		}
		return syncDir(dir)
	default:
		return err
	}
}

// scan discovers and validates the segment chain. The first invalid frame —
// bad length, bad CRC, a sequence break, anywhere in the chain — ends the
// valid prefix: the offending segment is noted at its validated size and
// every LATER segment is deleted. In practice only the final segment's tail
// is ever torn; the blanket rule guarantees the prefix invariant even for
// arbitrary damage.
func (l *Log) scan() error {
	entries, err := os.ReadDir(l.dir)
	if err != nil {
		return err
	}
	var segs []segment
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasPrefix(name, "wal-") || !strings.HasSuffix(name, ".seg") {
			continue
		}
		hexPart := strings.TrimSuffix(strings.TrimPrefix(name, "wal-"), ".seg")
		first, perr := strconv.ParseUint(hexPart, 16, 64)
		if perr != nil || len(hexPart) != 16 {
			return fmt.Errorf("%w: unparseable segment name %q", ErrWAL, name)
		}
		segs = append(segs, segment{path: filepath.Join(l.dir, name), firstSeq: first})
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i].firstSeq < segs[j].firstSeq })

	expect := uint64(0) // next expected sequence; 0 = take the first segment's base
	valid := segs[:0]
	for i := range segs {
		s := &segs[i]
		if expect != 0 && s.firstSeq != expect {
			// A gap or overlap between segments: the prefix ends at the
			// previous segment.
			return l.dropFrom(valid, segs[i:])
		}
		last, size, segErr := validateSegment(s.path, s.firstSeq)
		if segErr != nil {
			// The header itself is damaged: nothing in this segment is
			// usable. It and everything after it leave the chain; the
			// prefix ends at the previous segment.
			return l.dropFrom(valid, segs[i:])
		}
		s.lastSeq, s.size = last, size
		valid = append(valid, *s)
		if last < s.firstSeq {
			// A valid header but no complete frame (torn or empty body):
			// the segment stays, truncated to its header, and everything
			// after it goes.
			return l.dropFrom(valid, segs[i+1:])
		}
		expect = last + 1
	}
	l.segs = valid
	if n := len(valid); n > 0 {
		l.nextSeq = valid[n-1].lastSeq + 1
	}
	return nil
}

// dropFrom installs the surviving prefix and deletes the dead segments.
func (l *Log) dropFrom(keep []segment, dead []segment) error {
	for _, s := range dead {
		if err := os.Remove(s.path); err != nil {
			return err
		}
	}
	if len(dead) > 0 {
		if err := syncDir(l.dir); err != nil {
			return err
		}
	}
	l.segs = keep
	if n := len(keep); n > 0 {
		l.nextSeq = keep[n-1].lastSeq + 1
	}
	return nil
}

// validateSegment reads one segment and returns its highest valid sequence
// and the byte length of its valid prefix (header + whole frames). A
// structural error in the header yields lastSeq = firstSeq-1, size = the
// header size if the header itself was intact, else an error. Frame-level
// damage is NOT an error — the valid prefix simply ends there.
func validateSegment(path string, firstSeq uint64) (lastSeq uint64, size int64, err error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return 0, 0, err
	}
	if len(data) < headerSize ||
		string(data[:8]) != string(segMagic[:]) ||
		binary.LittleEndian.Uint16(data[8:10]) != segVersion ||
		binary.LittleEndian.Uint64(data[10:headerSize]) != firstSeq {
		return 0, 0, fmt.Errorf("%w: segment %s has a bad header", ErrWAL, filepath.Base(path))
	}
	off := int64(headerSize)
	seq := firstSeq - 1
	for {
		n, s, ok := readFrame(data, off, seq+1)
		if !ok {
			return seq, off, nil
		}
		seq, off = s, off+n
	}
}

// readFrame validates the frame at data[off:], which must carry sequence
// wantSeq. It returns the frame's total length and sequence, with ok=false
// when the frame is absent, torn, corrupt, or out of sequence.
func readFrame(data []byte, off int64, wantSeq uint64) (n int64, seq uint64, ok bool) {
	rest := data[off:]
	if len(rest) < frameOverhead {
		return 0, 0, false
	}
	plen := binary.LittleEndian.Uint32(rest[:4])
	if plen > maxPayload || int64(len(rest)) < frameOverhead+int64(plen) {
		return 0, 0, false
	}
	seq = binary.LittleEndian.Uint64(rest[4:12])
	if seq != wantSeq {
		return 0, 0, false
	}
	body := rest[4 : 12+plen]
	want := binary.LittleEndian.Uint32(rest[12+plen : 16+plen])
	if crc32.ChecksumIEEE(body) != want {
		return 0, 0, false
	}
	return frameOverhead + int64(plen), seq, true
}

// openSegment creates the segment whose first record will carry firstSeq,
// making it the active one. The header is written and fsynced, and the
// directory entry is fsynced, before any record lands in it.
func (l *Log) openSegment(firstSeq uint64) error {
	path := filepath.Join(l.dir, fmt.Sprintf("wal-%016x.seg", firstSeq))
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return err
	}
	var hdr [headerSize]byte
	copy(hdr[:8], segMagic[:])
	binary.LittleEndian.PutUint16(hdr[8:10], segVersion)
	binary.LittleEndian.PutUint64(hdr[10:headerSize], firstSeq)
	if _, err := f.Write(hdr[:]); err != nil {
		f.Close()       //spatialvet:ignore errdrop best-effort cleanup of a failed segment create; the Write error is the one reported
		os.Remove(path) //spatialvet:ignore errdrop best-effort cleanup of a failed segment create; the Write error is the one reported
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()       //spatialvet:ignore errdrop best-effort cleanup of a failed segment create; the Sync error is the one reported
		os.Remove(path) //spatialvet:ignore errdrop best-effort cleanup of a failed segment create; the Sync error is the one reported
		return err
	}
	if err := syncDir(l.dir); err != nil {
		f.Close() //spatialvet:ignore errdrop best-effort cleanup of a failed segment create; the dir-sync error is the one reported
		return err
	}
	l.f = f
	l.segs = append(l.segs, segment{path: path, firstSeq: firstSeq, lastSeq: firstSeq - 1, size: headerSize})
	if l.nextSeq == 0 {
		l.nextSeq = firstSeq
	}
	return nil
}

// Append writes one record frame and returns its sequence. The record is
// durable when Append returns nil under SyncEvery <= 1; under a batched
// policy durability lags by at most SyncEvery-1 records or SyncInterval.
// A failed append never corrupts the log: either the partial frame is
// rolled back in place and the sequence is not consumed, or — when the
// rollback itself fails, leaving bytes of unknown extent on disk — the log
// poisons itself so the only way forward is the crash path (reopen and
// re-validate).
func (l *Log) Append(payload []byte) (uint64, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return 0, ErrClosed
	}
	if l.err != nil {
		return 0, l.err
	}
	if int64(len(payload)) > maxPayload {
		return 0, fmt.Errorf("wal: payload of %d bytes exceeds the %d-byte frame cap", len(payload), maxPayload)
	}
	if err := l.opts.Fault.Hit("wal.append"); err != nil {
		return 0, fmt.Errorf("wal: append: %w", err)
	}

	active := &l.segs[len(l.segs)-1]
	frameLen := int64(frameOverhead + len(payload))
	if active.size > headerSize && active.size+frameLen > l.opts.SegmentBytes {
		if err := l.rotateLocked(); err != nil {
			return 0, err
		}
		active = &l.segs[len(l.segs)-1]
	}

	seq := l.nextSeq
	frame := make([]byte, frameLen)
	binary.LittleEndian.PutUint32(frame[:4], uint32(len(payload)))
	binary.LittleEndian.PutUint64(frame[4:12], seq)
	copy(frame[12:], payload)
	binary.LittleEndian.PutUint32(frame[12+len(payload):], crc32.ChecksumIEEE(frame[4:12+len(payload)]))

	if err := l.opts.Fault.Hit("wal.append.torn"); err != nil {
		// Torn-write simulation: half the frame reaches the disk, then the
		// "crash". The bytes are synced so recovery provably sees the torn
		// frame rather than an empty tail.
		l.f.Write(frame[:len(frame)/2]) //spatialvet:ignore errdrop the injected fault is the error being simulated; the partial write is its effect
		l.f.Sync()                      //spatialvet:ignore errdrop the injected fault is the error being simulated; the torn bytes must reach the disk
		l.poison(fmt.Errorf("wal: append: %w", err))
		return 0, l.err
	}
	if _, err := l.f.Write(frame); err != nil {
		// Roll the partial frame back in place; if even that fails the log
		// is poisoned and the caller must take the crash path.
		if terr := l.f.Truncate(active.size); terr != nil {
			l.poison(fmt.Errorf("wal: append failed (%v) and rollback failed: %w", err, terr))
			return 0, l.err
		}
		if _, serr := l.f.Seek(active.size, io.SeekStart); serr != nil {
			l.poison(fmt.Errorf("wal: append failed (%v) and re-seek failed: %w", err, serr))
			return 0, l.err
		}
		return 0, fmt.Errorf("wal: append: %w", err)
	}
	active.size += frameLen
	active.lastSeq = seq
	l.nextSeq++
	l.unsynced++
	l.opts.Obs.Count("wal.appended", 1)
	l.opts.Obs.SetGauge("wal.open_segment_bytes", float64(active.size))

	if l.syncDueLocked() {
		if err := l.syncLocked(); err != nil {
			// The record reached the OS but its durability is unknown; the
			// log is poisoned (syncLocked did it) and the append reports
			// the failure so the caller does not ack the record.
			return 0, err
		}
	}
	return seq, nil
}

// syncDueLocked evaluates the sync policy for the append just performed.
func (l *Log) syncDueLocked() bool {
	if l.opts.SyncEvery <= 1 {
		return true
	}
	if l.unsynced >= l.opts.SyncEvery {
		return true
	}
	return l.opts.SyncInterval > 0 && l.now().Sub(l.lastSync) >= l.opts.SyncInterval
}

// Sync forces an fsync of the active segment, making every appended record
// durable regardless of policy.
//
//spatialvet:ignore deadexport (d) safety code: the durability flush, regardless of sync policy
func (l *Log) Sync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	if l.err != nil {
		return l.err
	}
	if l.unsynced == 0 {
		return nil
	}
	return l.syncLocked()
}

// syncLocked fsyncs the active segment. A failed fsync leaves an unknowable
// amount of data durable, so it poisons the log — the post-fsync-failure
// world is only re-enterable through Open's validation.
func (l *Log) syncLocked() error {
	if err := l.opts.Fault.Hit("wal.sync"); err != nil {
		l.poison(fmt.Errorf("wal: sync: %w", err))
		return l.err
	}
	start := l.now()
	if err := l.f.Sync(); err != nil {
		l.poison(fmt.Errorf("wal: sync: %w", err))
		return l.err
	}
	l.opts.Obs.Observe("wal.fsync_ns", float64(l.now().Sub(start).Nanoseconds()))
	l.lastSync = l.now()
	l.unsynced = 0
	return nil
}

// rotateLocked seals the active segment and opens the next one. The old
// segment is fsynced before the switch so rotation never weakens the
// durability the policy already granted.
func (l *Log) rotateLocked() error {
	if err := l.opts.Fault.Hit("wal.rotate"); err != nil {
		return fmt.Errorf("wal: rotate: %w", err)
	}
	if l.unsynced > 0 {
		if err := l.syncLocked(); err != nil {
			return err
		}
	}
	if err := l.f.Close(); err != nil {
		l.poison(fmt.Errorf("wal: rotate: sealing segment: %w", err))
		return l.err
	}
	if err := l.openSegment(l.nextSeq); err != nil {
		l.poison(fmt.Errorf("wal: rotate: %w", err))
		return l.err
	}
	l.opts.Obs.Count("wal.rotations", 1)
	l.publishGauges()
	return nil
}

// TruncateThrough deletes every segment whose records ALL have sequence <=
// seq — the checkpoint-coordinated reclamation: call it with the sequence a
// just-made-durable checkpoint embeds, and the WAL shrinks to the suffix a
// restart would actually replay. The active segment is never deleted, and a
// segment is only deleted when the NEXT segment's existence proves its
// upper bound.
func (l *Log) TruncateThrough(seq uint64) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	if err := l.opts.Fault.Hit("wal.truncate"); err != nil {
		return fmt.Errorf("wal: truncate: %w", err)
	}
	removed := 0
	for len(l.segs) > 1 && l.segs[0].lastSeq <= seq {
		if err := os.Remove(l.segs[0].path); err != nil {
			return fmt.Errorf("wal: truncate: %w", err)
		}
		l.segs = l.segs[1:]
		removed++
	}
	if removed > 0 {
		if err := syncDir(l.dir); err != nil {
			return fmt.Errorf("wal: truncate: %w", err)
		}
		l.opts.Obs.Count("wal.truncated_segments", int64(removed))
		l.publishGauges()
	}
	return nil
}

// Replay streams every surviving record with sequence > afterSeq, in
// order, to fn. It reads the validated in-memory chain, so it must run
// after Open and reflects exactly the clean prefix recovery established.
// fn returning an error aborts the replay with that error; records already
// delivered stay delivered (the caller's application state is theirs).
func (l *Log) Replay(afterSeq uint64, fn func(seq uint64, payload []byte) error) error {
	l.mu.Lock()
	segs := append([]segment(nil), l.segs...)
	l.mu.Unlock()
	replayed := int64(0)
	for _, s := range segs {
		if s.lastSeq < s.firstSeq || s.lastSeq <= afterSeq {
			continue // empty, or entirely covered by the checkpoint
		}
		data, err := os.ReadFile(s.path)
		if err != nil {
			return err
		}
		if int64(len(data)) < s.size {
			return fmt.Errorf("%w: segment %s shrank under an open log", ErrWAL, filepath.Base(s.path))
		}
		off := int64(headerSize)
		for seq := s.firstSeq; seq <= s.lastSeq; seq++ {
			n, _, ok := readFrame(data, off, seq)
			if !ok {
				return fmt.Errorf("%w: segment %s frame %d invalid on replay", ErrWAL, filepath.Base(s.path), seq)
			}
			if seq > afterSeq {
				plen := binary.LittleEndian.Uint32(data[off : off+4])
				if err := fn(seq, data[off+12:off+12+int64(plen)]); err != nil {
					return err
				}
				replayed++
			}
			off += n
		}
	}
	l.opts.Obs.Count("wal.replayed", replayed)
	return nil
}

// Close syncs outstanding appends and closes the active segment. The log
// rejects all further operations.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	l.closed = true
	var err error
	if l.err == nil && l.unsynced > 0 {
		err = l.syncLocked()
	}
	if cerr := l.f.Close(); err == nil {
		err = cerr
	}
	return err
}

// poison marks the log failed-until-reopened.
func (l *Log) poison(err error) {
	if l.err == nil {
		l.err = err
	}
}

// publishGauges refreshes the segment-shape gauges. Caller holds mu.
func (l *Log) publishGauges() {
	l.opts.Obs.SetGauge("wal.segments", float64(len(l.segs)))
	if n := len(l.segs); n > 0 {
		l.opts.Obs.SetGauge("wal.open_segment_bytes", float64(l.segs[n-1].size))
	}
}

// syncDir fsyncs a directory, making just-performed creates/removes/renames
// durable (the atomicWrite discipline).
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	serr := d.Sync()
	if cerr := d.Close(); serr == nil {
		serr = cerr
	}
	return serr
}

// EncodeRecord serializes one spatial record as a WAL payload: lat, lon,
// value count, values — all little-endian float64 bit patterns. The
// encoding is positional and self-contained so replay needs no schema
// beyond the receiving stream's own attribute count.
func EncodeRecord(rec grid.Record) []byte {
	buf := make([]byte, 8+8+4+8*len(rec.Values))
	le := binary.LittleEndian
	le.PutUint64(buf[0:8], math.Float64bits(rec.Lat))
	le.PutUint64(buf[8:16], math.Float64bits(rec.Lon))
	le.PutUint32(buf[16:20], uint32(len(rec.Values)))
	for i, v := range rec.Values {
		le.PutUint64(buf[20+8*i:28+8*i], math.Float64bits(v))
	}
	return buf
}

// DecodeRecord parses an EncodeRecord payload. Malformed payloads return an
// ErrWAL-wrapped error, never panic.
func DecodeRecord(payload []byte) (grid.Record, error) {
	if len(payload) < 20 {
		return grid.Record{}, fmt.Errorf("%w: record payload of %d bytes is shorter than its header", ErrWAL, len(payload))
	}
	le := binary.LittleEndian
	n := int(le.Uint32(payload[16:20]))
	if n < 0 || len(payload) != 20+8*n {
		return grid.Record{}, fmt.Errorf("%w: record payload of %d bytes does not hold %d values", ErrWAL, len(payload), n)
	}
	rec := grid.Record{
		Lat:    math.Float64frombits(le.Uint64(payload[0:8])),
		Lon:    math.Float64frombits(le.Uint64(payload[8:16])),
		Values: make([]float64, n),
	}
	for i := range rec.Values {
		rec.Values[i] = math.Float64frombits(le.Uint64(payload[20+8*i : 28+8*i]))
	}
	return rec, nil
}
