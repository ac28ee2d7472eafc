package wal

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"spatialrepart/internal/fault"
	"spatialrepart/internal/grid"
	"spatialrepart/internal/obs"
)

// payloadFor builds the deterministic payload for sequence i used across the
// tests: content depends on the sequence, so a replayed record can be checked
// for identity, not just presence.
func payloadFor(i uint64) []byte {
	return []byte(fmt.Sprintf("record-%04d-%s", i, string(rune('a'+i%26))))
}

// appendN appends sequences [from, from+n) and asserts the assigned numbers.
func appendN(t *testing.T, l *Log, from uint64, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		want := from + uint64(i)
		seq, err := l.Append(payloadFor(want))
		if err != nil {
			t.Fatalf("append %d: %v", want, err)
		}
		if seq != want {
			t.Fatalf("append assigned seq %d, want %d", seq, want)
		}
	}
}

// durableSeq returns the highest sequence known to be fsynced: every
// assigned sequence but the appends since the last fsync.
func durableSeq(l *Log) uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.nextSeq - 1 - uint64(l.unsynced)
}

// collect replays records after afterSeq into a map and asserts order and
// contiguity.
func collect(t *testing.T, l *Log, afterSeq uint64) map[uint64][]byte {
	t.Helper()
	got := map[uint64][]byte{}
	prev := afterSeq
	if err := l.Replay(afterSeq, func(seq uint64, payload []byte) error {
		if seq != prev+1 {
			t.Fatalf("replay out of order: seq %d after %d", seq, prev)
		}
		prev = seq
		got[seq] = append([]byte(nil), payload...)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return got
}

func TestAppendReplayRoundTrip(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, l, 1, 25)
	if got := durableSeq(l); got != 25 {
		t.Errorf("DurableSeq = %d, want 25 (sync-every-append)", got)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	l2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if got := l2.nextSeq; got != 26 {
		t.Fatalf("reopened NextSeq = %d, want 26", got)
	}
	got := collect(t, l2, 0)
	if len(got) != 25 {
		t.Fatalf("replayed %d records, want 25", len(got))
	}
	for i := uint64(1); i <= 25; i++ {
		if !bytes.Equal(got[i], payloadFor(i)) {
			t.Fatalf("seq %d payload = %q, want %q", i, got[i], payloadFor(i))
		}
	}
	// Exactly-once suffix semantics: replay after 20 yields 21..25 only.
	suffix := collect(t, l2, 20)
	if len(suffix) != 5 {
		t.Fatalf("suffix replay returned %d records, want 5", len(suffix))
	}
	if _, ok := suffix[20]; ok {
		t.Error("suffix replay delivered the covered sequence 20")
	}
}

func TestSegmentRotationAndTruncation(t *testing.T) {
	dir := t.TempDir()
	// Payloads are ~16 bytes, frames ~32: a 128-byte segment holds a handful.
	l, err := Open(dir, Options{SegmentBytes: 128})
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, l, 1, 40)
	if len(l.segs) < 3 {
		t.Fatalf("only %d segments after 40 appends at 128-byte rotation", len(l.segs))
	}
	segsBefore := len(l.segs)

	// Everything replays across the rotation boundaries.
	got := collect(t, l, 0)
	if len(got) != 40 {
		t.Fatalf("replayed %d records, want 40", len(got))
	}

	// Truncation through seq 20 keeps every record after 20 replayable.
	if err := l.TruncateThrough(20); err != nil {
		t.Fatal(err)
	}
	if len(l.segs) >= segsBefore {
		t.Errorf("truncation removed no segments (%d before, %d after)", segsBefore, len(l.segs))
	}
	suffix := collect(t, l, 20)
	for i := uint64(21); i <= 40; i++ {
		if !bytes.Equal(suffix[i], payloadFor(i)) {
			t.Fatalf("post-truncation seq %d payload mismatch", i)
		}
	}

	// The active segment is never deleted, even when fully covered.
	if err := l.TruncateThrough(40); err != nil {
		t.Fatal(err)
	}
	if len(l.segs) < 1 {
		t.Fatal("truncation deleted the active segment")
	}
	appendN(t, l, 41, 3)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	l2, err := Open(dir, Options{SegmentBytes: 128})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	tail := collect(t, l2, 40)
	if len(tail) != 3 {
		t.Fatalf("after reopen, suffix replay returned %d records, want 3", len(tail))
	}
}

func TestTornTailRecovery(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, l, 1, 10)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	// Simulate a crash mid-append: garbage bytes (a torn frame) at the tail.
	segs, err := filepath.Glob(filepath.Join(dir, "wal-*.seg"))
	if err != nil || len(segs) != 1 {
		t.Fatalf("glob: %v, %d segments", err, len(segs))
	}
	f, err := os.OpenFile(segs[0], os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0x05, 0x00, 0x00, 0x00, 0xde, 0xad}); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	l2, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("Open failed on a torn tail: %v", err)
	}
	defer l2.Close()
	if got := l2.nextSeq; got != 11 {
		t.Fatalf("NextSeq after torn-tail recovery = %d, want 11", got)
	}
	got := collect(t, l2, 0)
	if len(got) != 10 {
		t.Fatalf("replayed %d records, want the clean 10-record prefix", len(got))
	}
	// The log keeps appending cleanly over the truncated tail.
	appendN(t, l2, 11, 2)
	if got := collect(t, l2, 0); len(got) != 12 {
		t.Fatalf("post-recovery appends not replayable: %d records", len(got))
	}
}

func TestCorruptMiddleSegmentDropsSuffix(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{SegmentBytes: 128})
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, l, 1, 30)
	if len(l.segs) < 2 {
		t.Fatalf("need at least 2 segments, got %d", len(l.segs))
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	segs, err := filepath.Glob(filepath.Join(dir, "wal-*.seg"))
	if err != nil {
		t.Fatal(err)
	}
	// Flip one payload byte in the FIRST segment: the prefix ends there and
	// every later segment must be discarded — prefix consistency over
	// salvage.
	data, err := os.ReadFile(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	data[headerSize+frameOverhead-2] ^= 0xff
	if err := os.WriteFile(segs[0], data, 0o644); err != nil {
		t.Fatal(err)
	}

	l2, err := Open(dir, Options{SegmentBytes: 128})
	if err != nil {
		t.Fatalf("Open failed on mid-chain corruption: %v", err)
	}
	defer l2.Close()
	got := collect(t, l2, 0)
	for seq := range got {
		if !bytes.Equal(got[seq], payloadFor(seq)) {
			t.Fatalf("replayed wrong payload at seq %d", seq)
		}
	}
	if len(got) != 0 {
		// Frame 1 was corrupted, so the valid prefix is empty.
		t.Fatalf("replay after first-frame corruption returned %d records, want 0", len(got))
	}
	if len(l2.segs) != 1 {
		t.Errorf("corrupted chain kept %d segments, want 1", len(l2.segs))
	}
}

func TestStampRejectsCrossWiredDir(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{Stamp: "rows=8 cols=8 shard=0/2"})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	// Same stamp reopens.
	l2, err := Open(dir, Options{Stamp: "rows=8 cols=8 shard=0/2"})
	if err != nil {
		t.Fatalf("matching stamp rejected: %v", err)
	}
	if err := l2.Close(); err != nil {
		t.Fatal(err)
	}
	// A different shard (or geometry) is rejected with ErrWAL.
	if _, err := Open(dir, Options{Stamp: "rows=8 cols=8 shard=1/2"}); !errors.Is(err, ErrWAL) {
		t.Fatalf("cross-wired stamp error = %v, want ErrWAL", err)
	}
}

func TestSyncPolicies(t *testing.T) {
	t.Run("every-n", func(t *testing.T) {
		l, err := Open(t.TempDir(), Options{SyncEvery: 3})
		if err != nil {
			t.Fatal(err)
		}
		defer l.Close()
		appendN(t, l, 1, 2)
		if got := durableSeq(l); got != 0 {
			t.Errorf("DurableSeq after 2/3 appends = %d, want 0", got)
		}
		appendN(t, l, 3, 1)
		if got := durableSeq(l); got != 3 {
			t.Errorf("DurableSeq after 3/3 appends = %d, want 3", got)
		}
		appendN(t, l, 4, 1)
		if err := l.Sync(); err != nil {
			t.Fatal(err)
		}
		if got := durableSeq(l); got != 4 {
			t.Errorf("DurableSeq after explicit Sync = %d, want 4", got)
		}
	})
	t.Run("interval", func(t *testing.T) {
		now := time.Unix(0, 0)
		clock := func() time.Time { return now }
		l, err := Open(t.TempDir(), Options{SyncEvery: 1000, SyncInterval: time.Second, Now: clock})
		if err != nil {
			t.Fatal(err)
		}
		defer l.Close()
		appendN(t, l, 1, 2)
		if got := durableSeq(l); got != 0 {
			t.Errorf("DurableSeq before the interval = %d, want 0", got)
		}
		now = now.Add(time.Second)
		appendN(t, l, 3, 1)
		if got := durableSeq(l); got != 3 {
			t.Errorf("DurableSeq after the interval elapsed = %d, want 3", got)
		}
	})
}

func TestFaultPoints(t *testing.T) {
	t.Run("append", func(t *testing.T) {
		inj := fault.New(1)
		inj.Set("wal.append", fault.Plan{Count: 1})
		l, err := Open(t.TempDir(), Options{Fault: inj})
		if err != nil {
			t.Fatal(err)
		}
		defer l.Close()
		if _, err := l.Append([]byte("x")); !errors.Is(err, fault.ErrInjected) {
			t.Fatalf("append error = %v, want injected", err)
		}
		// The failed append consumed no sequence; the next one gets seq 1.
		seq, err := l.Append([]byte("x"))
		if err != nil || seq != 1 {
			t.Fatalf("append after injected failure = (%d, %v), want (1, nil)", seq, err)
		}
	})
	t.Run("sync-poisons", func(t *testing.T) {
		dir := t.TempDir()
		inj := fault.New(1)
		inj.Set("wal.sync", fault.Plan{Count: 1})
		l, err := Open(dir, Options{Fault: inj})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := l.Append([]byte("x")); !errors.Is(err, fault.ErrInjected) {
			t.Fatalf("append error = %v, want injected sync failure", err)
		}
		// Unknown durability: the log is poisoned until reopened.
		if _, err := l.Append([]byte("y")); !errors.Is(err, fault.ErrInjected) {
			t.Fatalf("poisoned append error = %v, want the original injected error", err)
		}
		l.Close() //spatialvet:ignore errdrop closing a poisoned log; the poison error is already asserted
		l2, err := Open(dir, Options{})
		if err != nil {
			t.Fatal(err)
		}
		defer l2.Close()
		// The record reached the OS before the injected fsync failure; on
		// this filesystem it survived, and recovery accepts it as prefix.
		got := collect(t, l2, 0)
		if len(got) > 1 {
			t.Fatalf("recovered %d records after poisoned sync, want <= 1", len(got))
		}
	})
	t.Run("torn-append", func(t *testing.T) {
		dir := t.TempDir()
		inj := fault.New(1)
		inj.Set("wal.append.torn", fault.Plan{First: 2, Count: 1})
		l, err := Open(dir, Options{Fault: inj})
		if err != nil {
			t.Fatal(err)
		}
		appendN(t, l, 1, 2)
		if _, err := l.Append(payloadFor(3)); !errors.Is(err, fault.ErrInjected) {
			t.Fatalf("torn append error = %v, want injected", err)
		}
		l.Close() //spatialvet:ignore errdrop closing a poisoned log; the torn-append error is already asserted

		l2, err := Open(dir, Options{})
		if err != nil {
			t.Fatalf("recovery from a torn frame failed: %v", err)
		}
		defer l2.Close()
		got := collect(t, l2, 0)
		if len(got) != 2 {
			t.Fatalf("recovered %d records, want the 2 acked ones", len(got))
		}
		// The torn sequence was never acked; it is reassigned cleanly.
		if next := l2.nextSeq; next != 3 {
			t.Fatalf("NextSeq after torn recovery = %d, want 3", next)
		}
	})
	t.Run("rotate-and-truncate", func(t *testing.T) {
		inj := fault.New(1)
		inj.Set("wal.rotate", fault.Plan{Count: 1})
		inj.Set("wal.truncate", fault.Plan{Count: 1})
		l, err := Open(t.TempDir(), Options{SegmentBytes: 64, Fault: inj})
		if err != nil {
			t.Fatal(err)
		}
		defer l.Close()
		appendN(t, l, 1, 1)
		// The next append needs a rotation, which is armed to fail; the
		// append fails without consuming a sequence and the log stays usable.
		if _, err := l.Append(payloadFor(2)); !errors.Is(err, fault.ErrInjected) {
			t.Fatalf("rotate-blocked append error = %v, want injected", err)
		}
		appendN(t, l, 2, 1)
		if err := l.TruncateThrough(1); !errors.Is(err, fault.ErrInjected) {
			t.Fatalf("truncate error = %v, want injected", err)
		}
		if err := l.TruncateThrough(1); err != nil {
			t.Fatalf("truncate after plan exhausted: %v", err)
		}
	})
}

func TestObsMetrics(t *testing.T) {
	o := obs.New()
	l, err := Open(t.TempDir(), Options{SegmentBytes: 96, Obs: o})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	appendN(t, l, 1, 20)
	if err := l.TruncateThrough(10); err != nil {
		t.Fatal(err)
	}
	if n := collect(t, l, 10); len(n) != 10 {
		t.Fatalf("replayed %d", len(n))
	}
	snap := o.Registry().Snapshot()
	if got := snap.Counters["wal.appended"]; got != 20 {
		t.Errorf("wal.appended = %d, want 20", got)
	}
	if got := snap.Counters["wal.replayed"]; got != 10 {
		t.Errorf("wal.replayed = %d, want 10", got)
	}
	if got := snap.Counters["wal.truncated_segments"]; got < 1 {
		t.Errorf("wal.truncated_segments = %d, want >= 1", got)
	}
	if got := snap.Counters["wal.rotations"]; got < 1 {
		t.Errorf("wal.rotations = %d, want >= 1", got)
	}
	if h, ok := snap.Histograms["wal.fsync_ns"]; !ok || h.Count < 20 {
		t.Errorf("wal.fsync_ns histogram missing or undercounted: %+v", h)
	}
	if _, ok := snap.Gauges["wal.open_segment_bytes"]; !ok {
		t.Error("wal.open_segment_bytes gauge missing")
	}
}

func TestRecordCodecRoundTrip(t *testing.T) {
	recs := []grid.Record{
		{Lat: 1.5, Lon: -2.25, Values: []float64{1, 2, 3}},
		{Lat: 0, Lon: 0, Values: nil},
		{Lat: -90, Lon: 180, Values: []float64{-0.0, 1e300}},
	}
	for i, rec := range recs {
		got, err := DecodeRecord(EncodeRecord(rec))
		if err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
		if got.Lat != rec.Lat || got.Lon != rec.Lon || len(got.Values) != len(rec.Values) {
			t.Fatalf("record %d roundtrip = %+v, want %+v", i, got, rec)
		}
		for k := range rec.Values {
			if got.Values[k] != rec.Values[k] {
				t.Fatalf("record %d value %d mismatch", i, k)
			}
		}
	}
	for _, bad := range [][]byte{nil, {1, 2, 3}, make([]byte, 21), make([]byte, 19)} {
		if _, err := DecodeRecord(bad); !errors.Is(err, ErrWAL) {
			t.Errorf("DecodeRecord(%d bytes) error = %v, want ErrWAL", len(bad), err)
		}
	}
}

// TestSegmentTruncationSweep mirrors the PR-5 checkpoint truncation sweep:
// EVERY byte prefix of the final segment — the exact family of states a
// crash mid-append can leave — must recover to a clean record prefix, with
// each surviving record byte-identical to the original, and the earlier
// segment untouched.
func TestSegmentTruncationSweep(t *testing.T) {
	master := t.TempDir()
	l, err := Open(master, Options{SegmentBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, l, 1, 20)
	if len(l.segs) < 2 {
		t.Fatalf("sweep needs >= 2 segments, got %d", len(l.segs))
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	segs, err := filepath.Glob(filepath.Join(master, "wal-*.seg"))
	if err != nil {
		t.Fatal(err)
	}
	lastPath := segs[len(segs)-1]
	lastData, err := os.ReadFile(lastPath)
	if err != nil {
		t.Fatal(err)
	}
	firstData, err := os.ReadFile(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	var lastFirstSeq uint64
	{
		lr, err := Open(master, Options{SegmentBytes: 256})
		if err != nil {
			t.Fatal(err)
		}
		full := collect(t, lr, 0)
		if len(full) != 20 {
			t.Fatalf("full log replays %d records", len(full))
		}
		lr.Close() //spatialvet:ignore errdrop read-only reference open; nothing was appended
	}
	// Records 1..K live in earlier segments; the last segment starts at
	// lastFirstSeq (from its header).
	lastFirstSeq = uint64(0)
	for _, p := range segs {
		d, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		fs := uint64(0)
		for i := 0; i < 8; i++ {
			fs |= uint64(d[10+i]) << (8 * i)
		}
		if p == lastPath {
			lastFirstSeq = fs
		}
	}

	for cut := 0; cut <= len(lastData); cut++ {
		dir := t.TempDir()
		for _, p := range segs {
			src := firstData
			if p == lastPath {
				src = lastData[:cut]
			} else if p != segs[0] {
				var rerr error
				src, rerr = os.ReadFile(p)
				if rerr != nil {
					t.Fatal(rerr)
				}
			}
			if err := os.WriteFile(filepath.Join(dir, filepath.Base(p)), src, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		l2, err := Open(dir, Options{SegmentBytes: 256})
		if err != nil {
			t.Fatalf("cut %d: Open: %v", cut, err)
		}
		prev := uint64(0)
		if err := l2.Replay(0, func(seq uint64, payload []byte) error {
			if seq != prev+1 {
				t.Fatalf("cut %d: replay gap at seq %d", cut, seq)
			}
			prev = seq
			if !bytes.Equal(payload, payloadFor(seq)) {
				t.Fatalf("cut %d: wrong payload at seq %d", cut, seq)
			}
			return nil
		}); err != nil {
			t.Fatalf("cut %d: replay: %v", cut, err)
		}
		// Every record of the earlier segments survives any damage to the
		// last one; the last segment contributes exactly its whole frames.
		if prev < lastFirstSeq-1 {
			t.Fatalf("cut %d: recovered only %d records, earlier segments lost", cut, prev)
		}
		// A recovered log accepts new appends at the right sequence.
		seq, err := l2.Append([]byte("continue"))
		if err != nil || seq != prev+1 {
			t.Fatalf("cut %d: post-recovery append = (%d, %v), want (%d, nil)", cut, seq, err, prev+1)
		}
		if err := l2.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// FuzzWALReplay is the WAL counterpart of the checkpoint's FuzzRestore:
// arbitrary bytes in the final segment file must yield a clean prefix —
// recovery never panics, never invents a record, never reorders, and every
// replayed payload is byte-identical to what was originally appended at
// that sequence.
func FuzzWALReplay(f *testing.F) {
	master := f.TempDir()
	l, err := Open(master, Options{SegmentBytes: 256})
	if err != nil {
		f.Fatal(err)
	}
	for i := uint64(1); i <= 20; i++ {
		if _, err := l.Append(payloadFor(i)); err != nil {
			f.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		f.Fatal(err)
	}
	segs, err := filepath.Glob(filepath.Join(master, "wal-*.seg"))
	if err != nil || len(segs) < 2 {
		f.Fatalf("glob: %v, %d segments (need >= 2)", err, len(segs))
	}
	var keep [][]byte
	for _, p := range segs {
		d, rerr := os.ReadFile(p)
		if rerr != nil {
			f.Fatal(rerr)
		}
		keep = append(keep, d)
	}
	lastData := keep[len(keep)-1]

	f.Add(lastData)
	f.Add(lastData[:len(lastData)-3])
	f.Add(lastData[:headerSize])
	f.Add([]byte{})
	f.Add([]byte("SPRTWAL1"))
	mut := append([]byte(nil), lastData...)
	mut[len(mut)/2] ^= 0x20
	f.Add(mut)

	names := make([]string, len(segs))
	for i, p := range segs {
		names[i] = filepath.Base(p)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		for i, name := range names {
			src := keep[i]
			if i == len(names)-1 {
				src = data
			}
			if err := os.WriteFile(filepath.Join(dir, name), src, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		l, err := Open(dir, Options{SegmentBytes: 256})
		if err != nil {
			// Structural damage Open rejects outright must be attributed.
			if !errors.Is(err, ErrWAL) {
				t.Fatalf("Open error %v does not wrap ErrWAL", err)
			}
			return
		}
		defer l.Close()
		prev := uint64(0)
		if err := l.Replay(0, func(seq uint64, payload []byte) error {
			if seq != prev+1 {
				t.Fatalf("replay gap: seq %d after %d", seq, prev)
			}
			prev = seq
			if seq <= 20 && !bytes.Equal(payload, payloadFor(seq)) {
				t.Fatalf("replay returned a WRONG record at seq %d: %q", seq, payload)
			}
			if seq > 20 {
				t.Fatalf("replay invented seq %d beyond the %d appended", seq, 20)
			}
			return nil
		}); err != nil {
			t.Fatalf("replay after recovery must be clean, got %v", err)
		}
	})
}
