package store

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// Segment file layout:
//
//	8-byte magic "BHSTSEG\x01"
//	repeated records: u32le payload length | u32le CRC-32 (IEEE) | payload
//
// Records are appended in event-closing order. A crash can leave a
// partial record at the tail of the newest segment only; recovery scans
// forward and truncates at the last record whose length and checksum
// verify. Compaction writes a merged segment to a temporary file and
// commits it with an atomic rename, so readers never observe a
// half-written segment under its final name.

var segMagic = []byte("BHSTSEG\x01")

// Record kinds. Every record payload is dispatched on its first byte:
// event payloads start with a codec version (1 to 3), everything else uses
// high-byte tags that can never collide with a codec version.
const (
	kindMarkerV2  = 0xFE // explicit list of superseded segment seqs
	kindTombstone = 0xFD // DeletePrefix erasure record
)

// isMarker reports whether a record payload is a compaction marker,
// the first record of a merged segment: it lists exactly the
// segment sequence numbers the merge superseded, so a crash between the
// merged segment's atomic-rename commit and the removal of the old run
// members cannot double-index events on the next open — recovery skips
// (and removes) precisely the listed leftovers, leaving every other
// segment alone. (The retired 0xFF tag — a one-byte marker superseding
// every lower segment — is not a marker: it reaches the codec, which
// rejects it as an unknown version.)
func isMarker(rec []byte) bool { return len(rec) >= 1 && rec[0] == kindMarkerV2 }

// isTombstone reports whether a record payload is a DeletePrefix
// tombstone.
func isTombstone(rec []byte) bool { return len(rec) >= 1 && rec[0] == kindTombstone }

// seqList is the marker's superseded-seq list: uvarint count, uvarint
// seqs.
var seqList = listOf(codec[uint64]{binary.AppendUvarint, (*decoder).uvarint})

// appendMarkerV2 encodes a tiered compaction marker superseding seqs.
func appendMarkerV2(buf []byte, seqs []uint64) []byte {
	return seqList.put(append(buf, kindMarkerV2), seqs)
}

// markerV2Seqs decodes the superseded sequence list of a v2 marker,
// which must end where the list does.
func markerV2Seqs(rec []byte) ([]uint64, error) {
	d := &decoder{buf: rec[1:]}
	seqs := seqList.get(d)
	if err := d.finish("compaction marker"); err != nil {
		return nil, fmt.Errorf("store: malformed compaction marker: %w", err)
	}
	return seqs, nil
}

// maxRecordBytes bounds a single record so a corrupt length field can't
// trigger a huge allocation during recovery.
const maxRecordBytes = 64 << 20

const recordHeaderBytes = 8

// segName renders the canonical segment file name for a sequence number.
func segName(seq uint64) string {
	return fmt.Sprintf("seg-%08d.log", seq)
}

// parseSegName extracts the sequence number from a segment file name.
func parseSegName(name string) (uint64, bool) {
	rest, ok := strings.CutPrefix(name, "seg-")
	if !ok {
		return 0, false
	}
	rest, ok = strings.CutSuffix(rest, ".log")
	if !ok {
		return 0, false
	}
	seq, err := strconv.ParseUint(rest, 10, 64)
	if err != nil {
		return 0, false
	}
	return seq, true
}

// listDir reads a store directory once: its segment files in ascending
// sequence order, and seq → path for every sidecar (orphans — no
// matching segment — are the caller's to clean). In-flight files (a
// commit interrupted before its rename) are removed unless readOnly.
func listDir(dir string, readOnly bool) (segs []segFile, sums map[uint64]string, err error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, nil, err
	}
	sums = map[uint64]string{}
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		name, path := e.Name(), filepath.Join(dir, e.Name())
		if inFlight(name) {
			if !readOnly {
				os.Remove(path)
			}
		} else if seq, ok := parseSegName(name); ok {
			segs = append(segs, segFile{seq: seq, path: path})
		} else if seq, ok := parseSumName(name); ok {
			sums[seq] = path
		}
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i].seq < segs[j].seq })
	return segs, sums, nil
}

// segDesc is what a segment holds — the one description the store keeps
// of it, from the directory listing through seal to merge. Only describe
// derives one (a sidecar stores the one derived when it was written);
// afterwards only size (a record appended to the active segment) and
// dead (a DeletePrefix killed a record still on disk) move.
type segDesc struct {
	size         int64 // valid byte length
	minStartNano int64 // earliest start over every event record, live or dead; noMinStart when there are none
	events       int   // event records
	dead         int   // of them tombstoned but still on disk: what makes the segment a rewrite candidate
}

// live is the number of event records not dead.
func (d segDesc) live() int { return d.events - d.dead }

// describe derives a segment's description from its valid length and
// its event records with their liveness — what buildSummary takes too.
// Open's build pass, seal (record by record, through add), a merge's
// swap and every sidecar get theirs here, so the earliest start is over
// all records everywhere and noMinStart has this one writer.
func describe(size int64, recs []sumRec) segDesc {
	d := segDesc{size: size, minStartNano: noMinStart}
	for _, r := range recs {
		d.add(r)
	}
	return d
}

// add is describe's step: one more event record in the segment.
func (d *segDesc) add(r sumRec) {
	d.events++
	if r.dead {
		d.dead++
	}
	if nano := r.ev.Start.UTC().UnixNano(); nano < d.minStartNano {
		d.minStartNano = nano
	}
}

// segFile is one segment of the log: where it is, and what it holds
// (zero from listDir until open describes it).
type segFile struct {
	seq  uint64
	path string
	segDesc

	// Lazy-open state (see Open): a sealed segment whose fresh
	// sidecar let open skip decoding it. base/n name the contiguous
	// ordinal block reserved for its live events; sum keeps the summary
	// for query pruning until the first touching query hydrates the
	// segment and clears lazy.
	lazy bool
	sum  *segSummary
	base int32
	n    int32
}

// activeSeg is the segment appends land in: a segment like any other —
// the same description, kept current record by record — plus what only
// the one being written needs.
type activeSeg struct {
	segFile
	file SegmentFile
	part int64 // the time partition its event records share (Options.Policy.Partition)
	// The sidecar accumulator, so seal summarizes without re-reading the
	// file: every event record appended, in file order, dead on arrival
	// included (liveness as of arrival; seal re-judges it), and every
	// non-event record payload.
	recs   []sumRec
	others [][]byte
}

// appendRecord appends one length-prefixed, checksummed record: the one
// record frame, shared by segments and sidecars.
func appendRecord(buf []byte, payload []byte) []byte {
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(payload)))
	buf = binary.LittleEndian.AppendUint32(buf, crc32.ChecksumIEEE(payload))
	return append(buf, payload...)
}

// nextRecord is appendRecord's reader: the payload of the record at the
// start of data and the bytes after it. ok is false when the header is
// short, the length exceeds limit or the data, or the checksum fails.
func nextRecord(data []byte, limit int) (payload, rest []byte, ok bool) {
	if len(data) < recordHeaderBytes {
		return nil, nil, false
	}
	n := int(binary.LittleEndian.Uint32(data[0:4]))
	if n > limit || len(data)-recordHeaderBytes < n {
		return nil, nil, false
	}
	payload = data[recordHeaderBytes : recordHeaderBytes+n]
	if crc32.ChecksumIEEE(payload) != binary.LittleEndian.Uint32(data[4:8]) {
		return nil, nil, false
	}
	return payload, data[recordHeaderBytes+n:], true
}

// scanResult is what readSegment recovered from one segment file.
type scanResult struct {
	// records holds each valid payload, in file order.
	records [][]byte
	// validLen is the byte offset just past the last valid record (or
	// past the magic for an empty segment): the truncation point for
	// crash recovery.
	validLen int64
	// truncated reports whether the file had garbage past validLen — a
	// torn record from a crash, or corruption.
	truncated bool
	// fileSize is the length of the bytes scanned, garbage included.
	fileSize int64
}

// errNotSegment marks a file whose magic is short or wrong — either
// foreign data, or a newest segment torn by a crash between its
// creation and first sync (which Open recovers from).
var errNotSegment = errors.New("store: not a segment file (bad magic)")

// readSegment reads every intact record of a segment. Malformed data —
// short header, absurd length, checksum mismatch, torn payload — ends
// the scan at the last valid record instead of failing the open: the
// tail of the newest segment is exactly what a crash tears. Hard I/O
// errors are returned as errors; a missing magic returns errNotSegment
// so the caller can distinguish a torn newest segment from corruption.
func readSegment(path string) (scanResult, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return scanResult{}, err
	}
	return scanSegment(data, path)
}

// scanSegment runs readSegment's record recovery over bytes already in
// hand — a buffered read or an mmap'd view. The returned records alias
// data; when data is a mapping, every record must be decoded (or
// copied) before the mapping is released.
func scanSegment(data []byte, path string) (scanResult, error) {
	if len(data) < len(segMagic) || string(data[:len(segMagic)]) != string(segMagic) {
		return scanResult{}, fmt.Errorf("%w: %s", errNotSegment, path)
	}
	res := scanResult{validLen: int64(len(segMagic)), fileSize: int64(len(data))}
	for rest := data[len(segMagic):]; len(rest) > 0; {
		payload, next, ok := nextRecord(rest, maxRecordBytes)
		if !ok {
			res.truncated = true
			break
		}
		res.records = append(res.records, payload)
		rest = next
		res.validLen = int64(len(data) - len(rest))
	}
	return res, nil
}

// openSegmentFile is Options.OpenSegment's default: the real file.
func openSegmentFile(path string, create bool) (SegmentFile, error) {
	flags := os.O_WRONLY | os.O_APPEND
	if create {
		flags = os.O_CREATE | os.O_EXCL | os.O_WRONLY
	}
	f, err := os.OpenFile(path, flags, 0o644)
	if err != nil {
		return nil, err
	}
	return f, nil
}

// createSegment creates a fresh segment file through opener, with its
// magic written, open for appending.
func createSegment(opener func(path string, create bool) (SegmentFile, error), path string) (SegmentFile, error) {
	f, err := opener(path, true)
	if err != nil {
		return nil, err
	}
	if _, err := f.Write(segMagic); err != nil {
		f.Close()
		os.Remove(path)
		return nil, err
	}
	return f, nil
}

// writeSegmentAtomic commits a complete segment (magic + records)
// durably under dir/name and returns its length in bytes.
func writeSegmentAtomic(dir, name string, payloads [][]byte) (size int64, err error) {
	err = CommitFile(dir, name, true, func(w *bufio.Writer) error {
		if _, err := w.Write(segMagic); err != nil {
			return err
		}
		size = int64(len(segMagic))
		var buf []byte
		for _, p := range payloads {
			buf = appendRecord(buf[:0], p)
			if _, err := w.Write(buf); err != nil {
				return err
			}
			size += int64(len(buf))
		}
		return nil
	})
	return size, err
}
