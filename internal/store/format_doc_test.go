package store

import (
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// TestFormatDocMatchesCode keeps docs/FORMAT.md normative: it parses
// the record-kind table, the magic strings and the size caps out of
// the document and fails when they drift from the code's constants.
// Renaming a kind, changing a tag byte or bumping a version without
// updating the spec (or vice versa) fails here, not in a reader's
// hands.
func TestFormatDocMatchesCode(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "..", "docs", "FORMAT.md"))
	if err != nil {
		t.Fatalf("docs/FORMAT.md must exist: %v", err)
	}
	doc := string(data)
	// Markdown hard-wraps prose; flatten line breaks for the phrase
	// checks (the table regexp runs on the original, line-anchored).
	flat := strings.ReplaceAll(doc, "\n", " ")

	// The record-kind table: rows like "| `0xFD` | tombstone | ... |".
	rowRe := regexp.MustCompile("(?m)^\\| `(0x[0-9A-Fa-f]{2})` \\| ([a-z0-9-]+) \\|")
	got := map[string]byte{}
	for _, m := range rowRe.FindAllStringSubmatch(doc, -1) {
		v, err := strconv.ParseUint(m[1], 0, 8)
		if err != nil {
			t.Fatalf("unparsable kind byte %q in FORMAT.md", m[1])
		}
		got[m[2]] = byte(v)
	}
	want := map[string]byte{
		"event-v1":  codecV1,
		"event-v2":  codecV2,
		"event":     codecVersion,
		"tombstone": kindTombstone,
		"marker-v2": kindMarkerV2,
		// Retired: the doc keeps the row so the byte is never reused,
		// and the code must reject it rather than define it.
		"marker-v1": 0xFF,
	}
	if rec := []byte{want["marker-v1"]}; isMarker(rec) || isTombstone(rec) {
		t.Errorf("retired kind 0x%02X is still dispatched as a marker or tombstone", rec[0])
	} else if _, err := DecodeEvent(rec); err == nil {
		t.Errorf("retired kind 0x%02X decodes as an event", rec[0])
	}
	for name, b := range want {
		db, ok := got[name]
		if !ok {
			t.Errorf("FORMAT.md record-kind table is missing %q (code says 0x%02X)", name, b)
			continue
		}
		if db != b {
			t.Errorf("FORMAT.md says %s = 0x%02X, code says 0x%02X", name, db, b)
		}
	}
	for name, db := range got {
		if _, ok := want[name]; !ok {
			t.Errorf("FORMAT.md documents record kind %q (0x%02X) the code does not define", name, db)
		}
	}

	// Magic strings, rendered the way the doc spells them.
	for _, magic := range []struct {
		name string
		code []byte
	}{
		{"segment", segMagic},
		{"sidecar", sumMagic},
	} {
		lit := fmt.Sprintf("%q", magic.code)
		if !strings.Contains(doc, lit) {
			t.Errorf("FORMAT.md does not spell the %s magic %s", magic.name, lit)
		}
		if len(magic.code) != 8 {
			t.Errorf("%s magic is %d bytes; the doc promises 8", magic.name, len(magic.code))
		}
	}

	// File naming, header size, version bytes and size caps.
	if !strings.Contains(flat, "seg-%08d.log") {
		t.Errorf("FORMAT.md does not state the segment naming scheme %s", "seg-%08d.log")
	}
	if segName(7) != "seg-00000007.log" || sumName(7) != "seg-00000007.sum" {
		t.Errorf("naming scheme drifted: %s / %s", segName(7), sumName(7))
	}
	if !strings.Contains(flat, fmt.Sprintf("record header is %d bytes", recordHeaderBytes)) {
		t.Errorf("FORMAT.md does not state the %d-byte record header", recordHeaderBytes)
	}
	if !strings.Contains(flat, fmt.Sprintf("%d MiB (`maxRecordBytes`)", maxRecordBytes>>20)) {
		t.Errorf("FORMAT.md record size cap drifted from maxRecordBytes = %d MiB", maxRecordBytes>>20)
	}
	if !strings.Contains(flat, fmt.Sprintf("%d MiB (`maxSidecarBytes`)", maxSidecarBytes>>20)) {
		t.Errorf("FORMAT.md sidecar size cap drifted from maxSidecarBytes = %d MiB", maxSidecarBytes>>20)
	}
	// The shard identity file: its name in the directory table, its size
	// cap, and the temporary name it is written under.
	if !strings.Contains(doc, "| `"+identityName+"` | shard identity") {
		t.Errorf("FORMAT.md's directory table has no `%s` row", identityName)
	}
	if !strings.Contains(flat, fmt.Sprintf("at most %d bytes (`maxIdentityBytes`)", maxIdentityBytes)) {
		t.Errorf("FORMAT.md identity size cap drifted from maxIdentityBytes = %d", maxIdentityBytes)
	}
	if tmp := "seg-" + identityName + ".tmp-*"; !strings.Contains(flat, "`"+tmp+"`") || !strings.Contains(tmp, ".tmp") {
		t.Errorf("FORMAT.md does not name the identity's temporary file %s", tmp)
	}
	if codecV1 != 0x01 || codecV2 != 0x02 || codecVersion != 0x03 || sumVersion != 0x01 {
		t.Errorf("version bytes moved (codec 0x%02X/0x%02X/0x%02X, sum 0x%02X); FORMAT.md documents 0x01/0x02/0x03 and 0x01", codecV1, codecV2, codecVersion, sumVersion)
	}
}
