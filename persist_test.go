package dynq

import (
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"dynq/internal/pager"
	"dynq/internal/rtree"
)

func validMetaBytes() []byte {
	m := rtree.Meta{Root: 3, Height: 2, Size: 100, ModSeq: 7, Config: rtree.DefaultConfig()}
	return encodeMeta(m, 0)
}

func TestDecodeMetaRoundTrip(t *testing.T) {
	cfg := rtree.DefaultConfig()
	cfg.Dims = 3
	cfg.DualTime = true
	in := rtree.Meta{Root: 42, Height: 4, Size: 12345, ModSeq: 99, Config: cfg}
	out, lsn, err := decodeMeta(encodeMeta(in, 777))
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if out.Root != in.Root || out.Height != in.Height || out.Size != in.Size ||
		out.ModSeq != in.ModSeq || out.Config.Dims != 3 || !out.Config.DualTime {
		t.Fatalf("round trip mismatch: %+v != %+v", out, in)
	}
	if lsn != 777 {
		t.Fatalf("applied LSN = %d, want 777", lsn)
	}
}

// TestDecodeMetaAcceptsVersion1 checks the upgrade path: a 28-byte
// version-1 header (pre-WAL) decodes with an applied LSN of 0.
func TestDecodeMetaAcceptsVersion1(t *testing.T) {
	b := validMetaBytes()[:metaLenV1]
	b[0] = metaVersion1
	m, lsn, err := decodeMeta(b)
	if err != nil {
		t.Fatalf("decode v1: %v", err)
	}
	if lsn != 0 || m.Root != 3 || m.Height != 2 || m.Size != 100 {
		t.Fatalf("v1 decode = (%+v, %d), want original fields with LSN 0", m, lsn)
	}
}

// TestDecodeMetaRejectsCorruption drives every validation branch: each
// mutation must produce a descriptive error wrapping ErrCorrupt, never a
// silently-accepted bogus config.
func TestDecodeMetaRejectsCorruption(t *testing.T) {
	cases := []struct {
		name    string
		mutate  func(b []byte) []byte
		wantSub string
	}{
		{"empty", func(b []byte) []byte { return nil }, "no database metadata"},
		{"truncated", func(b []byte) []byte { return b[:metaLenV1-1] }, "truncated"},
		{"truncated v2", func(b []byte) []byte { return b[:metaLen-1] }, "truncated"},
		{"bad version", func(b []byte) []byte { b[0] = 9; return b }, "version"},
		{"dims zero", func(b []byte) []byte { b[1] = 0; return b }, "dimensionality"},
		{"dims huge", func(b []byte) []byte { b[1] = 200; return b }, "dimensionality"},
		{"dual flag", func(b []byte) []byte { b[2] = 7; return b }, "dual-time"},
		{"split policy", func(b []byte) []byte { b[3] = 3; return b }, "split policy"},
		{"height huge", func(b []byte) []byte {
			binary.LittleEndian.PutUint32(b[8:], 1<<20)
			return b
		}, "height"},
		{"size huge", func(b []byte) []byte {
			binary.LittleEndian.PutUint64(b[12:], 1<<50)
			return b
		}, "segment count"},
		{"root without height", func(b []byte) []byte {
			binary.LittleEndian.PutUint32(b[8:], 0)
			return b
		}, "inconsistent"},
		{"height without root", func(b []byte) []byte {
			binary.LittleEndian.PutUint32(b[4:], uint32(pager.InvalidPage))
			return b
		}, "inconsistent"},
		{"empty with segments", func(b []byte) []byte {
			binary.LittleEndian.PutUint32(b[4:], uint32(pager.InvalidPage))
			binary.LittleEndian.PutUint32(b[8:], 0)
			return b
		}, "claims"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, _, err := decodeMeta(tc.mutate(validMetaBytes()))
			if err == nil {
				t.Fatal("corrupt metadata accepted")
			}
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("error does not wrap ErrCorrupt: %v", err)
			}
			if !strings.Contains(err.Error(), tc.wantSub) {
				t.Fatalf("error %q does not mention %q", err, tc.wantSub)
			}
		})
	}
}

// TestOpenFileWithOldSplitPolicy: a page file whose metadata names the
// quadratic (0), linear (1) or R*-axis (2) split still opens, grows by the
// R*-axis split, and commits split byte 2. Byte 0 comes from
// testdata/split-quadratic.dynq, 256 segments under a two-level tree that
// a build splitting quadratically wrote; bytes 1 and 2 are set on a file
// written here.
func TestOpenFileWithOldSplitPolicy(t *testing.T) {
	for _, old := range []byte{0, 1, 2} {
		path := filepath.Join(t.TempDir(), "old.dynq")
		if old == 0 {
			raw, err := os.ReadFile(filepath.Join("testdata", "split-quadratic.dynq"))
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, raw, 0o644); err != nil {
				t.Fatal(err)
			}
		} else {
			db, err := Open(Options{Path: path})
			if err != nil {
				t.Fatal(err)
			}
			populate(t, db, 20, 1)
			if err := db.Sync(); err != nil {
				t.Fatal(err)
			}
			if err := db.Close(); err != nil {
				t.Fatal(err)
			}
			setSplitByte(t, path, old)
		}
		if got := splitByte(t, path); got != old {
			t.Fatalf("file carries split byte %d, want %d", got, old)
		}

		db, _, err := OpenFileRecoverWith(path, RecoverOptions{})
		if err != nil {
			t.Fatalf("split byte %d: reopen: %v", old, err)
		}
		before := db.Len()
		if err := db.Validate(); err != nil {
			t.Fatalf("split byte %d: as written: %v", old, err)
		}
		populate(t, db, 50, 2) // enough inserts to split leaves
		if err := db.Validate(); err != nil {
			t.Fatalf("split byte %d: %v", old, err)
		}
		if err := db.Sync(); err != nil {
			t.Fatal(err)
		}
		after := db.Len()
		if err := db.Close(); err != nil {
			t.Fatal(err)
		}
		if got := splitByte(t, path); got != metaSplitRStar {
			t.Fatalf("split byte %d: the next commit wrote split byte %d, want %d", old, got, metaSplitRStar)
		}
		db, _, err = OpenFileRecoverWith(path, RecoverOptions{})
		if err != nil {
			t.Fatalf("split byte %d: reopen after commit: %v", old, err)
		}
		if db.Len() != after || after <= before {
			t.Fatalf("split byte %d: %d segments after reopen, %d before the inserts, %d after", old, db.Len(), before, after)
		}
		db.Close()
	}
}

// splitByte reads the split-policy byte of a page file's metadata.
func splitByte(t *testing.T, path string) byte {
	t.Helper()
	fs, err := pager.OpenFileStore(path)
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Close()
	return fs.Aux()[3]
}

// setSplitByte commits metadata naming split policy b.
func setSplitByte(t *testing.T, path string, b byte) {
	t.Helper()
	fs, err := pager.OpenFileStore(path)
	if err != nil {
		t.Fatal(err)
	}
	aux := append([]byte(nil), fs.Aux()...)
	aux[3] = b
	if err := fs.SetAux(aux); err != nil {
		t.Fatal(err)
	}
	if err := fs.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := fs.Close(); err != nil {
		t.Fatal(err)
	}
}

// FuzzDecodeMeta asserts decodeMeta never panics and never accepts bytes
// that re-encode differently — acceptance means every field was in
// range, so encode(decode(x)) must reproduce the input exactly, except
// that every split byte it accepts (0, 1 or 2) re-encodes as 2, the
// R*-axis split's. The committed corpus holds a header naming each of the
// three (split-quadratic, split-linear, split-rstar) and one naming an
// unknown policy (split-unknown).
func FuzzDecodeMeta(f *testing.F) {
	f.Add(validMetaBytes())
	empty := encodeMeta(rtree.Meta{Root: pager.InvalidPage, Config: rtree.DefaultConfig()}, 0)
	f.Add(empty)
	f.Add([]byte{})
	f.Add([]byte{1})
	f.Add([]byte{2, 2, 0, 0, 3, 0, 0, 0, 1, 0, 0, 0, 5, 0, 0, 0, 0, 0, 0, 0, 9, 0, 0, 0, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		m, lsn, err := decodeMeta(data)
		if err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("rejection not typed as ErrCorrupt: %v", err)
			}
			return
		}
		// Acceptance means every field was in range, so re-encoding must
		// reproduce the input. Version-1 inputs (no LSN field) re-encode
		// as version 2: compare the shared fields and require LSN 0.
		re := encodeMeta(m, lsn)
		data = append([]byte(nil), data...)
		data[3] = metaSplitRStar
		switch data[0] {
		case metaVersion1:
			if lsn != 0 || len(data) < metaLenV1 || string(re[1:metaLenV1]) != string(data[1:metaLenV1]) {
				t.Fatalf("accepted v1 metadata does not round-trip:\n in  %x\n out %x", data, re)
			}
		default:
			if len(data) < metaLen || string(re) != string(data[:metaLen]) {
				t.Fatalf("accepted metadata does not round-trip:\n in  %x\n out %x", data, re)
			}
		}
	})
}
