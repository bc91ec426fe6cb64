package main

import (
	"bytes"
	"compress/gzip"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/graph/gio"
	"repro/internal/graph/gstore"
)

// TestUnknownFormatIsUsageError pins the satellite contract: a bogus
// -format exits 2 with a usage message instead of silently defaulting,
// and is rejected before any generation work (the -n here would
// otherwise take noticeable time).
func TestUnknownFormatIsUsageError(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := run([]string{"-format", "bogus", "-n", "2000000", "-out", filepath.Join(t.TempDir(), "g.txt")},
		&stdout, &stderr)
	if code != 2 {
		t.Fatalf("exit code = %d, want 2", code)
	}
	msg := stderr.String()
	if !strings.Contains(msg, `unknown -format "bogus"`) {
		t.Fatalf("stderr missing format diagnosis: %q", msg)
	}
	if !strings.Contains(msg, "Usage of gengraph") {
		t.Fatalf("stderr missing usage: %q", msg)
	}
}

func TestMissingOutIsUsageError(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-type", "er", "-n", "10"}, &stdout, &stderr); code != 2 {
		t.Fatalf("exit code = %d, want 2", code)
	}
}

// TestFormats runs every -format/-out pairing on a tiny graph: the ones
// that write are reloaded through the auto-detecting loader and must be
// in the format the row names; the refused ones exit 2 with the row's
// message before anything is generated or written. auto goes by the
// file name's suffix alone, never by a directory's.
func TestFormats(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "runs.bin")
	if err := os.Mkdir(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		format, file string
		csr          bool   // the written file is gstore CSR, not edge-list text
		refused      string // non-empty: exit 2 with this in stderr
	}{
		{format: "edgelist", file: "g.txt"},
		{format: "csr", file: "g.csr", csr: true},
		{format: "csr", file: "g.csr.gz", csr: true},
		{format: "csr", file: "g.graph", csr: true},
		{format: "auto", file: "a.txt"},
		{format: "auto", file: "a.txt.gz"},
		{format: "auto", file: "a.csr", csr: true},
		{format: "auto", file: "a.csr.gz", csr: true},
		{format: "auto", file: "a.bin", refused: "use -format csr"},
		{format: "auto", file: "a.bin.gz", refused: "use -format csr"},
		{format: "binary", file: "g.bin", refused: `unknown -format "binary" (want auto|edgelist|csr)`},
	} {
		t.Run(tc.format+"/"+tc.file, func(t *testing.T) {
			path := filepath.Join(dir, tc.file)
			var stdout, stderr bytes.Buffer
			code := run([]string{"-type", "er", "-n", "50", "-m", "300", "-seed", "7",
				"-format", tc.format, "-out", path}, &stdout, &stderr)
			if tc.refused != "" {
				if code != 2 || !strings.Contains(stderr.String(), tc.refused) {
					t.Fatalf("exit %d, stderr %q; want 2 and %q", code, stderr.String(), tc.refused)
				}
				if _, err := os.Stat(path); err == nil {
					t.Fatal("a refused run left a file behind")
				}
				return
			}
			if code != 0 {
				t.Fatalf("exit %d: %s", code, stderr.String())
			}
			if got := startsWithGstoreMagic(t, path); got != tc.csr {
				t.Fatalf("wrote gstore CSR = %v, want %v", got, tc.csr)
			}
			g, err := gio.Load(path, 0)
			if err != nil {
				t.Fatal(err)
			}
			defer g.Close()
			if g.NumVertices() != 50 {
				t.Fatalf("reloaded n = %d", g.NumVertices())
			}
			if !strings.Contains(stdout.String(), "50 vertices") {
				t.Fatalf("stats line missing: %q", stdout.String())
			}
		})
	}
}

// startsWithGstoreMagic reports whether the (possibly gzipped) file at
// path is in the gstore format.
func startsWithGstoreMagic(t *testing.T, path string) bool {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var r io.Reader = f
	if strings.HasSuffix(path, ".gz") {
		if r, err = gzip.NewReader(f); err != nil {
			t.Fatal(err)
		}
	}
	head := make([]byte, len(gstore.MagicPrefix))
	if _, err := io.ReadFull(r, head); err != nil {
		t.Fatal(err)
	}
	return string(head) == gstore.MagicPrefix
}

// TestTargetBytes pins the -target-bytes contract: the written gstore
// CSR file lands within a factor of ~2 of the budget (the generator's
// realized mean degree wobbles around the preset), and un-sizable
// configurations are usage errors.
func TestTargetBytes(t *testing.T) {
	path := filepath.Join(t.TempDir(), "g.csr")
	var stdout, stderr bytes.Buffer
	code := run([]string{"-type", "powerlaw", "-mean", "8", "-target-bytes", "256KiB",
		"-format", "csr", "-relabel", "-out", path}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, stderr.String())
	}
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if fi.Size() < 128<<10 || fi.Size() > 512<<10 {
		t.Fatalf("file size %d not within 2x of the 256KiB target", fi.Size())
	}
	g, err := gio.Load(path, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()

	for _, tc := range []struct {
		name, wantErr string
		args          []string
	}{
		{"rmat", "-target-bytes cannot size rmat", []string{"-type", "rmat", "-target-bytes", "1MiB", "-out", "x"}},
		{"er with -m", "drop -m", []string{"-type", "er", "-m", "100", "-target-bytes", "1MiB", "-out", "x"}},
		{"bad size", "-target-bytes", []string{"-target-bytes", "12wombats", "-out", "x"}},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(tc.args, &stdout, &stderr); code != 2 {
			t.Errorf("%s: exit %d, want 2", tc.name, code)
		}
		if !strings.Contains(stderr.String(), tc.wantErr) {
			t.Errorf("%s: stderr %q missing %q", tc.name, stderr.String(), tc.wantErr)
		}
	}
}
