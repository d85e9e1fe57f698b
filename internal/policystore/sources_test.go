package policystore

import (
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

const docA = `{[deny][library]["com/flurry"]}` + "\n"
const docB = `{[deny][library]["com/google/gms"]}` + "\n" + `{[deny][library]["com/flurry"]}` + "\n"

func TestStaticSource(t *testing.T) {
	src := NewStaticSource(docA)
	c, unchanged, err := src.Fetch("")
	if err != nil || unchanged {
		t.Fatalf("first fetch: unchanged=%v err=%v", unchanged, err)
	}
	if c.Doc != docA || c.Version == "" {
		t.Fatalf("candidate = %+v", c)
	}
	if _, unchanged, err = src.Fetch(c.Version); err != nil || !unchanged {
		t.Fatalf("second fetch: unchanged=%v err=%v", unchanged, err)
	}
}

func TestFileSource(t *testing.T) {
	path := filepath.Join(t.TempDir(), "policy.bp")
	src := NewFileSource(path)

	if _, _, err := src.Fetch(""); err == nil {
		t.Fatal("missing file fetch succeeded")
	}

	writeFile(t, path, docA)
	c, unchanged, err := src.Fetch("")
	if err != nil || unchanged || c.Doc != docA {
		t.Fatalf("first fetch: %+v unchanged=%v err=%v", c, unchanged, err)
	}

	// Untouched file: the stat memo answers without reading.
	if _, unchanged, err = src.Fetch(c.Version); err != nil || !unchanged {
		t.Fatalf("untouched fetch: unchanged=%v err=%v", unchanged, err)
	}

	// Rewritten with identical content (new mtime): the hash suppresses a
	// no-op apply.
	bumpMtime(t, path)
	writeFile(t, path, docA)
	if _, unchanged, err = src.Fetch(c.Version); err != nil || !unchanged {
		t.Fatalf("identical rewrite: unchanged=%v err=%v", unchanged, err)
	}

	// Real change: a new candidate with a new version.
	bumpMtime(t, path)
	writeFile(t, path, docB)
	c2, unchanged, err := src.Fetch(c.Version)
	if err != nil || unchanged {
		t.Fatalf("changed fetch: unchanged=%v err=%v", unchanged, err)
	}
	if c2.Doc != docB || c2.Version == c.Version {
		t.Fatalf("candidate after change = %+v (prev version %s)", c2, c.Version)
	}
}

// TestFileSourceRacilyCleanEdit pins the stat-memo safety window: a
// same-size edit whose mtime is byte-identical to the previously observed
// stat (possible on coarse-granularity filesystems) must still be picked
// up, because a freshly modified file is re-hashed rather than trusted.
func TestFileSourceRacilyCleanEdit(t *testing.T) {
	path := filepath.Join(t.TempDir(), "policy.bp")
	src := NewFileSource(path)

	docX := `{[deny][library]["com/aaaa"]}` + "\n"
	docY := `{[deny][library]["com/bbbb"]}` + "\n" // same length as docX
	stamp := time.Now().Truncate(time.Second)

	writeFile(t, path, docX)
	if err := os.Chtimes(path, stamp, stamp); err != nil {
		t.Fatal(err)
	}
	c, unchanged, err := src.Fetch("")
	if err != nil || unchanged || c.Doc != docX {
		t.Fatalf("first fetch: %+v unchanged=%v err=%v", c, unchanged, err)
	}

	// The hostile case: same size, same mtime, different bytes.
	writeFile(t, path, docY)
	if err := os.Chtimes(path, stamp, stamp); err != nil {
		t.Fatal(err)
	}
	c2, unchanged, err := src.Fetch(c.Version)
	if err != nil || unchanged {
		t.Fatalf("racily-clean edit missed: unchanged=%v err=%v", unchanged, err)
	}
	if c2.Doc != docY || c2.Version == c.Version {
		t.Fatalf("candidate after racily-clean edit = %+v", c2)
	}
}

// TestFileSourceRejectsOversizedWithoutReading: a document over the size
// bound is refused from the Stat alone.
func TestFileSourceRejectsOversized(t *testing.T) {
	path := filepath.Join(t.TempDir(), "policy.bp")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	// A sparse file well over the bound, without writing 16 MB.
	if err := f.Truncate(maxPolicyBytes + 1); err != nil {
		t.Fatal(err)
	}
	f.Close()
	if _, _, err := NewFileSource(path).Fetch(""); err == nil {
		t.Fatal("oversized document accepted")
	}
}

// bumpMtime guarantees the next write lands with a distinct mtime even on
// coarse-granularity filesystems.
func bumpMtime(t *testing.T, path string) {
	t.Helper()
	future := time.Now().Add(10 * time.Millisecond)
	for time.Now().Before(future) {
		time.Sleep(time.Millisecond)
	}
	_ = path
}

// writeFile replaces the watched file atomically (write a temporary file,
// then rename): a poll landing between the truncate and the write of an
// in-place os.WriteFile would read an empty document and apply an empty
// rule set.
func writeFile(t *testing.T, path, doc string) {
	t.Helper()
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, []byte(doc), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.Rename(tmp, path); err != nil {
		t.Fatal(err)
	}
}

func TestHTTPSourceETag(t *testing.T) {
	var gets, conditional int
	doc := docA
	etag := `"v1"`
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		gets++
		if r.Header.Get("If-None-Match") == etag {
			conditional++
			w.WriteHeader(http.StatusNotModified)
			return
		}
		w.Header().Set("ETag", etag)
		w.Write([]byte(doc))
	}))
	defer srv.Close()

	src := NewHTTPSource(srv.URL, srv.Client())
	c, unchanged, err := src.Fetch("")
	if err != nil || unchanged || c.Doc != docA {
		t.Fatalf("first fetch: %+v unchanged=%v err=%v", c, unchanged, err)
	}
	if !strings.HasPrefix(c.Version, "etag:") {
		t.Fatalf("version = %q, want etag-derived", c.Version)
	}

	// Applied candidate → conditional GET → 304 → unchanged.
	if _, unchanged, err = src.Fetch(c.Version); err != nil || !unchanged {
		t.Fatalf("conditional fetch: unchanged=%v err=%v", unchanged, err)
	}
	if conditional != 1 {
		t.Fatalf("conditional requests = %d, want 1", conditional)
	}

	// Server rotates the document and its ETag.
	doc, etag = docB, `"v2"`
	c2, unchanged, err := src.Fetch(c.Version)
	if err != nil || unchanged || c2.Doc != docB {
		t.Fatalf("rotated fetch: %+v unchanged=%v err=%v", c2, unchanged, err)
	}
	if c2.Version == c.Version {
		t.Fatal("version did not rotate with the ETag")
	}
	if gets < 3 {
		t.Fatalf("gets = %d, want >= 3", gets)
	}
}

func TestHTTPSourceNoETagFallsBackToContentHash(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte(docA))
	}))
	defer srv.Close()

	src := NewHTTPSource(srv.URL, srv.Client())
	c, unchanged, err := src.Fetch("")
	if err != nil || unchanged {
		t.Fatalf("first fetch: unchanged=%v err=%v", unchanged, err)
	}
	if !strings.HasPrefix(c.Version, "sha256:") {
		t.Fatalf("version = %q, want content hash", c.Version)
	}
	// Same content, no validator: the hash still reports unchanged.
	if _, unchanged, err = src.Fetch(c.Version); err != nil || !unchanged {
		t.Fatalf("repeat fetch: unchanged=%v err=%v", unchanged, err)
	}
}

func TestHTTPSourceErrorStatuses(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "boom", http.StatusInternalServerError)
	}))
	defer srv.Close()

	src := NewHTTPSource(srv.URL, srv.Client())
	if _, _, err := src.Fetch(""); err == nil {
		t.Fatal("500 fetch succeeded")
	}

	srv.Close()
	if _, _, err := src.Fetch(""); err == nil {
		t.Fatal("fetch against a dead server succeeded")
	}
}
