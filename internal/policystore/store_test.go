package policystore

import (
	"errors"
	"fmt"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"borderpatrol/internal/policy"
)

func newEngine(t *testing.T) *policy.Engine {
	t.Helper()
	eng, err := policy.NewEngine(nil, policy.VerdictAllow)
	if err != nil {
		t.Fatal(err)
	}
	return eng
}

func TestStoreLoadApplies(t *testing.T) {
	eng := newEngine(t)
	st, err := New(Config{Source: NewStaticSource(docA), Engine: eng})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if err := st.Load(); err != nil {
		t.Fatalf("Load: %v", err)
	}
	rules := eng.Rules()
	if len(rules) != 1 || rules[0].Target != "com/flurry" {
		t.Fatalf("engine rules = %+v", rules)
	}
	if eng.Generation() != 1 {
		t.Fatalf("generation = %d, want 1", eng.Generation())
	}
	s := st.Stats()
	if s.Applied != 1 || s.Failures != 0 || s.Rules != 1 || s.Version == "" || s.Source != "static" {
		t.Fatalf("stats = %+v", s)
	}

	// A second cycle is a no-op: unchanged, no generation bump.
	applied, err := st.Reload()
	if err != nil || applied {
		t.Fatalf("reload of unchanged source: applied=%v err=%v", applied, err)
	}
	if eng.Generation() != 1 {
		t.Fatalf("unchanged reload bumped generation to %d", eng.Generation())
	}
	if s := st.Stats(); s.Unchanged != 1 || s.Polls != 2 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestStoreInitialLoadFailure(t *testing.T) {
	eng := newEngine(t)
	st, err := New(Config{Source: NewStaticSource("{[garbage"), Engine: eng})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	err = st.Load()
	if err == nil {
		t.Fatal("Load of malformed document succeeded")
	}
	if !errors.Is(err, policy.ErrBadRule) {
		t.Fatalf("error %v does not wrap ErrBadRule", err)
	}
	if s := st.Stats(); s.Applied != 0 || s.Failures != 1 || s.Version != "" {
		t.Fatalf("stats = %+v", s)
	}
}

// TestStoreLastGoodSurvivesBadCandidate is the tentpole's core property: a
// malformed candidate leaves the last-good rules serving, with the failure
// counted and exposed, and a later good candidate recovers.
func TestStoreLastGoodSurvivesBadCandidate(t *testing.T) {
	path := filepath.Join(t.TempDir(), "policy.bp")
	writeFile(t, path, docA)
	eng := newEngine(t)
	st, err := New(Config{Source: NewFileSource(path), Engine: eng})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if err := st.Load(); err != nil {
		t.Fatal(err)
	}
	goodVersion := st.Version()

	// Push a broken revision.
	bumpMtime(t, path)
	writeFile(t, path, `{[deny][library]["com/ok"]}`+"\n"+`{[deny][nope]["x"]}`)
	if _, err := st.Reload(); err == nil {
		t.Fatal("malformed candidate applied")
	}
	if rules := eng.Rules(); len(rules) != 1 || rules[0].Target != "com/flurry" {
		t.Fatalf("last-good rules lost: %+v", rules)
	}
	if eng.Generation() != 1 {
		t.Fatalf("rejected candidate bumped generation to %d", eng.Generation())
	}
	s := st.Stats()
	if s.Failures != 1 || s.Version != goodVersion || s.LastError == "" {
		t.Fatalf("stats = %+v", s)
	}
	// The error is locatable (line number from the grammar).
	if want := "line 2"; !strings.Contains(s.LastError, want) {
		t.Fatalf("LastError %q does not name %q", s.LastError, want)
	}

	// Recovery: a good revision applies and clears the error.
	bumpMtime(t, path)
	writeFile(t, path, docB)
	applied, err := st.Reload()
	if err != nil || !applied {
		t.Fatalf("recovery reload: applied=%v err=%v", applied, err)
	}
	if rules := eng.Rules(); len(rules) != 2 {
		t.Fatalf("recovered rules = %+v", rules)
	}
	if s := st.Stats(); s.LastError != "" || s.Applied != 2 || s.Rules != 2 {
		t.Fatalf("stats after recovery = %+v", s)
	}
	if eng.Generation() != 2 {
		t.Fatalf("generation = %d, want 2 (one bump per applied swap)", eng.Generation())
	}
}

// TestStorePollerHotReload drives the background poller end to end over a
// file source: an edit is picked up without any manual call, and Close
// stops the goroutine.
func TestStorePollerHotReload(t *testing.T) {
	path := filepath.Join(t.TempDir(), "policy.bp")
	writeFile(t, path, docA)
	eng := newEngine(t)
	st, err := New(Config{
		Source: NewFileSource(path),
		Engine: eng,
		Poll:   2 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Load(); err != nil {
		t.Fatal(err)
	}
	st.Start()
	defer st.Close()

	bumpMtime(t, path)
	writeFile(t, path, docB)
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if len(eng.Rules()) == 2 {
			break
		}
		time.Sleep(2 * time.Millisecond)
	}
	if rules := eng.Rules(); len(rules) != 2 {
		t.Fatalf("poller never applied the edit: %+v", rules)
	}
	if s := st.Stats(); s.Applied != 2 {
		t.Fatalf("stats = %+v", s)
	}
}

// failingSource fails every fetch; used to observe backoff behaviour.
type failingSource struct{ fetches chan time.Time }

func (f *failingSource) Fetch(prev string) (Candidate, bool, error) {
	select {
	case f.fetches <- time.Now():
	default:
	}
	return Candidate{}, false, fmt.Errorf("synthetic fetch failure")
}

func (f *failingSource) String() string { return "failing" }

// TestStorePollerBacksOffOnErrors: consecutive failures stretch the poll
// interval instead of hot-looping against a broken backend.
func TestStorePollerBacksOffOnErrors(t *testing.T) {
	src := &failingSource{fetches: make(chan time.Time, 64)}
	st, err := New(Config{
		Source:     src,
		Engine:     newEngine(t),
		Poll:       time.Millisecond,
		MaxBackoff: 250 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	st.Start()
	time.Sleep(120 * time.Millisecond)
	st.Close()

	n := len(src.fetches)
	// 120ms at a flat 1ms cadence would be ~100+ fetches; exponential
	// backoff (1,2,4,8,...) keeps it far below that.
	if n == 0 || n > 30 {
		t.Fatalf("fetches in 120ms = %d, want backoff-limited (1..30)", n)
	}
	if s := st.Stats(); s.Failures == 0 || s.LastError == "" {
		t.Fatalf("stats = %+v", s)
	}
}

func TestStoreConfigValidation(t *testing.T) {
	if _, err := New(Config{Engine: newEngine(t)}); err == nil {
		t.Fatal("missing Source accepted")
	}
	if _, err := New(Config{Source: NewStaticSource("")}); err == nil {
		t.Fatal("missing Engine accepted")
	}
}

// TestStoreEmptyDocument: an empty document is a valid policy (no rules —
// the engine default decides), matching the facade's historical treatment
// of an empty Config.Policy.
func TestStoreEmptyDocument(t *testing.T) {
	eng := newEngine(t)
	st, err := New(Config{Source: NewStaticSource(""), Engine: eng})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if err := st.Load(); err != nil {
		t.Fatalf("Load of empty document: %v", err)
	}
	if rules := eng.Rules(); len(rules) != 0 {
		t.Fatalf("rules = %+v", rules)
	}
	if s := st.Stats(); s.Applied != 1 || s.Rules != 0 {
		t.Fatalf("stats = %+v", s)
	}
}

// TestNilStoreStartClose: a pipeline without a policy backend holds a nil
// Store; starting and closing it are no-ops, like Stats.
func TestNilStoreStartClose(t *testing.T) {
	var s *Store
	s.Start()
	s.Close()
	if st := s.Stats(); st.Applied != 0 {
		t.Fatalf("nil store stats: %+v", st)
	}
}
