package vcache

import (
	"encoding/hex"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"sqlciv/internal/grammar"
)

const tag = "policy-test-v1"

func fpOf(b byte) grammar.Fingerprint {
	var fp grammar.Fingerprint
	for i := range fp {
		fp[i] = b
	}
	return fp
}

func vulnerable() *Entry {
	return &Entry{VerdictRecord: VerdictRecord{
		Verdict:    "vulnerable",
		LabeledNTs: 2,
		Reports:    []Report{{Label: 1, Check: 1, Witness: "a'b", Source: "_GET[id]"}},
	}}
}

func TestRoundTrip(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	fp := fpOf(0xab)
	s.Put(fp, tag, vulnerable())

	// Pending entries are invisible: a cold run must compute every verdict.
	if _, ok := s.Get(fp, tag); ok {
		t.Fatal("pending entry visible before Flush")
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	got, ok := s.Get(fp, tag)
	if !ok {
		t.Fatal("flushed entry not found")
	}
	if got.Verdict != "vulnerable" || len(got.Reports) != 1 || got.Reports[0].Witness != "a'b" {
		t.Fatalf("entry mangled: %+v", got)
	}
	st := s.CacheStats()
	if st.Hits != 1 || st.Misses != 1 || st.Puts != 1 || st.Written != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestReopenSurvives(t *testing.T) {
	dir := t.TempDir()
	s, _ := Open(dir)
	fp := fpOf(1)
	s.Put(fp, tag, vulnerable())
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2, _ := Open(dir)
	if _, ok := s2.Get(fp, tag); !ok {
		t.Fatal("entry lost across reopen")
	}
}

// TestInvalidEntriesMiss: every flavor of bad entry is a miss, never an
// error that could abort an analysis or change its findings.
func TestInvalidEntriesMiss(t *testing.T) {
	dir := t.TempDir()
	s, _ := Open(dir)
	fp := fpOf(2)
	s.Put(fp, tag, vulnerable())
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	path := s.path(Key(fp))
	orig, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	restore := func() {
		if err := os.WriteFile(path, orig, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	cases := []struct {
		name    string
		corrupt func(t *testing.T)
	}{
		{"truncated", func(t *testing.T) {
			if err := os.WriteFile(path, orig[:len(orig)/2], 0o644); err != nil {
				t.Fatal(err)
			}
		}},
		{"garbage", func(t *testing.T) {
			if err := os.WriteFile(path, []byte("{not json"), 0o644); err != nil {
				t.Fatal(err)
			}
		}},
		{"format-version-mismatch", func(t *testing.T) {
			mangled := strings.Replace(string(orig), `"format":1`, `"format":99`, 1)
			if err := os.WriteFile(path, []byte(mangled), 0o644); err != nil {
				t.Fatal(err)
			}
		}},
		{"fingerprint-mismatch", func(t *testing.T) {
			otherFP := fpOf(3)
			other := hex.EncodeToString(otherFP[:])
			mangled := strings.Replace(string(orig), hex.EncodeToString(fp[:]), other, 1)
			if err := os.WriteFile(path, []byte(mangled), 0o644); err != nil {
				t.Fatal(err)
			}
		}},
		{"verdict-report-inconsistent", func(t *testing.T) {
			mangled := strings.Replace(string(orig), `"vulnerable"`, `"verified"`, 1)
			if err := os.WriteFile(path, []byte(mangled), 0o644); err != nil {
				t.Fatal(err)
			}
		}},
		{"check-out-of-range", func(t *testing.T) {
			mangled := strings.Replace(string(orig), `"check":1`, `"check":7`, 1)
			if err := os.WriteFile(path, []byte(mangled), 0o644); err != nil {
				t.Fatal(err)
			}
		}},
		{"census-negative", func(t *testing.T) {
			mangled := strings.Replace(string(orig), `"compact_prods":0`, `"compact_prods":-1`, 1)
			if mangled == string(orig) {
				t.Fatal("no census in the entry")
			}
			if err := os.WriteFile(path, []byte(mangled), 0o644); err != nil {
				t.Fatal(err)
			}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tc.corrupt(t)
			defer restore()
			before := s.CacheStats().Errors
			if _, ok := s.Get(fp, tag); ok {
				t.Fatalf("%s entry accepted", tc.name)
			}
			if s.CacheStats().Errors != before+1 {
				t.Fatalf("%s entry not counted as error", tc.name)
			}
		})
	}

	// Stale policy tag (the on-disk file is intact; the checker moved on).
	if _, ok := s.Get(fp, "policy-test-v2"); ok {
		t.Fatal("stale-tag entry accepted")
	}
	// Sanity: the untouched entry still hits under the right tag.
	if _, ok := s.Get(fp, tag); !ok {
		t.Fatal("valid entry lost after corruption round-trips")
	}
}

// TestPutConflictDeterministic: concurrent puts under one fingerprint
// resolve to the lexicographically smallest serialization, independent of
// arrival order.
func TestPutConflictDeterministic(t *testing.T) {
	a := vulnerable()
	b := vulnerable()
	b.Reports[0].Witness = "z'z"
	for _, order := range [][2]*Entry{{a, b}, {b, a}} {
		dir := t.TempDir()
		s, _ := Open(dir)
		fp := fpOf(4)
		s.Put(fp, tag, order[0])
		s.Put(fp, tag, order[1])
		if err := s.Flush(); err != nil {
			t.Fatal(err)
		}
		got, ok := s.Get(fp, tag)
		if !ok {
			t.Fatal("entry missing")
		}
		if got.Reports[0].Witness != "a'b" {
			t.Fatalf("conflict resolution order-dependent: kept %q", got.Reports[0].Witness)
		}
	}
}

// TestStaleAndCorruptEntriesRewritten: Flush replaces whatever file holds
// a key, so an entry under an old policy tag, or a file of garbage bytes, is
// rewritten by the next run that recomputes the verdict, and then hits.
func TestStaleAndCorruptEntriesRewritten(t *testing.T) {
	for _, tc := range []struct {
		name  string
		plant func(t *testing.T, s *Store, fp grammar.Fingerprint)
	}{
		{"stale-tag", func(t *testing.T, s *Store, fp grammar.Fingerprint) {
			s.Put(fp, "policy-test-v0", vulnerable())
			if err := s.Flush(); err != nil {
				t.Fatal(err)
			}
		}},
		{"garbage", func(t *testing.T, s *Store, fp grammar.Fingerprint) {
			path := s.path(Key(fp))
			if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, []byte("\x00\xffnot an entry"), 0o644); err != nil {
				t.Fatal(err)
			}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			fp := fpOf(5)
			s1, _ := Open(dir)
			tc.plant(t, s1, fp)
			if _, ok := s1.Get(fp, tag); ok {
				t.Fatal("planted entry hit")
			}
			s1.Put(fp, tag, vulnerable())
			if err := s1.Close(); err != nil {
				t.Fatal(err)
			}
			s2, _ := Open(dir)
			got, ok := s2.Get(fp, tag)
			if !ok || got.Reports[0].Witness != "a'b" {
				t.Fatalf("entry not rewritten: %+v", got)
			}
		})
	}
}

// TestParentFormatEntryHits: entries written before Report lost its
// write-only "nt" key still hit; decoding ignores the key.
func TestParentFormatEntryHits(t *testing.T) {
	s, _ := Open(t.TempDir())
	fp := fpOf(8)
	old := `{"format":1,"tag":"` + tag + `","fp":"` + fp.Hex() + `","verdict":"vulnerable","labeled_nts":2,` +
		`"reports":[{"nt":"_GET[id]","label":1,"check":1,"witness":"a'b","source":"_GET[id]"}]}` + "\n"
	path := s.path(Key(fp))
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, []byte(old), 0o644); err != nil {
		t.Fatal(err)
	}
	got, ok := s.Get(fp, tag)
	if !ok {
		t.Fatal("parent-format entry missed")
	}
	if want := vulnerable().VerdictRecord; !reflect.DeepEqual(got.VerdictRecord, want) {
		t.Fatalf("parent-format entry decoded as %+v, want %+v", got.VerdictRecord, want)
	}
}

func TestNilStoreSafe(t *testing.T) {
	var s *Store
	if _, ok := s.Get(fpOf(6), tag); ok {
		t.Fatal("nil store hit")
	}
	s.Put(fpOf(6), tag, vulnerable())
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if st := s.CacheStats(); st != (Stats{}) {
		t.Fatalf("nil stats = %+v", st)
	}
	if s.Dir() != "" {
		t.Fatal("nil dir")
	}
}

func TestTempFilesCleanedUp(t *testing.T) {
	dir := t.TempDir()
	s, _ := Open(dir)
	s.Put(fpOf(7), tag, vulnerable())
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	var tmps []string
	if err := filepath.WalkDir(dir, func(p string, d os.DirEntry, err error) error {
		if err == nil && !d.IsDir() && strings.HasPrefix(d.Name(), ".tmp-") {
			tmps = append(tmps, p)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(tmps) > 0 {
		t.Fatalf("temp files left behind: %v", tmps)
	}
}
