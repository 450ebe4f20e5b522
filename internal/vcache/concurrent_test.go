package vcache_test

import (
	"crypto/sha256"
	"fmt"
	"path/filepath"
	"sync"
	"testing"

	"sqlciv/internal/grammar"
	"sqlciv/internal/incr"
	"sqlciv/internal/vcache"
)

const (
	verdictTag = "policy-test-v1"
	summaryTag = "incr-test-v1"
)

func record(witness string) vcache.VerdictRecord {
	return vcache.VerdictRecord{
		Verdict:    "vulnerable",
		LabeledNTs: 1,
		Reports:    []vcache.Report{{Label: 1, Check: 1, Witness: witness, Source: "_GET[id]"}},
	}
}

func fingerprint(name string) grammar.Fingerprint { return sha256.Sum256([]byte(name)) }

func summary(entry, witness string) *incr.PageSummary {
	return &incr.PageSummary{
		Entry: entry,
		Deps:  []incr.Dep{{Path: entry, Hash: incr.HashBytes(entry)}},
		Hotspots: []incr.HotspotSummary{{
			File: entry, Line: 3, Call: "mysql_query", VerdictRecord: record(witness),
		}},
	}
}

// TestStoreConcurrentWriters is the daemon's schedule: jobs keep putting
// verdicts and page summaries while finished jobs flush. Every record must
// read back valid afterwards, and a key that every writer puts twice —
// the larger record, then the smaller — must hold the smaller one.
func TestStoreConcurrentWriters(t *testing.T) {
	const writers, rounds = 4, 25
	verdicts, err := vcache.Open(filepath.Join(t.TempDir(), "vcache"))
	if err != nil {
		t.Fatal(err)
	}
	summaries, err := incr.Open(filepath.Join(t.TempDir(), "incr"))
	if err != nil {
		t.Fatal(err)
	}
	flush := func() {
		if err := verdicts.Flush(); err != nil {
			t.Error(err)
		}
		if err := summaries.Flush(); err != nil {
			t.Error(err)
		}
	}

	done := make(chan struct{})
	var flusher sync.WaitGroup
	flusher.Add(1)
	go func() {
		defer flusher.Done()
		for {
			select {
			case <-done:
				return
			default:
				flush()
			}
		}
	}()
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				name := fmt.Sprintf("w%d-r%d", w, r)
				verdicts.Put(fingerprint(name), verdictTag, &vcache.Entry{VerdictRecord: record(name)})
				incr.Put(summaries, summaryTag, summary(name+".php", name))
				for _, witness := range []string{"z'z", "a'b"} {
					verdicts.Put(fingerprint("shared"), verdictTag, &vcache.Entry{VerdictRecord: record(witness)})
					incr.Put(summaries, summaryTag, summary("shared.php", witness))
				}
			}
		}(w)
	}
	wg.Wait()
	close(done)
	flusher.Wait()
	flush()

	for w := 0; w < writers; w++ {
		for r := 0; r < rounds; r++ {
			name := fmt.Sprintf("w%d-r%d", w, r)
			if e, ok := verdicts.Get(fingerprint(name), verdictTag); !ok || e.Reports[0].Witness != name {
				t.Fatalf("verdict %s: %+v, %v", name, e, ok)
			}
			if ps, look := incr.Get(summaries, name+".php", summaryTag); look != vcache.Found || ps.Hotspots[0].Reports[0].Witness != name {
				t.Fatalf("summary %s: %+v, %v", name, ps, look)
			}
		}
	}
	if e, ok := verdicts.Get(fingerprint("shared"), verdictTag); !ok || e.Reports[0].Witness != "a'b" {
		t.Fatalf("shared verdict: %+v, %v; want the smaller record", e, ok)
	}
	if ps, look := incr.Get(summaries, "shared.php", summaryTag); look != vcache.Found || ps.Hotspots[0].Reports[0].Witness != "a'b" {
		t.Fatalf("shared summary: %+v, %v; want the smaller record", ps, look)
	}
	if st := verdicts.CacheStats(); st.Errors != 0 {
		t.Fatalf("verdict store errors: %+v", st)
	}
}
