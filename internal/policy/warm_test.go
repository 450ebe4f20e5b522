package policy_test

import (
	"reflect"
	"testing"

	"sqlciv/internal/analysis"
	"sqlciv/internal/corpus"
	"sqlciv/internal/obs"
	"sqlciv/internal/policy"
)

// corpusHotspots runs phase 1 over every entry page of the five corpus apps
// and returns their hotspots in app and page order.
func corpusHotspots(t *testing.T) []hotspot {
	t.Helper()
	var out []hotspot
	for _, app := range corpus.Apps() {
		r := analysis.NewMapResolver(app.Sources)
		for _, entry := range app.Entries {
			ar, err := analysis.Analyze(r, entry, analysis.Options{})
			if err != nil {
				t.Fatalf("%s: analyze %s: %v", app.Name, entry, err)
			}
			for _, h := range ar.Hotspots {
				out = append(out, hotspot{ar.G, h.Root})
			}
		}
	}
	return out
}

// phase2Spans counts the spans a hotspot check opens below its hotspot
// span: compaction, cascade checks, witnesses and table acquisition.
type phase2Spans map[string]int

func (s phase2Spans) Emit(e *obs.Event) {
	if e.Cat != "hotspot" {
		s[e.Cat+"/"+e.Name]++
	}
}

func (s phase2Spans) Close() error { return nil }

// TestWarmCheckerCompactsNothing: a resident checker that re-checks every
// corpus hotspot answers each from its slice key, and with a store so does
// a fresh checker over it, which is the one-shot sqlcheck path. With a disk
// store every repeat is a disk hit that leaves the memo unprobed, without
// one a memo hit; either way the repeat opens no span below its hotspot
// (no compaction, no cascade), and its Result, census included, is what the
// cold check of that hotspot computed.
func TestWarmCheckerCompactsNothing(t *testing.T) {
	hs := corpusHotspots(t)
	for _, withStore := range []bool{true, false} {
		dir := t.TempDir()
		c := policy.New()
		if withStore {
			c.Disk = openStore(t, dir)
		}
		cold := make([]*policy.Result, len(hs))
		for i, h := range hs {
			cold[i], _ = check(c, nil, h)
		}
		type checker struct {
			name string
			c    *policy.Checker
		}
		warm := []checker{{"resident", c}}
		if withStore {
			if err := c.Disk.Flush(); err != nil {
				t.Fatalf("Flush: %v", err)
			}
			fresh := policy.New()
			fresh.Disk = openStore(t, dir)
			warm = append(warm, checker{"fresh", fresh})
		}
		for _, w := range warm {
			spans := phase2Spans{}
			tr := obs.New(spans)
			for i, h := range hs {
				got, _ := check(w.c, tr, h)
				if withStore {
					if got.Disk != policy.ProbeHit || got.Memo != policy.NotProbed {
						t.Fatalf("%s checker, hotspot %d: disk probe %d, memo probe %d; want a disk hit alone", w.name, i, got.Disk, got.Memo)
					}
				} else if got.Memo != policy.ProbeHit || got.Disk != policy.NotProbed {
					t.Fatalf("%s checker, hotspot %d: memo probe %d, disk probe %d; want a memo hit alone", w.name, i, got.Memo, got.Disk)
				}
				if got, want := policy.Answer(got), policy.Answer(cold[i]); !reflect.DeepEqual(got, want) {
					t.Fatalf("%s checker (store %t), hotspot %d: repeat %+v, cold %+v", w.name, withStore, i, got, want)
				}
			}
			if len(spans) != 0 {
				t.Errorf("%s checker (store %t): repeats of %d hotspots opened spans %v, want none", w.name, withStore, len(hs), spans)
			}
		}
	}
}
