package analysis

import "testing"

// TestParseCacheReusesByContent: a load of unchanged content is served from
// the cache, changed content parses again, a parse failure is cached like a
// tree, and resolvers sharing one cache each count only their own loads.
func TestParseCacheReusesByContent(t *testing.T) {
	c := NewParseCache()
	r := c.Resolver(map[string]string{"a.php": "<?php echo 1;", "b.php": "<?php if ("})
	stats := func(m *MapResolver, hits, misses int64) {
		t.Helper()
		if h, mi := m.ParseCacheStats(); h != hits || mi != misses {
			t.Fatalf("%d hits, %d misses; want %d, %d", h, mi, hits, misses)
		}
	}
	first, ok := r.Load("a.php")
	if !ok {
		t.Fatal("parse failed")
	}
	if again, ok := r.Load("a.php"); !ok || again != first {
		t.Fatal("unchanged content was not served from the cache")
	}
	stats(r, 1, 1)

	// The next run over an edited project: same path, new content.
	edited := c.Resolver(map[string]string{"a.php": "<?php echo 2;"})
	if f, ok := edited.Load("a.php"); !ok || f == first {
		t.Fatal("changed content was served the old tree")
	}
	stats(edited, 0, 1)
	// Equal content in a new string is still a hit.
	same := c.Resolver(map[string]string{"a.php": string([]byte("<?php echo 2;"))})
	if _, ok := same.Load("a.php"); !ok {
		t.Fatal("cached parse failed")
	}
	stats(same, 1, 0)
	stats(r, 1, 1)

	// Parse failures are cached: the same content fails the same way.
	if _, ok := r.Load("b.php"); ok {
		t.Fatal("broken source parsed")
	}
	if _, ok := r.Load("b.php"); ok {
		t.Fatal("broken source parsed from the cache")
	}
	stats(r, 2, 2)
	// A path without a source is neither a hit nor a miss.
	if _, ok := r.Load("absent.php"); ok {
		t.Fatal("absent file loaded")
	}
	stats(r, 2, 2)
}
