// sessions.go is the daemon's incremental-session tier. A request that sets
// options.incremental runs through a resident core.Session keyed by (tenant,
// app identity), so the daemon keeps per-app parse trees and page memos warm
// across submissions: an IDE or CI client that re-submits after editing one
// file gets back a run where every unchanged page replayed its prior outcome
// and only the dirtied include closure recomputed.
//
// Sessions are bounded two ways — an LRU cap (Config.MaxSessions) because
// each session retains parse trees and hotspot results for a whole
// application, and an idle-retention sweep (Config.SessionRetention) riding
// the existing janitor. Eviction only costs warmth: the evicted app's next
// submission runs cold and rebuilds its session.
//
// Keys are intentionally cheap — the filesystem root, or a hash of the
// sorted inline source paths. Two different apps sharing a key is harmless:
// session validation is content-hashed, so a collision can only cause cache
// misses, never a wrong replay. Tenant is part of the key so no tenant can
// probe timing differences of another tenant's sessions.
package server

import (
	"crypto/sha256"
	"encoding/hex"
	"sort"
	"sync/atomic"
	"time"

	"sqlciv/internal/core"
)

// residentSession is one app's warm incremental state plus its LRU clock.
type residentSession struct {
	ses      *core.Session
	lastUsed time.Time
}

// sessionKey identifies the session a request should warm: tenant plus the
// app's root directory, or a hash of its sorted inline source paths.
func sessionKey(tenant string, req *Request) string {
	if req.Root != "" {
		return tenant + "\x00root\x00" + req.Root
	}
	paths := make([]string, 0, len(req.Sources))
	for p := range req.Sources {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	h := sha256.New()
	for _, p := range paths {
		h.Write([]byte(p))
		h.Write([]byte{0})
	}
	return tenant + "\x00inline\x00" + hex.EncodeToString(h.Sum(nil))
}

// session returns the resident session for key, creating it (and evicting
// the least recently used beyond MaxSessions) if needed.
func (s *Server) session(key string) *core.Session {
	now := time.Now()
	s.sessMu.Lock()
	defer s.sessMu.Unlock()
	if e, ok := s.sessions[key]; ok {
		e.lastUsed = now
		return e.ses
	}
	for len(s.sessions) >= s.cfg.MaxSessions {
		oldestKey := ""
		var oldest time.Time
		for k, e := range s.sessions {
			if oldestKey == "" || e.lastUsed.Before(oldest) {
				oldestKey, oldest = k, e.lastUsed
			}
		}
		delete(s.sessions, oldestKey)
		s.sessEvicted.Add(1)
	}
	e := &residentSession{ses: core.NewSession(core.SessionConfig{}), lastUsed: now}
	s.sessions[key] = e
	return e.ses
}

// sweepSessions evicts sessions idle since before cutoff.
func (s *Server) sweepSessions(cutoff time.Time) {
	s.sessMu.Lock()
	defer s.sessMu.Unlock()
	for k, e := range s.sessions {
		if e.lastUsed.Before(cutoff) {
			delete(s.sessions, k)
			s.sessEvicted.Add(1)
		}
	}
}

// sessionCount reports the resident sessions (metrics, /debug/server).
func (s *Server) sessionCount() int {
	s.sessMu.Lock()
	defer s.sessMu.Unlock()
	return len(s.sessions)
}

// runTotals accumulates the per-run counters of every job into
// server-lifetime totals, the same pattern as the job atomics: the run path
// adds each job's AppResult once, /metrics and /debug/server read at
// snapshot time. The verdict-cache counters are the probes of each job's
// own hotspot checks; the incremental ones come from jobs that ran on a
// session.
type runTotals struct {
	memoHits   atomic.Int64
	memoMisses atomic.Int64
	diskHits   atomic.Int64
	diskMisses atomic.Int64

	filesHashed       atomic.Int64
	filesReused       atomic.Int64
	filesParsed       atomic.Int64
	pagesReplayed     atomic.Int64
	pagesRecomputed   atomic.Int64
	hotspotsReplayed  atomic.Int64
	hotspotsRechecked atomic.Int64
}

func (t *runTotals) add(res *core.AppResult) {
	t.memoHits.Add(res.VerdictCacheHits)
	t.memoMisses.Add(res.VerdictCacheMisses)
	t.diskHits.Add(res.DiskCacheHits)
	t.diskMisses.Add(res.DiskCacheMisses)
	in := res.Incr
	if in == nil {
		return
	}
	t.filesHashed.Add(in.FilesHashed)
	t.filesReused.Add(in.FilesReused)
	t.filesParsed.Add(in.FilesParsed)
	t.pagesReplayed.Add(in.PagesReplayed)
	t.pagesRecomputed.Add(in.PagesRecomputed)
	t.hotspotsReplayed.Add(in.HotspotsReplayed)
	t.hotspotsRechecked.Add(in.HotspotsRechecked)
}

// checked counts the hotspot checks the shared checker ran: each is
// answered by a disk hit, a memo hit, or a memo miss (a full cascade).
func (t *runTotals) checked() int64 {
	return t.diskHits.Load() + t.memoHits.Load() + t.memoMisses.Load()
}

// warmPct is the lifetime percentage of hotspot checks answered from either
// verdict-cache tier instead of running the cascade.
func (t *runTotals) warmPct() float64 {
	if n := t.checked(); n > 0 {
		return 100 * float64(t.diskHits.Load()+t.memoHits.Load()) / float64(n)
	}
	return 0
}

// pageReplayPct is the lifetime fraction of incremental pages served by
// replay.
func (t *runTotals) pageReplayPct() float64 {
	pr, rc := t.pagesReplayed.Load(), t.pagesRecomputed.Load()
	if pr+rc == 0 {
		return 0
	}
	return 100 * float64(pr) / float64(pr+rc)
}

// incrementalStats renders the /debug/server incremental section; nil until
// any request has opted in, so non-incremental deployments serve an
// unchanged payload.
func (s *Server) incrementalStats() *IncrementalStats {
	sessions := s.sessionCount()
	evicted := s.sessEvicted.Load()
	pr, rc := s.totals.pagesReplayed.Load(), s.totals.pagesRecomputed.Load()
	if sessions == 0 && evicted == 0 && pr+rc == 0 {
		return nil
	}
	return &IncrementalStats{
		Sessions:          sessions,
		SessionsEvicted:   evicted,
		FilesHashed:       s.totals.filesHashed.Load(),
		FilesReused:       s.totals.filesReused.Load(),
		FilesParsed:       s.totals.filesParsed.Load(),
		PagesReplayed:     pr,
		PagesRecomputed:   rc,
		HotspotsReplayed:  s.totals.hotspotsReplayed.Load(),
		HotspotsRechecked: s.totals.hotspotsRechecked.Load(),
		PageReplayPct:     s.totals.pageReplayPct(),
	}
}
