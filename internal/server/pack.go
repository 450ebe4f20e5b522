// pack.go serves compiled runtime policy packs: the warm daemon runs (or
// replays from its caches) the analysis and hands fleets of sqlguard
// instances the binary pack that cmd/sqlguard and sqlciv/enforce consume.
// Both routes travel the same bounded job queue as /v1/analyze, so pack
// compilation is admission-controlled and tenant-budgeted like any other
// job — a warm daemon serving an unchanged app answers mostly from its
// verdict caches and only pays the automaton compilation itself.
package server

import (
	"fmt"
	"net/http"
)

// PackHotspotsHeader and PackUnavailableHeader annotate binary pack
// responses with the coverage summary (full stats ride the JSON routes).
const (
	PackHotspotsHeader    = "X-Sqlciv-Pack-Hotspots"
	PackUnavailableHeader = "X-Sqlciv-Pack-Unavailable"
)

// handlePackGet is GET /v1/pack?root=DIR[&entry=page.php...][&incremental=1]:
// analyze an application under the server's allowed filesystem prefix and
// respond with the raw policy pack bytes (application/octet-stream).
func (s *Server) handlePackGet(w http.ResponseWriter, r *http.Request) {
	if s.closed.Load() {
		s.writeError(w, r, errf(http.StatusServiceUnavailable, CodeShutdown, "server shutting down"))
		return
	}
	q := r.URL.Query()
	root := q.Get("root")
	if root == "" {
		s.writeError(w, r, errf(http.StatusBadRequest, CodeBadRequest, "root query parameter is required (or POST a JSON request)"))
		return
	}
	req := &Request{
		Root:    root,
		Entries: q["entry"],
		Options: RequestOptions{
			EmitPack:    true,
			Incremental: q.Get("incremental") != "" && q.Get("incremental") != "0",
		},
	}
	s.servePack(w, r, req)
}

// handlePackPost is POST /v1/pack with the standard analyze Request body
// (inline sources or root); emit_pack is forced on and the response is the
// raw pack bytes instead of the JSON report.
func (s *Server) handlePackPost(w http.ResponseWriter, r *http.Request) {
	req, aerr := s.decodeBody(r)
	if aerr != nil {
		s.writeError(w, r, aerr)
		return
	}
	req.Options.EmitPack = true
	s.servePack(w, r, req)
}

func (s *Server) servePack(w http.ResponseWriter, r *http.Request, req *Request) {
	j, aerr := s.submit(r.Header.Get(TenantHeader), req, false)
	if aerr != nil {
		s.writeError(w, r, aerr)
		return
	}
	if rec := recFrom(r); rec != nil {
		rec.job = j
	}
	res, aerr := j.await(r.Context())
	if aerr != nil {
		s.writeError(w, r, aerr)
		return
	}
	if res.PackStats != nil {
		w.Header().Set(PackHotspotsHeader, fmt.Sprintf("%d", res.PackStats.Hotspots))
		w.Header().Set(PackUnavailableHeader, fmt.Sprintf("%d", res.PackStats.Unavailable))
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.WriteHeader(http.StatusOK)
	w.Write(res.Pack)
}
