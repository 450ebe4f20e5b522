package obs

import (
	"encoding/json"
	"net"
	"net/http"
	"net/http/pprof"
)

// The debug endpoint serves two things for a run in flight:
//
//	/debug/progress   live JSON Snapshot (pages/hotspots done, degraded,
//	                  findings, counter totals)
//	/debug/pprof/     the standard pprof handlers

// DebugHandler returns the debug mux for t: the two endpoints above plus
// an index at /. Any other path is 404.
func DebugHandler(t *Tracer) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/progress", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(t.Progress())
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.HandleFunc("/{$}", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		w.Write([]byte("sqlciv debug endpoint\n\n/debug/progress\n/debug/pprof/\n"))
	})
	return mux
}

// ServeDebug starts the debug endpoint on addr (e.g. "localhost:6060") and
// returns the bound address and a shutdown func. The server runs until the
// shutdown func is called; serving errors after a successful bind are
// dropped (the endpoint is best-effort diagnostics, not a service).
func ServeDebug(addr string, t *Tracer) (bound string, shutdown func() error, err error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", nil, err
	}
	srv := &http.Server{Handler: DebugHandler(t)}
	go srv.Serve(ln)
	return ln.Addr().String(), srv.Close, nil
}
