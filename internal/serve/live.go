package serve

import (
	"expvar"
	"fmt"
	"net"
	"net/http"
	"sync"

	"dragonfly/internal/telemetry"
)

// The live-introspection endpoints are defined once, here, and mounted
// by every HTTP surface that carries them: the dfserved mux
// (Manager.Handler) and the standalone dfexperiments -listen endpoint
// (ServeLive). telemetry.Live stays transport-free; these routes are the
// only place its snapshots meet HTTP.

// LiveRoutes mounts /api/progress, /api/tasks and /debug/vars on mux, all
// reading from l.
func LiveRoutes(mux *http.ServeMux, l *telemetry.Live) {
	mux.HandleFunc("GET /api/progress", func(w http.ResponseWriter, _ *http.Request) {
		writeJSON(w, http.StatusOK, l.Progress())
	})
	mux.HandleFunc("GET /api/tasks", func(w http.ResponseWriter, _ *http.Request) {
		writeJSON(w, http.StatusOK, l.Timings())
	})
	mux.Handle("GET /debug/vars", expvar.Handler())
}

// expvarOnce guards the process-wide expvar name (Publish panics on
// duplicates; tests may build several endpoints).
var expvarOnce sync.Once

// publishExpvar exposes the progress snapshot as expvar "dragonfly.live".
func publishExpvar(l *telemetry.Live) {
	expvarOnce.Do(func() {
		expvar.Publish("dragonfly.live", expvar.Func(func() any { return l.Progress() }))
	})
}

// ServeLive binds addr (e.g. ":8080", "127.0.0.1:0") and serves the
// live-introspection endpoints alone in a background goroutine for the
// life of the process — the dfexperiments -listen mode. It returns the
// bound address, so ":0" callers can print the actual port.
func ServeLive(l *telemetry.Live, addr string) (net.Addr, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	go liveServer(l).Serve(ln) //nolint:errcheck // runs until process exit
	return ln.Addr(), nil
}

// liveServer is the server ServeLive runs: the live routes alone, under
// NewServer's bounds.
func liveServer(l *telemetry.Live) *http.Server {
	publishExpvar(l)
	mux := http.NewServeMux()
	mux.HandleFunc("GET /{$}", func(w http.ResponseWriter, _ *http.Request) {
		fmt.Fprint(w, "dragonfly live endpoint\n\n/api/progress\n/api/tasks\n/debug/vars\n")
	})
	LiveRoutes(mux, l)
	return NewServer(mux)
}
