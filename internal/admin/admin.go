// Package admin serves a device's operational surface over HTTP: a
// Prometheus text-exposition /metrics endpoint, a JSON /statusz snapshot
// (device counters plus the full telemetry registry), and the standard
// net/http/pprof profiling routes. It is wired into cmd/kamlsrv behind
// the optional -admin flag; the handler only reads atomic snapshots, so
// scraping never blocks a simulation actor.
package admin

import (
	"encoding/json"
	"net/http"
	"net/http/pprof"
	"strings"

	kaml "github.com/kaml-ssd/kaml"
	"github.com/kaml-ssd/kaml/internal/cluster"
	"github.com/kaml-ssd/kaml/internal/telemetry"
)

// Handler returns the admin mux for one device. Routes:
//
//	/metrics       Prometheus text exposition (version 0.0.4)
//	/statusz       JSON: device Stats plus a telemetry registry snapshot
//	/debug/pprof/  standard Go profiling endpoints
//
// Stats is a view over the same registry, so /statusz stats and /metrics
// agree series for series.
func Handler(dev *kaml.Device) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, req *http.Request) {
		var b strings.Builder
		dev.Telemetry().WritePrometheus(&b)
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_, _ = w.Write([]byte(b.String()))
	})
	mux.HandleFunc("/statusz", func(w http.ResponseWriter, req *http.Request) {
		status := struct {
			Stats     kaml.Stats          `json:"stats"`
			Telemetry *telemetry.Snapshot `json:"telemetry"`
		}{Stats: dev.Stats(), Telemetry: dev.Telemetry().Snapshot()}
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(status)
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.HandleFunc("/", func(w http.ResponseWriter, req *http.Request) {
		if req.URL.Path != "/" {
			http.NotFound(w, req)
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		_, _ = w.Write([]byte("kamlsrv admin\n\n/metrics\n/statusz\n/debug/pprof/\n"))
	})
	return mux
}

// ClusterHandler returns the admin mux for a cluster: the same routes as
// Handler, but /metrics exposes the cluster registry (per-shard Get/Put
// latency, replica lag, migration progress, hedged-read counters) and
// /statusz leads with the topology — epoch, node liveness, shard
// placement, and the failover/migration/hedging counters. Both read only
// atomic snapshots, so scraping never blocks a simulation actor.
func ClusterHandler(cl *cluster.Cluster) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, req *http.Request) {
		var b strings.Builder
		cl.Telemetry().WritePrometheus(&b)
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_, _ = w.Write([]byte(b.String()))
	})
	mux.HandleFunc("/statusz", func(w http.ResponseWriter, req *http.Request) {
		status := struct {
			Cluster   cluster.Status `json:"cluster"`
			Telemetry interface{}    `json:"telemetry,omitempty"`
		}{Cluster: cl.Status(), Telemetry: cl.Telemetry().Snapshot()}
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(status)
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.HandleFunc("/", func(w http.ResponseWriter, req *http.Request) {
		if req.URL.Path != "/" {
			http.NotFound(w, req)
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		_, _ = w.Write([]byte("kamlsrv cluster admin\n\n/metrics\n/statusz\n/debug/pprof/\n"))
	})
	return mux
}
