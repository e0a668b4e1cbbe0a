package obs

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/pprof"
	"strconv"
)

// maxDebugLimit bounds the ?limit= query parameter on the debug
// endpoints; larger requests are rejected rather than silently clamped.
const maxDebugLimit = 100000

// HandlerConfig names the observability state NewHandler serves. Any
// field may be nil/zero to disable its endpoints.
type HandlerConfig struct {
	Registry  *Registry        // /metrics
	Tracer    *Tracer          // /debug/trace
	Health    func() error     // /healthz: 503 with its error, else 200 (nil func always healthy)
	SlowLog   *SlowLog         // /debug/slow
	Journal   *Journal         // /debug/events
	Telemetry func() Telemetry // /debug/telemetry (the netq stats snapshot)
}

// httpError answers with a JSON error document, so the debug endpoints'
// failures are as machine-readable as their successes.
func httpError(w http.ResponseWriter, code int, format string, args ...any) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(map[string]any{
		"error":  fmt.Sprintf(format, args...),
		"status": code,
	})
}

// parseLimit reads an optional ?limit= parameter: a positive integer up
// to maxDebugLimit. ok is false when the parameter is present but
// malformed or out of bounds (the handler has already answered 400).
func parseLimit(w http.ResponseWriter, r *http.Request) (limit int, ok bool) {
	raw := r.URL.Query().Get("limit")
	if raw == "" {
		return 0, true
	}
	n, err := strconv.Atoi(raw)
	if err != nil {
		httpError(w, http.StatusBadRequest, "bad limit %q: not an integer", raw)
		return 0, false
	}
	if n < 1 || n > maxDebugLimit {
		httpError(w, http.StatusBadRequest, "limit %d out of bounds [1, %d]", n, maxDebugLimit)
		return 0, false
	}
	return n, true
}

func writeJSON(w http.ResponseWriter, doc any) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(doc)
}

// NewHandler builds the observability mux over the given state:
//
//	/metrics          Prometheus text exposition format
//	/healthz          liveness probe (503 while unhealthy)
//	/debug/trace      recent query spans (?trace=<id>, ?format=json, ?limit=N)
//	/debug/slow       captured slow operations with full spans (?limit=N, ?op=NAME)
//	/debug/events     the operational event journal (?limit=N, ?since=SEQ)
//	/debug/telemetry  the full stats snapshot served over netq
//	/debug/pprof/*    the standard runtime profiles (heap?debug=1 prints
//	                  the full runtime.MemStats)
//
// Every endpoint reads its state when asked; nothing is sampled ahead.
func NewHandler(cfg HandlerConfig) http.Handler {
	mux := http.NewServeMux()
	if cfg.Registry != nil {
		mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
			cfg.Registry.WritePrometheus(w)
		})
	}
	if cfg.Tracer != nil {
		mux.HandleFunc("/debug/trace", func(w http.ResponseWriter, r *http.Request) {
			serveTrace(cfg.Tracer, w, r)
		})
	}
	if cfg.SlowLog != nil {
		mux.HandleFunc("/debug/slow", func(w http.ResponseWriter, r *http.Request) {
			limit, ok := parseLimit(w, r)
			if !ok {
				return
			}
			op := r.URL.Query().Get("op")
			doc := map[string]any{
				"threshold_ns": cfg.SlowLog.Threshold(),
				"captured":     cfg.SlowLog.Captured(),
				"entries":      cfg.SlowLog.RecentOp(op, limit),
			}
			if op != "" {
				doc["op"] = op
			}
			writeJSON(w, doc)
		})
	}
	if cfg.Journal != nil {
		mux.HandleFunc("/debug/events", func(w http.ResponseWriter, r *http.Request) {
			limit, ok := parseLimit(w, r)
			if !ok {
				return
			}
			doc := map[string]any{
				"total":   cfg.Journal.Total(),
				"by_type": cfg.Journal.CountsByType(),
			}
			if raw := r.URL.Query().Get("since"); raw != "" {
				seq, err := strconv.ParseUint(raw, 10, 64)
				if err != nil {
					httpError(w, http.StatusBadRequest, "bad since %q: not a sequence number", raw)
					return
				}
				es := cfg.Journal.Since(seq)
				if limit > 0 && len(es) > limit {
					es = es[:limit]
				}
				doc["events"] = es
			} else {
				doc["events"] = cfg.Journal.Recent(limit)
			}
			writeJSON(w, doc)
		})
	}
	if cfg.Telemetry != nil {
		mux.HandleFunc("/debug/telemetry", func(w http.ResponseWriter, r *http.Request) {
			writeJSON(w, cfg.Telemetry())
		})
	}
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		if cfg.Health != nil {
			if err := cfg.Health(); err != nil {
				w.WriteHeader(http.StatusServiceUnavailable)
				w.Write([]byte(err.Error() + "\n"))
				return
			}
		}
		w.Write([]byte("ok\n"))
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// serveTrace answers /debug/trace:
//
//	/debug/trace               recent spans as JSON Lines (?limit=N)
//	/debug/trace?trace=<id>    one correlated trace as a JSON doc
//	/debug/trace?format=json   all buffered spans grouped by trace
//
// A malformed trace id is a 400; a well-formed id with no buffered spans
// is a 404 — never an empty 200 that reads like a healthy-but-idle
// server.
func serveTrace(tr *Tracer, w http.ResponseWriter, r *http.Request) {
	if id := r.URL.Query().Get("trace"); id != "" {
		if _, err := ParseTraceID(id); err != nil {
			httpError(w, http.StatusBadRequest, "malformed trace id: %v", err)
			return
		}
		spans := tr.Trace(id)
		if len(spans) == 0 {
			httpError(w, http.StatusNotFound, "trace %s: no buffered spans (expired from the ring or never seen)", id)
			return
		}
		writeJSON(w, TraceDoc{TraceID: id, Spans: spans})
		return
	}
	if r.URL.Query().Get("format") == "json" {
		writeJSON(w, tr.Traces())
		return
	}
	limit, ok := parseLimit(w, r)
	if !ok {
		return
	}
	spans := tr.Recent()
	if limit > 0 && len(spans) > limit {
		spans = spans[len(spans)-limit:]
	}
	w.Header().Set("Content-Type", "application/jsonl; charset=utf-8")
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			return
		}
	}
}
