package serve

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"time"

	"merchandiser/internal/merr"
)

// maxBodyBytes bounds a /place request body.
const maxBodyBytes = 1 << 20

// HTTPConfig tunes the HTTP front of the service.
type HTTPConfig struct {
	// RequestTimeout caps how long one /place request may wait for its
	// plan (queue wait + evaluation). 0 disables the per-request
	// deadline. Expired requests answer 504.
	RequestTimeout time.Duration
}

// ReadyResponse is the /readyz body: readiness plus the identity of the
// serving model, so a gate (or an operator curl) can see which version
// each replica of a fleet is on.
type ReadyResponse struct {
	Ready   bool   `json:"ready"`
	Version string `json:"version,omitempty"`
	SHA256  string `json:"sha256,omitempty"`
}

// ReloadResponse is the /reloadz body.
type ReloadResponse struct {
	Reloaded bool   `json:"reloaded"`
	Version  string `json:"version,omitempty"`
	SHA256   string `json:"sha256,omitempty"`
}

// Handler exposes the service over HTTP:
//
//	GET  /healthz  — liveness: 200 while the process runs
//	GET  /readyz   — readiness: 200 once an artifact is loaded (503
//	                 before load and during drain); the JSON body names
//	                 the serving model's version and artifact SHA-256
//	GET  /metricsz — the obs registry's deterministic JSON snapshot
//	POST /reloadz  — re-resolve the reload source and hot-swap the model
//	POST /place    — one PlacementRequest in, one PlacementResponse out
func (s *Service) Handler(cfg HTTPConfig) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		w.Write([]byte("ok\n"))
	})
	mux.HandleFunc("/readyz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		info := s.Info()
		out := ReadyResponse{Ready: s.Ready(), Version: info.Version, SHA256: info.SHA256}
		if !out.Ready {
			w.WriteHeader(http.StatusServiceUnavailable)
		}
		json.NewEncoder(w).Encode(out)
	})
	mux.HandleFunc("/reloadz", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			http.Error(w, "POST to reload", http.StatusMethodNotAllowed)
			return
		}
		if s.cfg.Source == nil {
			http.Error(w, "no reload source configured (start the daemon with -registry)", http.StatusNotImplemented)
			return
		}
		info, reloaded, err := s.Reload(r.Context())
		if err != nil {
			status := httpStatus(err)
			if status == 0 {
				return
			}
			http.Error(w, err.Error(), status)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(ReloadResponse{Reloaded: reloaded, Version: info.Version, SHA256: info.SHA256})
	})
	mux.HandleFunc("/metricsz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		if s.cfg.Obs == nil {
			w.Write([]byte("{}\n"))
			return
		}
		s.cfg.Obs.Snapshot(true).WriteJSON(w)
	})
	mux.HandleFunc("/place", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			http.Error(w, "POST a placement request", http.StatusMethodNotAllowed)
			return
		}
		var req PlacementRequest
		dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&req); err != nil {
			http.Error(w, "bad request body: "+err.Error(), http.StatusBadRequest)
			return
		}
		// The body is one request: anything after it but whitespace is
		// rejected, a stray ] or } included (which dec.More misses).
		if _, err := dec.Token(); err != io.EOF {
			http.Error(w, "bad request body: trailing data after the request", http.StatusBadRequest)
			return
		}
		ctx := r.Context()
		if cfg.RequestTimeout > 0 {
			var cancel context.CancelFunc
			ctx, cancel = context.WithTimeout(ctx, cfg.RequestTimeout)
			defer cancel()
		}
		out, err := s.Place(ctx, &req)
		if err != nil {
			status := httpStatus(err)
			if status == 0 {
				// The client is gone; there is no one to answer.
				return
			}
			http.Error(w, err.Error(), status)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(out)
	})
	return mux
}

// httpStatus maps the service's error taxonomy onto HTTP status codes.
// It returns 0 when the failure is the client's own disconnect (nothing
// to write).
func httpStatus(err error) int {
	switch {
	case errors.Is(err, merr.ErrBadApp):
		return http.StatusBadRequest
	case errors.Is(err, merr.ErrCapacity):
		return http.StatusTooManyRequests
	case errors.Is(err, merr.ErrNotReady):
		return http.StatusServiceUnavailable
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout
	case errors.Is(err, merr.ErrCanceled):
		return 0
	default:
		return http.StatusInternalServerError
	}
}
