package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync"
)

// NewHandler exposes the service as a JSON HTTP API:
//
//	POST /v1/query        {"source": "a", "strategy": "...", "mode": "...", "timeout_ms": 100}
//	POST /v1/query/batch  {"sources": ["a", "b"], "strategy": "...", "mode": "...", "timeout_ms": 100}
//	POST /v1/facts        {"l": [...], "e": [...], "r": [...], "parent": [...]} (pairs are {"from": "x", "to": "y"})
//	GET  /v1/stats        service counters as JSON
//	GET  /healthz         liveness probe
//	GET  /metrics         Prometheus text exposition
func NewHandler(s *Service) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/query", func(w http.ResponseWriter, r *http.Request) {
		var req QueryRequest
		if err := decodeJSON(w, r, &req); err != nil {
			return
		}
		resp, err := s.Query(r.Context(), req)
		if err != nil {
			writeError(w, err)
			return
		}
		writeJSON(w, http.StatusOK, resp)
	})
	mux.HandleFunc("POST /v1/query/batch", func(w http.ResponseWriter, r *http.Request) {
		var req BatchRequest
		if err := decodeJSON(w, r, &req); err != nil {
			return
		}
		resp, err := s.QueryBatch(r.Context(), req)
		if err != nil {
			writeError(w, err)
			return
		}
		writeJSON(w, http.StatusOK, resp)
	})
	mux.HandleFunc("POST /v1/facts", func(w http.ResponseWriter, r *http.Request) {
		var req FactsRequest
		if err := decodeJSON(w, r, &req); err != nil {
			return
		}
		resp, err := s.AppendFacts(req)
		if err != nil {
			writeError(w, err)
			return
		}
		writeJSON(w, http.StatusOK, resp)
	})
	mux.HandleFunc("GET /v1/stats", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, s.Stats())
	})
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		w.Write([]byte("ok\n"))
	})
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		s.WriteMetrics(w)
	})
	return mux
}

// errorBody is the uniform error envelope.
type errorBody struct {
	Error string `json:"error"`
}

// maxBodyBytes bounds request bodies. Fact loads are the largest
// legitimate requests; 8 MiB holds hundreds of thousands of pairs,
// while an unbounded body would let one client buffer arbitrary
// memory into the decoder.
const maxBodyBytes = 8 << 20

func decodeJSON(w http.ResponseWriter, r *http.Request, dst any) error {
	r.Body = http.MaxBytesReader(w, r.Body, maxBodyBytes)
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(dst); err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			writeJSON(w, http.StatusRequestEntityTooLarge,
				errorBody{Error: fmt.Sprintf("request body exceeds %d bytes", tooLarge.Limit)})
			return err
		}
		writeJSON(w, http.StatusBadRequest, errorBody{Error: "bad JSON: " + err.Error()})
		return err
	}
	// Exactly one JSON value per request: trailing content means the
	// client framed the request wrong, and silently ignoring it would
	// drop data the client believed it sent.
	var trailing json.RawMessage
	if err := dec.Decode(&trailing); err != io.EOF {
		err = errors.New("trailing data after JSON body")
		writeJSON(w, http.StatusBadRequest, errorBody{Error: "bad JSON: " + err.Error()})
		return err
	}
	return nil
}

// jsonEncoder is an indenting encoder and the buffer it fills. A
// json.Encoder keeps its indent buffer between calls, but a fresh one
// per response regrows it by doubling: 24 KB of garbage for a 4 KB
// answer, three quarters of what a cache hit allocated and the reason
// the collector ran 30 times a second under hit traffic. Reusing the
// encoder keeps the bytes on the wire and drops that garbage.
type jsonEncoder struct {
	buf bytes.Buffer
	enc *json.Encoder
}

var jsonEncoders = sync.Pool{New: func() any {
	e := new(jsonEncoder)
	e.enc = json.NewEncoder(&e.buf)
	e.enc.SetIndent("", "  ")
	return e
}}

// maxPooledResponse keeps one bulk batch response from pinning
// megabytes of buffer in the pool.
const maxPooledResponse = 64 << 10

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	e := jsonEncoders.Get().(*jsonEncoder)
	e.buf.Reset()
	e.enc.Encode(v)
	w.Write(e.buf.Bytes())
	if e.buf.Cap() <= maxPooledResponse {
		jsonEncoders.Put(e)
	}
}

// writeError maps service errors to HTTP statuses: bad requests to
// 400, a closed (shutting-down) service to 503, deadline overruns to
// 504, client disconnects to 499 (nginx's convention), everything
// else to 500.
func writeError(w http.ResponseWriter, err error) {
	status := http.StatusInternalServerError
	switch {
	case errors.Is(err, ErrBadRequest):
		status = http.StatusBadRequest
	case errors.Is(err, ErrClosed):
		status = http.StatusServiceUnavailable
	case errors.Is(err, context.DeadlineExceeded):
		status = http.StatusGatewayTimeout
	case errors.Is(err, context.Canceled):
		status = 499
	}
	writeJSON(w, status, errorBody{Error: err.Error()})
}
