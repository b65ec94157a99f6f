// Command mcserved serves magic counting queries over HTTP: a
// long-lived database of L/E/R facts, a bounded solver worker pool,
// a compiled query graph that is always current — appends roll it
// forward, queries only read it — and a per-(source, strategy, mode)
// result cache invalidated by fact appends. Every append rolls the
// compiled graph forward with a delta patch instead of a rebuild, so
// append-heavy mixed traffic keeps its amortized compile cost near
// zero.
//
// Usage:
//
//	mcserved                       # listen on :8377, memory-only
//	mcserved -data-dir ./data      # restart-safe: WAL + snapshots + recovery
//	mcserved -data-dir ./data -fsync interval -snapshot-every 10000
//	mcserved -addr :9000 -workers 8 -timeout 5s
//	mcserved -debug-addr :6060     # also serve net/http/pprof there
//	mcserved -quiet                # no per-request log lines
//
// With -data-dir every acknowledged fact append is write-ahead logged
// (fsynced per -fsync) and the database is periodically snapshotted;
// on startup the newest valid snapshot is loaded and the log tail
// replayed, so a crash — even SIGKILL — loses nothing acknowledged
// under -fsync always. A data directory written by an incompatible
// on-disk format version is rejected at startup with a clear error.
//
// Every request is logged via log/slog with a sequential request id
// that is also echoed in the X-Request-Id response header.
//
// API (JSON unless noted):
//
//	POST /v1/query        {"source": "ann", "strategy": "multiple", "mode": "integrated", "timeout_ms": 100}
//	                      strategy/mode optional: omitted, the method is
//	                      chosen per the query graph's Figure 3 regime
//	POST /v1/query/batch  {"sources": ["ann", "bob"], "strategy": "...", "mode": "...", "timeout_ms": 100}
//	                      many bound constants against one snapshot and
//	                      one compiled graph; items succeed or fail
//	                      independently
//	POST /v1/facts        {"l": [...], "e": [...], "r": [...], "parent": [...]}
//	                      pairs are {"from": "x", "to": "y"}; parent pairs
//	                      feed L and R plus identity E facts (the classic
//	                      same-generation instance, loaded incrementally)
//	GET  /v1/stats        service counters
//	GET  /healthz         liveness probe (text)
//	GET  /metrics         Prometheus text exposition
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"magiccounting/internal/durable"
	"magiccounting/internal/server"
)

// syncWriter serializes writes to a shared writer. The slog handler
// writes request lines from handler goroutines while run() writes
// lifecycle lines from the main goroutine; both must funnel through
// one lock or the two interleave (and race, on a plain buffer).
type syncWriter struct {
	mu sync.Mutex
	w  io.Writer
}

func (s *syncWriter) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.w.Write(p)
}

// statusWriter captures the response status and byte count for the
// request log.
type statusWriter struct {
	http.ResponseWriter
	status int
	bytes  int64
}

func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(p []byte) (int, error) {
	n, err := w.ResponseWriter.Write(p)
	w.bytes += int64(n)
	return n, err
}

// Flush forwards to the wrapped writer so streaming handlers keep
// their flush capability behind the logging middleware.
func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// Unwrap exposes the underlying writer to http.ResponseController,
// preserving the optional interfaces (Hijacker, deadlines) this
// wrapper does not reimplement.
func (w *statusWriter) Unwrap() http.ResponseWriter {
	return w.ResponseWriter
}

// requestLog wraps h with structured request logging: every request
// gets a sequential id, echoed back in X-Request-Id and attached to
// its log line so a client-reported failure can be matched to the
// server-side record.
func requestLog(h http.Handler, log *slog.Logger) http.Handler {
	var seq atomic.Int64
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id := fmt.Sprintf("req-%06d", seq.Add(1))
		w.Header().Set("X-Request-Id", id)
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		started := time.Now()
		h.ServeHTTP(sw, r)
		log.Info("request",
			"id", id,
			"method", r.Method,
			"path", r.URL.Path,
			"status", sw.status,
			"bytes", sw.bytes,
			"elapsed_ms", float64(time.Since(started).Microseconds())/1000,
			"remote", r.RemoteAddr)
	})
}

func main() {
	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	if err := run(os.Args[1:], os.Stdout, nil, stop); err != nil {
		fmt.Fprintln(os.Stderr, "mcserved:", err)
		os.Exit(1)
	}
}

// options is mcserved's command line.
type options struct {
	addr, debugAddr, dataDir, fsync  string
	workers, cacheCap, snapshotEvery int
	timeout, fsyncInterval           time.Duration
	quiet                            bool
}

// newFlagSet declares mcserved's flags, parsed into o. README's flag
// table documents exactly these (TestReadmeFlagTable).
func newFlagSet(o *options) *flag.FlagSet {
	fs := flag.NewFlagSet("mcserved", flag.ContinueOnError)
	fs.StringVar(&o.addr, "addr", ":8377", "listen address")
	fs.IntVar(&o.workers, "workers", 0, "solver worker-pool size (0 = GOMAXPROCS)")
	fs.DurationVar(&o.timeout, "timeout", 30*time.Second, "default per-query timeout")
	fs.IntVar(&o.cacheCap, "cache", 1024, "result-cache capacity (entries)")
	fs.StringVar(&o.debugAddr, "debug-addr", "", "serve net/http/pprof on this address (disabled when empty; keep it off public interfaces)")
	fs.BoolVar(&o.quiet, "quiet", false, "suppress per-request log lines")
	fs.StringVar(&o.dataDir, "data-dir", "", "durable state directory (empty = memory-only, state lost on exit)")
	fs.StringVar(&o.fsync, "fsync", "always", "WAL fsync policy with -data-dir: always, interval, or never")
	fs.DurationVar(&o.fsyncInterval, "fsync-interval", 100*time.Millisecond, "background sync period under -fsync interval")
	fs.IntVar(&o.snapshotEvery, "snapshot-every", 50_000, "snapshot once this many facts have been appended since the last one (0 = only on shutdown)")
	// Deprecated: -shards is accepted so existing launch lines keep
	// working, and ignored; ROADMAP item 1's [benchmark] half removes it.
	fs.Int("shards", 1, "deprecated and ignored: the server holds one compiled artifact")
	return fs
}

// run starts the server and blocks until a signal arrives on stop,
// then shuts down. ready, when non-nil, is sent the bound address once
// the listener is up. main passes the process's SIGINT/SIGTERM channel;
// in-process tests pass channels of their own, so a signal meant for
// one server never reaches another.
func run(args []string, stdout io.Writer, ready chan<- net.Addr, stop <-chan os.Signal) error {
	var o options
	if err := newFlagSet(&o).Parse(args); err != nil {
		return err
	}
	fsync, err := durable.ParseFsyncPolicy(o.fsync)
	if err != nil {
		return err
	}
	out := &syncWriter{w: stdout}
	svc := server.New(server.Config{
		Workers:        o.workers,
		DefaultTimeout: o.timeout,
		CacheCap:       o.cacheCap,
		Fsync:          fsync,
		FsyncInterval:  o.fsyncInterval,
		SnapshotEvery:  o.snapshotEvery,
	})
	if o.dataDir != "" {
		// Recover before listening: a port that answers implies a
		// database that is fully restored.
		info, err := svc.Open(o.dataDir)
		if err != nil {
			return fmt.Errorf("open data dir %s: %w", o.dataDir, err)
		}
		st := svc.Stats()
		fmt.Fprintf(out, "mcserved: recovered %s: generation %d, %d facts (snapshot gen %d, %d wal records replayed, %d bytes truncated)\n",
			o.dataDir, info.Generation, st.FactsL+st.FactsE+st.FactsR,
			info.SnapshotGeneration, info.ReplayedRecords, info.TruncatedBytes)
		for _, skipped := range info.SkippedSnapshots {
			fmt.Fprintf(out, "mcserved: skipped corrupt snapshot %s\n", skipped)
		}
	}
	ln, err := net.Listen("tcp", o.addr)
	if err != nil {
		return err
	}
	handler := http.Handler(server.NewHandler(svc))
	if !o.quiet {
		handler = requestLog(handler, slog.New(slog.NewTextHandler(out, nil)))
	}
	srv := &http.Server{
		Handler:           handler,
		ReadHeaderTimeout: 5 * time.Second,
	}
	var debugSrv *http.Server
	if o.debugAddr != "" {
		// A dedicated mux so the profiling endpoints never leak onto
		// the service listener (and vice versa).
		mux := http.NewServeMux()
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		dln, err := net.Listen("tcp", o.debugAddr)
		if err != nil {
			return fmt.Errorf("debug listener: %w", err)
		}
		debugSrv = &http.Server{Handler: mux, ReadHeaderTimeout: 5 * time.Second}
		fmt.Fprintf(out, "mcserved: pprof on %s/debug/pprof/\n", dln.Addr())
		go debugSrv.Serve(dln)
	}
	fmt.Fprintf(out, "mcserved: listening on %s\n", ln.Addr())
	if ready != nil {
		ready <- ln.Addr()
	}

	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()
	select {
	case err := <-errc:
		// ErrServerClosed means an orderly Shutdown elsewhere, not a
		// serving failure; reporting it as an error would flip the exit
		// status of every clean stop. Either way the service still gets
		// its Close — with -data-dir that is the final checkpoint.
		if errors.Is(err, http.ErrServerClosed) {
			err = nil
		}
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		return errors.Join(err, svc.Close(ctx))
	case sig := <-stop:
		fmt.Fprintf(out, "mcserved: %v, shutting down\n", sig)
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		// Stop accepting and wait for in-flight handlers, then drain
		// the solver pool, then the debug listener. Every error is
		// kept: a failed drain must not be masked by a clean listener
		// close (or vice versa).
		var errs []error
		if err := srv.Shutdown(ctx); err != nil {
			errs = append(errs, fmt.Errorf("server shutdown: %w", err))
		}
		if err := svc.Close(ctx); err != nil {
			errs = append(errs, err)
		}
		if debugSrv != nil {
			if err := debugSrv.Shutdown(ctx); err != nil {
				errs = append(errs, fmt.Errorf("debug server shutdown: %w", err))
			}
		}
		return errors.Join(errs...)
	}
}
