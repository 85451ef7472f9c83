package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"fielddb"
	"fielddb/internal/bench"
	"fielddb/internal/serve"
	"fielddb/internal/tin"
)

// The served data. The data sets are fixed; --seed varies only the requests.
const (
	fieldName   = "f"
	tinPoints   = 18000 // ≈36k triangles, 4× the paper's Fig 8b TIN
	tinSeed     = 907
	archivePool = 256 // stored-index pool pages (1 MiB) against a ≈9 MiB file
	// batchWindow and the zero serve.Config are fieldserve's defaults.
	batchWindow = 2 * time.Millisecond
)

// fixture is one workload's field, query surface and server.
type fixture struct {
	field fielddb.Field
	db    *fielddb.DB          // live database; nil for archive-export
	si    *fielddb.StoredIndex // stored index; nil unless archive-export
	path  string               // archive file, removed by close
	srv   *server              // untraced server
}

// querier is the surface handed to serve.Field.
func (f *fixture) querier() fielddb.Querier {
	if f.si != nil {
		return f.si
	}
	return f.db
}

// setTracer installs (nil removes) the engine tracer; only between phases.
func (f *fixture) setTracer(t fielddb.Tracer) {
	if f.si != nil {
		f.si.SetTracer(t)
		return
	}
	f.db.SetTracer(t)
}

func (f *fixture) close() {
	if f.srv != nil {
		f.srv.stop()
	}
	if f.db != nil {
		f.db.Close()
	}
	if f.si != nil {
		f.si.Close()
	}
	if f.path != "" {
		os.Remove(f.path)
	}
}

// buildField builds the workload's field from its fixed generator.
func buildField(workload string) (fielddb.Field, error) {
	if workload == wlLiveUpdate {
		return fielddb.NoiseTIN(tinPoints, tinSeed)
	}
	return bench.FixtureTerrain(bench.FixtureSide, bench.FixtureSeed)
}

// setup builds the workload's field and serving surface and starts an
// untraced server: the span setup_s measures.
func setup(workload, workdir string, n int) (*fixture, error) {
	f, err := buildField(workload)
	if err != nil {
		return nil, fmt.Errorf("building field: %w", err)
	}
	fx := &fixture{field: f}
	db, err := fielddb.Open(f, fielddb.Options{Method: fielddb.IHilbert, BatchWindow: batchWindow})
	if err != nil {
		return nil, fmt.Errorf("opening %s: %w", workload, err)
	}
	if workload == wlArchiveExport {
		fx.path = filepath.Join(workdir, fmt.Sprintf("archive-%d-%d.fidx", os.Getpid(), n))
		err := db.SaveIndex(fx.path)
		db.Close()
		if err != nil {
			os.Remove(fx.path)
			return nil, fmt.Errorf("saving archive: %w", err)
		}
		fx.si, err = fielddb.OpenIndexWith(fx.path, fielddb.OpenIndexOptions{PoolPages: archivePool, BatchWindow: batchWindow})
		if err != nil {
			os.Remove(fx.path)
			return nil, fmt.Errorf("opening archive: %w", err)
		}
	} else {
		fx.db = db
	}
	fx.srv, err = startServer(fx, fx.querier(), nil)
	if err != nil {
		fx.close()
		return nil, err
	}
	return fx, nil
}

// server is one serve.Server on a loopback listener.
type server struct {
	srv  *serve.Server
	hs   *http.Server
	base string
	done chan struct{}
}

// startServer serves q (and fx.db's update endpoint) with fieldserve's
// admission defaults. wrap, when non-nil, wraps the server's handler; the
// call returns once the server answers /healthz.
func startServer(fx *fixture, q fielddb.Querier, wrap func(http.Handler) http.Handler) (*server, error) {
	srv := serve.New(map[string]*serve.Field{fieldName: {Querier: q, DB: fx.db}}, serve.Config{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listening: %w", err)
	}
	h := srv.Handler()
	if wrap != nil {
		h = wrap(h)
	}
	s := &server{srv: srv, hs: &http.Server{Handler: h}, base: "http://" + ln.Addr().String(), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		if err := s.hs.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintln(os.Stderr, "e2ebench: serve:", err)
		}
	}()
	if err := s.ready(); err != nil {
		s.stop()
		return nil, err
	}
	return s, nil
}

func (s *server) ready() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, s.base+"/healthz", nil)
	if err != nil {
		return err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return fmt.Errorf("server not ready: %w", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("server not ready: %s", resp.Status)
	}
	http.DefaultClient.CloseIdleConnections()
	return nil
}

// stop drains the server, closes it and waits for its serve loop to end.
func (s *server) stop() {
	s.srv.Drain()
	s.hs.Close()
	<-s.done
}

// freshTIN rebuilds the live-update TIN and sets its samples to values.
func freshTIN(values []float64) (*tin.TIN, error) {
	t, err := fielddb.NoiseTIN(tinPoints, tinSeed)
	if err != nil {
		return nil, err
	}
	for i, v := range values {
		if err := t.SetSample(i, v); err != nil {
			return nil, err
		}
	}
	return t, nil
}
