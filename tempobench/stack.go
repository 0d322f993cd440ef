package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"time"

	"repro/internal/server"
)

// loopback serves a handler on 127.0.0.1 until closed.
type loopback struct {
	srv  *http.Server
	url  string
	done chan struct{}
}

func serve(h http.Handler) (*loopback, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listening on loopback: %w", err)
	}
	lb := &loopback{
		srv:  &http.Server{Handler: h, ReadHeaderTimeout: time.Minute},
		url:  "http://" + ln.Addr().String(),
		done: make(chan struct{}),
	}
	go func() {
		defer close(lb.done)
		lb.srv.Serve(ln)
	}()
	return lb, nil
}

// close stops accepting, waits for in-flight requests and for the serving
// goroutine to exit.
func (lb *loopback) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := lb.srv.Shutdown(ctx)
	<-lb.done
	return err
}

// tempod is one in-process server.Server behind a loopback listener.
type tempod struct {
	srv  *server.Server
	http *loopback
	logs *lockedBuffer
	// recovery is server.New's wall time: opening the data dir and
	// recovering every session and job in it.
	recovery time.Duration
}

func startTempod(dir string, internal bool, tr *tracer) (*tempod, error) {
	logs := &lockedBuffer{}
	t0 := time.Now()
	s, err := server.New(server.Config{DataDir: dir, Internal: internal, Logger: log.New(logs, "", 0)})
	if err != nil {
		return nil, fmt.Errorf("starting tempod on %s: %w", dir, err)
	}
	recovery := time.Since(t0)
	lb, err := serve(tr.wrap(spanWorker, levelWorker, s.Handler()))
	if err != nil {
		s.Drain(context.Background())
		return nil, err
	}
	return &tempod{srv: s, http: lb, logs: logs, recovery: recovery}, nil
}

func (t *tempod) close() error {
	err := t.http.close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if derr := t.srv.Drain(ctx); err == nil {
		err = derr
	}
	return err
}

var recoveryLine = regexp.MustCompile(`segments scanned (\d+), records replayed (\d+)`)

// recoveryCounts reads segments scanned and records replayed from tempod's
// one-line start-up recovery summary.
func (t *tempod) recoveryCounts() (segments, records int64) {
	m := recoveryLine.FindStringSubmatch(t.logs.String())
	if m == nil {
		return 0, 0
	}
	segments, _ = strconv.ParseInt(m[1], 10, 64)
	records, _ = strconv.ParseInt(m[2], 10, 64)
	return segments, records
}

// client is the benchmark's one closed-loop client: a single keep-alive
// loopback connection, one request at a time.
type client struct {
	hc   *http.Client
	base string
	tr   *tracer
}

func newClient(base string, tr *tracer) *client {
	tp := &http.Transport{
		MaxIdleConnsPerHost: 1,
		MaxConnsPerHost:     1,
		DisableCompression:  true,
	}
	return &client{hc: &http.Client{Transport: tp}, base: base, tr: tr}
}

func (c *client) close() { c.hc.Transport.(*http.Transport).CloseIdleConnections() }

// do sends one request and reads the whole reply.
func (c *client) do(method, path string, body []byte) (int, []byte, error) {
	if c.tr.on.Load() {
		id := c.tr.begin(spanRequest, levelClient, c.tr.currentOp())
		defer c.tr.end(id)
	}
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, c.base+path, rd)
	if err != nil {
		return 0, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	return resp.StatusCode, out, err
}

// copyDir copies the regular files and directories under src to dst.
func copyDir(src, dst string) error {
	return filepath.Walk(src, func(path string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if info.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(target, data, 0o644)
	})
}
