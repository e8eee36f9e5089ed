package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"
)

// syncBuf is a Writer safe to read while the daemon goroutine logs.
type syncBuf struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncBuf) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuf) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

// TestMetricsAndOpsListener boots a daemon with -ops-addr and checks
// the full observability surface: Prometheus exposition and trace
// headers on the service listener, plus /metrics, pprof, and the
// slow-request ring on the ops listener.
func TestMetricsAndOpsListener(t *testing.T) {
	dir := t.TempDir()
	dictPath := writeTestDict(t, dir)

	ctx, cancel := context.WithCancel(context.Background())
	out := &syncBuf{}
	done := make(chan error, 1)
	started := make(chan [2]string, 1)
	go func() {
		done <- run(ctx,
			[]string{"-dict", dictPath, "-addr", "127.0.0.1:0", "-ops-addr", "127.0.0.1:0"},
			out, func(a, ops string) { started <- [2]string{a, ops} })
	}()
	var base, opsBase string
	select {
	case a := <-started:
		base, opsBase = "http://"+a[0], "http://"+a[1]
	case err := <-done:
		t.Fatalf("daemon exited early: %v", err)
	case <-time.After(10 * time.Second):
		t.Fatal("daemon did not start")
	}
	defer func() {
		cancel()
		select {
		case err := <-done:
			if err != nil {
				t.Fatalf("daemon exit: %v", err)
			}
		case <-time.After(15 * time.Second):
			t.Fatal("daemon did not shut down")
		}
	}()

	get := func(url string) (int, string) {
		t.Helper()
		resp, err := http.Get(url)
		if err != nil {
			t.Fatalf("GET %s: %v", url, err)
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, string(b)
	}

	// Service listener: a health request carries a trace header, and
	// /metrics serves the exposition with all layers' families.
	resp, err := http.Get(base + "/v1/health")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if tr := resp.Header.Get("X-Efd-Trace"); len(tr) != 16 {
		t.Errorf("X-Efd-Trace = %q, want 16 hex chars", tr)
	}
	code, body := get(base + "/metrics")
	if code != http.StatusOK {
		t.Fatalf("service /metrics = %d", code)
	}
	for _, fam := range []string{
		"# TYPE efd_http_requests_total counter",
		"# TYPE efd_http_request_seconds histogram",
		"# TYPE efd_engine_samples_accepted_total counter",
		"# TYPE efd_engine_live_jobs gauge",
		"# TYPE efd_tsdb_wal_append_seconds histogram",
		"# TYPE efd_dict_keys gauge",
	} {
		if !strings.Contains(body, fam) {
			t.Errorf("service /metrics missing %q", fam)
		}
	}

	// Ops listener: same exposition, plus pprof and the slow ring.
	code, opsBody := get(opsBase + "/metrics")
	if code != http.StatusOK || !strings.Contains(opsBody, "efd_engine_live_jobs") {
		t.Errorf("ops /metrics = %d, engine family present = %v", code, strings.Contains(opsBody, "efd_engine_live_jobs"))
	}
	if code, _ := get(opsBase + "/debug/pprof/cmdline"); code != http.StatusOK {
		t.Errorf("ops pprof cmdline = %d", code)
	}
	code, slowBody := get(opsBase + "/v1/debug/slow")
	if code != http.StatusOK {
		t.Errorf("ops /v1/debug/slow = %d", code)
	}
	var slow struct {
		Slowest []struct {
			Route string `json:"route"`
		} `json:"slowest"`
	}
	if err := json.Unmarshal([]byte(slowBody), &slow); err != nil {
		t.Fatalf("slow body not JSON: %v\n%s", err, slowBody)
	}
	found := false
	for _, e := range slow.Slowest {
		if e.Route == "/v1/health" {
			found = true
		}
	}
	if !found {
		t.Errorf("slow ring has no /v1/health entry: %+v", slow.Slowest)
	}
}

// TestLogFormatJSON: every line the daemon writes with -log-format
// json is a JSON object with a msg field.
func TestLogFormatJSON(t *testing.T) {
	dir := t.TempDir()
	dictPath := writeTestDict(t, dir)

	ctx, cancel := context.WithCancel(context.Background())
	out := &syncBuf{}
	done := make(chan error, 1)
	started := make(chan string, 1)
	go func() {
		done <- run(ctx, []string{"-dict", dictPath, "-addr", "127.0.0.1:0", "-log-format", "json"},
			out, func(a, _ string) { started <- a })
	}()
	select {
	case <-started:
	case err := <-done:
		t.Fatalf("daemon exited early: %v", err)
	case <-time.After(10 * time.Second):
		t.Fatal("daemon did not start")
	}
	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("daemon exit: %v", err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("daemon did not shut down")
	}

	sc := bufio.NewScanner(strings.NewReader(out.String()))
	lines := 0
	for sc.Scan() {
		if strings.TrimSpace(sc.Text()) == "" {
			continue
		}
		lines++
		var rec struct {
			Msg string `json:"msg"`
		}
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil || rec.Msg == "" {
			t.Errorf("log line is not structured JSON: %q (err %v)", sc.Text(), err)
		}
	}
	if lines < 3 {
		t.Errorf("expected at least load/listen/shutdown events, got %d lines:\n%s", lines, out.String())
	}
}

// TestBadLogFlags: unknown level or format fail fast, before the
// daemon touches the dictionary or binds a port.
func TestBadLogFlags(t *testing.T) {
	if err := run(context.Background(), []string{"-log-level", "noisy"}, io.Discard, nil); err == nil || !strings.Contains(err.Error(), "-log-level") {
		t.Errorf("bad -log-level error = %v", err)
	}
	if err := run(context.Background(), []string{"-log-format", "xml"}, io.Discard, nil); err == nil || !strings.Contains(err.Error(), "-log-format") {
		t.Errorf("bad -log-format error = %v", err)
	}
}
