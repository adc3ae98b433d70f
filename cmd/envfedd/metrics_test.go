package main

import (
	"context"
	"io"
	"net/http"
	"strings"
	"testing"
)

// TestEnvfeddMetricsCountBytesAndErrors: envfedd's /metrics carries the
// same per-endpoint families as envmond's, under its own prefix — bytes
// written, and error responses by endpoint and status code.
func TestEnvfeddMetricsCountBytesAndErrors(t *testing.T) {
	m := startMember(t, "alpha")
	d, err := newFedDaemon(config{
		listen:      "127.0.0.1:0",
		membersSpec: "rack0=" + m.URL,
		retries:     -1,
		logf:        t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- d.run(ctx) }()
	defer func() {
		cancel()
		if err := <-done; err != nil {
			t.Errorf("run: %v", err)
		}
	}()
	base := "http://" + d.Addr()
	get := func(path string) (int, string) {
		t.Helper()
		resp, err := http.Get(base + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatalf("GET %s: read: %v", path, err)
		}
		return resp.StatusCode, string(body)
	}

	if status, body := get("/topk?k=1"); status != http.StatusOK {
		t.Fatalf("topk status %d: %s", status, body)
	}
	if status, body := get("/query?from=yesterday"); status != http.StatusBadRequest {
		t.Fatalf("bad query status %d: %s", status, body)
	}
	status, out := get("/metrics")
	if status != http.StatusOK {
		t.Fatalf("metrics status %d", status)
	}
	for _, want := range []string{
		`envfed_http_errors_total{code="400",endpoint="query"} 1`,
		`envfed_http_requests_total{endpoint="topk"} 1`,
	} {
		if !strings.Contains(out, want+"\n") {
			t.Errorf("metrics missing %q:\n%s", want, out)
		}
	}
	if !strings.Contains(out, `envfed_http_response_bytes_total{endpoint="topk"} `) ||
		strings.Contains(out, `envfed_http_response_bytes_total{endpoint="topk"} 0`+"\n") {
		t.Errorf("topk response bytes not counted:\n%s", out)
	}
}
