package lifecycle

import (
	"context"
	"io"
	"net"
	"net/http"
	"testing"
)

func listen(t *testing.T) net.Listener {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	return ln
}

// TestServeStopsCleanlyOnCancel: a stop through ctx runs drain once and
// returns nil.
func TestServeStopsCleanlyOnCancel(t *testing.T) {
	ln := listen(t)
	srv := &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, "up")
	})}
	ctx, cancel := context.WithCancel(context.Background())
	drained := 0
	done := make(chan error, 1)
	go func() { done <- Serve(ctx, srv, ln, func() { drained++ }) }()

	resp, err := http.Get("http://" + ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	cancel()
	if err := <-done; err != nil {
		t.Fatalf("Serve = %v, want nil", err)
	}
	if drained != 1 {
		t.Fatalf("drain ran %d times, want 1", drained)
	}
}

// TestServeReturnsServeFailure: a listener that fails is reported, after
// drain has still run.
func TestServeReturnsServeFailure(t *testing.T) {
	ln := listen(t)
	ln.Close()
	drained := false
	err := Serve(context.Background(), &http.Server{}, ln, func() { drained = true })
	if err == nil {
		t.Fatal("Serve on a closed listener returned nil")
	}
	if !drained {
		t.Fatal("drain did not run")
	}
}
