package main

import (
	"net/http"
	"testing"
)

// TestHTTPServerDeadlines pins the server's connection deadlines: headers
// and idle keep-alives are bounded, while the response write is not, since
// /v1/run/stream answers with a response that stays open for the length of
// the run.
func TestHTTPServerDeadlines(t *testing.T) {
	h := http.NewServeMux()
	srv := newHTTPServer(h)
	if srv.Handler != h {
		t.Error("server does not serve the given handler")
	}
	if srv.ReadHeaderTimeout != readHeaderTimeout || readHeaderTimeout <= 0 {
		t.Errorf("ReadHeaderTimeout = %v, want %v > 0", srv.ReadHeaderTimeout, readHeaderTimeout)
	}
	if srv.IdleTimeout != idleTimeout || idleTimeout <= 0 {
		t.Errorf("IdleTimeout = %v, want %v > 0", srv.IdleTimeout, idleTimeout)
	}
	if srv.WriteTimeout != 0 {
		t.Errorf("WriteTimeout = %v, want 0: a global write deadline would cut SSE streams", srv.WriteTimeout)
	}
}
