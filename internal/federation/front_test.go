package federation

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"envmon/internal/telemetry"
	"envmon/internal/telemetry/httpapi"
)

// fronts puts one store behind envmond's front (httpapi.New) and behind
// a 1-member federation front, and returns both servers and base URLs.
func fronts(t *testing.T) (local, fed *httpapi.Server, localURL, fedURL string) {
	t.Helper()
	st := telemetry.New(smallStore)
	t.Cleanup(st.Close)
	for i := 0; i < 8; i++ {
		ingestNode(t, st, i)
	}
	now := func() time.Duration { return 4 * time.Second }
	member := httptest.NewServer(httpapi.New(st, now))
	t.Cleanup(member.Close)
	f, err := New(Config{Members: []Member{{Name: "rack00", URL: member.URL}}, Retries: -1})
	if err != nil {
		t.Fatal(err)
	}
	local, fed = httpapi.New(st, now), NewServer(f)
	lts, fts := httptest.NewServer(local), httptest.NewServer(fed)
	t.Cleanup(lts.Close)
	t.Cleanup(fts.Close)
	return local, fed, lts.URL, fts.URL
}

func errorBody(t *testing.T, path string, body []byte) httpapi.ErrorBody {
	t.Helper()
	var eb httpapi.ErrorBody
	if err := json.Unmarshal(body, &eb); err != nil || eb.Error == "" {
		t.Fatalf("%s: not a JSON error body: %s", path, body)
	}
	return eb
}

// TestFrontsAnswerErrorsAlike: a request the wire grammar rejects, or a
// filter matching nothing, gets the same status and the same error body
// from envmond's front and from a federation front over the same store.
func TestFrontsAnswerErrorsAlike(t *testing.T) {
	_, _, localURL, fedURL := fronts(t)
	cases := []struct {
		path   string
		status int
	}{
		{"/query?from=yesterday", http.StatusBadRequest},
		{"/query?to=later", http.StatusBadRequest},
		{"/query?res=fortnightly", http.StatusBadRequest},
		{"/query?agg=median", http.StatusBadRequest},
		{"/query?deadline_ms=0", http.StatusBadRequest},
		{"/topk?k=-1", http.StatusBadRequest},
		{"/topk?k=10001", http.StatusBadRequest},
		{"/topk?k=abc", http.StatusBadRequest},
		{"/topk?deadline_ms=0", http.StatusBadRequest},
		{"/query?node=no-such-node", http.StatusNotFound},
	}
	for _, tc := range cases {
		ls, lbody := get(t, localURL+tc.path)
		fs, fbody := get(t, fedURL+tc.path)
		if ls != tc.status || fs != tc.status {
			t.Errorf("GET %s: status %d (store) / %d (federation), want %d", tc.path, ls, fs, tc.status)
			continue
		}
		if l, f := errorBody(t, tc.path, lbody), errorBody(t, tc.path, fbody); l != f {
			t.Errorf("GET %s: store says %q, federation says %q", tc.path, l.Error, f.Error)
		}
	}

	var bodies [2]httpapi.ErrorBody
	for i, base := range []string{localURL, fedURL} {
		resp, err := http.Post(base+"/query", "text/plain", strings.NewReader("x"))
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Errorf("POST %s/query: status %d, want 405", base, resp.StatusCode)
		}
		if err := json.NewDecoder(resp.Body).Decode(&bodies[i]); err != nil {
			t.Errorf("POST %s/query: %v", base, err)
		}
		resp.Body.Close()
	}
	if bodies[0] != bodies[1] || bodies[0].Error == "" {
		t.Errorf("POST bodies differ: %+v", bodies)
	}
}

// TestFrontsCloseAlike: once StartClosing is called, either front turns
// /query and /topk away with a 503 JSON error while /healthz stays up.
func TestFrontsCloseAlike(t *testing.T) {
	local, fed, localURL, fedURL := fronts(t)
	for _, fr := range []struct {
		srv  *httpapi.Server
		base string
	}{{local, localURL}, {fed, fedURL}} {
		fr.srv.StartClosing()
		for _, path := range []string{"/query", "/topk"} {
			status, body := get(t, fr.base+path)
			if status != http.StatusServiceUnavailable {
				t.Errorf("GET %s%s while closing: status %d, want 503: %s", fr.base, path, status, body)
				continue
			}
			errorBody(t, path, body)
		}
		if status, body := get(t, fr.base+"/healthz"); status != http.StatusOK {
			t.Errorf("GET %s/healthz while closing: status %d: %s", fr.base, status, body)
		}
	}
}
