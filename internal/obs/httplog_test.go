package obs

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

func TestAccessLog(t *testing.T) {
	r := NewRegistry()
	requests := r.NewCounterVec("oovr_http_requests_total", "", "path", "status")
	var logged []string
	logf := func(format string, args ...any) {
		logged = append(logged, fmt.Sprintf(format, args...))
	}
	h := AccessLog(http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if strings.HasSuffix(req.URL.Path, "missing") {
			http.NotFound(w, req)
			return
		}
		w.Header().Set("X-Oovrd-Cache", "hit")
		w.Write([]byte("ok"))
	}), logf, requests)

	for _, path := range []string{"/run", "/missing", "/also-missing"} {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
	}

	if len(logged) != 3 {
		t.Fatalf("want 3 log lines, got %d: %v", len(logged), logged)
	}
	if !strings.HasPrefix(logged[0], "GET /run 200 ") || !strings.Contains(logged[0], "cache=hit") {
		t.Errorf("unexpected access line: %q", logged[0])
	}
	if !strings.Contains(logged[1], " 404 ") || !strings.Contains(logged[1], "cache=-") {
		t.Errorf("unexpected 404 line: %q", logged[1])
	}
	if got := requests.With("/run", "2xx").Value(); got != 1 {
		t.Errorf("/run 2xx count = %d, want 1", got)
	}
	// 404s collapse into one series regardless of path.
	if got := requests.With("other", "4xx").Value(); got != 2 {
		t.Errorf("other 4xx count = %d, want 2", got)
	}
}
