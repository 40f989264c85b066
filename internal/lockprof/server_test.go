package lockprof_test

// Endpoint contract tests for the /debug server: every route's status,
// Content-Type, and body shape — including the lockdep routes, which
// the older TestServerEndpoints predates.

import (
	"encoding/json"
	"io"
	"net/http/httptest"
	"strings"
	"testing"

	"thinlock/internal/lockdep"
	"thinlock/internal/lockprof"
	"thinlock/internal/object"
	"thinlock/internal/telemetry"
	"thinlock/internal/threading"
)

// newServerFixture enables telemetry, lockprof and lockdep, generates
// traffic that populates all three — two sequential threads nest two
// guards in inverse orders, so the lockdep graph holds one ABBA
// inversion — and returns a test server over lockprof.Handler. Not
// parallel: owns every global registration.
func newServerFixture(t *testing.T) *httptest.Server {
	t.Helper()
	telemetry.Enable(telemetry.New())
	t.Cleanup(telemetry.Disable)
	lockprof.Enable(lockprof.New(lockprof.Config{SampleEvery: 1}))
	t.Cleanup(lockprof.Disable)
	lockdep.Enable(lockdep.New())
	t.Cleanup(lockdep.Disable)

	f := newLockFixture(t)
	a, b := f.heap.New("GuardA"), f.heap.New("GuardB")
	reg := threading.NewRegistry()
	for i, order := range [][2]*object.Object{{a, b}, {b, a}} {
		order := order
		name := []string{"ab", "ba"}[i]
		done, err := reg.Go(name, func(th *threading.Thread) {
			f.l.Lock(th, order[0])
			f.l.Lock(th, order[1])
			if err := f.l.Unlock(th, order[1]); err != nil {
				t.Error(err)
			}
			if err := f.l.Unlock(th, order[0]); err != nil {
				t.Error(err)
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		<-done
	}
	// Recursive locking on the fixture object feeds lockprof's slow path
	// so the profiler endpoints have sites to show.
	f.l.Lock(f.th, f.o)
	f.l.Lock(f.th, f.o)
	if err := f.l.Unlock(f.th, f.o); err != nil {
		t.Fatal(err)
	}
	if err := f.l.Unlock(f.th, f.o); err != nil {
		t.Fatal(err)
	}

	srv := httptest.NewServer(lockprof.Handler())
	t.Cleanup(srv.Close)
	return srv
}

func get(t *testing.T, srv *httptest.Server, path string) (int, string, string) {
	t.Helper()
	resp, err := srv.Client().Get(srv.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(body), resp.Header.Get("Content-Type")
}

// Not parallel: owns the global telemetry/lockprof/lockdep registrations.
func TestEveryEndpointContentTypeAndShape(t *testing.T) {
	srv := newServerFixture(t)

	cases := []struct {
		path     string
		wantCT   string
		wantBody []string
	}{
		{"/", "text/plain",
			[]string{"/metrics", "/debug/lockdep/graph", "/debug/lockdep/waitfor", "/debug/lockdep/report"}},
		{"/metrics", "text/plain; version=0.0.4",
			[]string{"thinlock_slow_path_entries_total", "# TYPE"}},
		{"/debug/vars", "application/json",
			[]string{`"telemetry"`, `"lockprof"`}},
		{"/debug/lockprof/top", "text/plain",
			[]string{"SITE"}},
		{"/debug/lockprof/snapshot", "application/json",
			[]string{`"sites"`}},
		{"/debug/lockdep/graph", "text/vnd.graphviz",
			[]string{"digraph lockorder", "rankdir=LR", "GuardA#", "->"}},
		{"/debug/lockdep/graph?format=dot", "text/vnd.graphviz",
			[]string{"digraph lockorder"}},
		{"/debug/lockdep/graph?format=json", "application/json",
			[]string{`"nodes"`, `"edges"`, `"inversions"`, `"stats"`}},
		{"/debug/lockdep/waitfor", "application/json",
			[]string{`"waiters"`, `"cycles"`}},
		{"/debug/lockdep/report", "text/plain",
			[]string{"lockdep:", "lock-order inversion #1", "GuardA#", "GuardB#"}},
		{"/debug/lockdep/report?format=json", "application/json",
			[]string{`"stats"`, `"inversions"`, `"wait_for"`}},
	}
	for _, tc := range cases {
		code, body, ct := get(t, srv, tc.path)
		if code != 200 {
			t.Errorf("%s = %d, want 200", tc.path, code)
			continue
		}
		if !strings.HasPrefix(ct, tc.wantCT) {
			t.Errorf("%s Content-Type = %q, want prefix %q", tc.path, ct, tc.wantCT)
		}
		for _, want := range tc.wantBody {
			if !strings.Contains(body, want) {
				t.Errorf("%s body missing %q:\n%s", tc.path, want, body)
			}
		}
	}

	// The pprof endpoint is binary: gzip magic, not text.
	if code, body, ct := get(t, srv, "/debug/pprof/lockcontention"); code != 200 ||
		ct != "application/octet-stream" || len(body) < 2 || body[0] != 0x1f || body[1] != 0x8b {
		t.Errorf("/debug/pprof/lockcontention = %d (%s), want gzip payload", code, ct)
	}

	// JSON endpoints must actually parse.
	for _, path := range []string{
		"/debug/vars", "/debug/lockprof/snapshot",
		"/debug/lockdep/graph?format=json", "/debug/lockdep/waitfor",
		"/debug/lockdep/report?format=json",
	} {
		_, body, _ := get(t, srv, path)
		var v any
		if err := json.Unmarshal([]byte(body), &v); err != nil {
			t.Errorf("%s is not valid JSON: %v", path, err)
		}
	}

	// The graph JSON must carry the ABBA inversion with its edges marked.
	_, body, _ := get(t, srv, "/debug/lockdep/graph?format=json")
	var graph lockdep.GraphExport
	if err := json.Unmarshal([]byte(body), &graph); err != nil {
		t.Fatalf("graph json: %v", err)
	}
	if graph.Stats.Inversions != 1 {
		t.Errorf("graph stats report %d inversions, want 1", graph.Stats.Inversions)
	}
	inverted := 0
	for _, e := range graph.Edges {
		if e.Inverted {
			inverted++
		}
	}
	if inverted != 2 {
		t.Errorf("%d edges marked inverted, want the 2 ABBA legs", inverted)
	}
}

// Not parallel: owns the global lockdep registration (deliberately none).
func TestLockdepEndpointsAnswer503WhenDisabled(t *testing.T) {
	lockdep.Disable()
	telemetry.Enable(telemetry.New())
	t.Cleanup(telemetry.Disable)
	lockprof.Enable(lockprof.New(lockprof.Config{}))
	t.Cleanup(lockprof.Disable)
	srv := httptest.NewServer(lockprof.Handler())
	t.Cleanup(srv.Close)

	for _, path := range []string{
		"/debug/lockdep/graph", "/debug/lockdep/waitfor", "/debug/lockdep/report",
	} {
		if code, body, _ := get(t, srv, path); code != 503 || !strings.Contains(body, "lockdep disabled") {
			t.Errorf("%s with lockdep disabled = %d, want 503", path, code)
		}
	}
	// The rest of the mux must keep working without lockdep.
	if code, _, _ := get(t, srv, "/metrics"); code != 200 {
		t.Errorf("/metrics without lockdep = %d, want 200", code)
	}
}

// Not parallel: owns the global lockdep registration.
func TestLockdepEndpointsRejectUnknownFormats(t *testing.T) {
	lockdep.Enable(lockdep.New())
	t.Cleanup(lockdep.Disable)
	srv := httptest.NewServer(lockprof.Handler())
	t.Cleanup(srv.Close)

	for _, path := range []string{
		"/debug/lockdep/graph?format=yaml", "/debug/lockdep/report?format=yaml",
	} {
		if code, _, _ := get(t, srv, path); code != 400 {
			t.Errorf("%s = %d, want 400", path, code)
		}
	}
}
