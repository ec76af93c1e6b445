package engine

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"testing"
	"time"
)

func testTenants(t *testing.T, file TenantsFile) *Tenants {
	t.Helper()
	ts, err := NewTenants(file)
	if err != nil {
		t.Fatal(err)
	}
	return ts
}

func TestTenantsValidation(t *testing.T) {
	ok := TenantConfig{Name: "alice", Key: "alice-secret-key"}
	cases := map[string]TenantsFile{
		"no tenants":    {},
		"empty name":    {Tenants: []TenantConfig{{Name: "  ", Key: "long-enough-key"}}},
		"reserved name": {Tenants: []TenantConfig{{Name: AnonymousTenant, Key: "long-enough-key"}}},
		"dup name":      {Tenants: []TenantConfig{ok, {Name: "alice", Key: "other-long-key"}}},
		"short key":     {Tenants: []TenantConfig{{Name: "bob", Key: "short"}}},
		"dup key":       {Tenants: []TenantConfig{ok, {Name: "bob", Key: "alice-secret-key"}}},
	}
	for name, file := range cases {
		if _, err := NewTenants(file); err == nil {
			t.Errorf("NewTenants(%s) accepted an invalid file", name)
		}
	}
	ts := testTenants(t, TenantsFile{Tenants: []TenantConfig{ok, {Name: "bob", Key: "bob-secret-key-2"}}})
	if got := ts.Names(); len(got) != 2 || got[0] != "alice" || got[1] != "bob" {
		t.Fatalf("Names() = %v", got)
	}
}

func TestTenantsAuthenticate(t *testing.T) {
	ts := testTenants(t, TenantsFile{Tenants: []TenantConfig{
		{Name: "alice", Key: "alice-secret-key"},
		{Name: "bob", Key: "bob-secret-key-2"},
	}})
	for key, want := range map[string]string{
		"alice-secret-key": "alice",
		"bob-secret-key-2": "bob",
	} {
		if name, ok := ts.Authenticate(key); !ok || name != want {
			t.Fatalf("Authenticate(%q) = (%q, %v), want (%q, true)", key, name, ok, want)
		}
	}
	for _, bad := range []string{"", "alice-secret-keyX", "alice-secret-ke"} {
		if name, ok := ts.Authenticate(bad); ok {
			t.Fatalf("Authenticate(%q) = (%q, true), want refusal", bad, name)
		}
	}
	// Auth off: everyone is the anonymous tenant.
	var off *Tenants
	if name, ok := off.Authenticate("anything"); !ok || name != AnonymousTenant {
		t.Fatalf("nil registry Authenticate = (%q, %v)", name, ok)
	}
}

func TestTenantRateBucketAndQuota(t *testing.T) {
	ts := testTenants(t, TenantsFile{Tenants: []TenantConfig{
		{Name: "slow", Key: "slow-secret-key", RatePerSec: 2, Burst: 1},
		{Name: "free", Key: "free-secret-key", RatePerSec: -1, MaxQueued: -1},
		{Name: "capped", Key: "capped-secret-k", MaxQueued: 3},
	}})
	if ok, _ := ts.Allow("slow"); !ok {
		t.Fatal("first request must pass on a full bucket")
	}
	ok, wait := ts.Allow("slow")
	if ok || wait <= 0 || wait > time.Second {
		t.Fatalf("drained bucket Allow = (%v, %s), want refusal with ~0.5s Retry-After", ok, wait)
	}
	for i := 0; i < 1000; i++ {
		if ok, _ := ts.Allow("free"); !ok {
			t.Fatal("negative rate means unlimited")
		}
	}
	if q := ts.MaxQueued("free"); q != 0 {
		t.Fatalf("negative MaxQueued → quota %d, want 0 (unlimited)", q)
	}
	if q := ts.MaxQueued("capped"); q != 3 {
		t.Fatalf("MaxQueued(capped) = %d, want 3", q)
	}
	if q := ts.MaxQueued("unknown"); q != 0 {
		t.Fatalf("unknown tenant quota %d, want 0", q)
	}
}

func TestLoadTenantsFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "keys.json")
	doc := `{"default_max_queued": 7, "tenants": [{"name":"alice","key":"alice-secret-key","rate_per_sec":5}]}`
	if err := os.WriteFile(path, []byte(doc), 0o600); err != nil {
		t.Fatal(err)
	}
	ts, err := LoadTenantsFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if name, ok := ts.Authenticate("alice-secret-key"); !ok || name != "alice" {
		t.Fatalf("Authenticate = (%q, %v)", name, ok)
	}
	if q := ts.MaxQueued("alice"); q != 7 {
		t.Fatalf("file default MaxQueued = %d, want 7", q)
	}
	if _, err := LoadTenantsFile(filepath.Join(dir, "missing.json")); err == nil {
		t.Fatal("missing file must error")
	}
	if err := os.WriteFile(path, []byte("{broken"), 0o600); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadTenantsFile(path); err == nil {
		t.Fatal("unparseable file must error")
	}
}

// TestFairShareScheduling is the starvation contract: with one worker
// and a 120-job backlog from tenant A (a sweep's worth of cells),
// tenant B's single job must run next rather than queue behind the
// backlog — round-robin across tenants, priority order within one.
func TestFairShareScheduling(t *testing.T) {
	e := newTestEngine(t, Options{Workers: 1})
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	gate := make(chan struct{})
	started := make(chan struct{})
	// The single worker executes jobs strictly sequentially, so an
	// append inside each job's run records the true run order.
	var mu sync.Mutex
	var order []string
	ran := func(_ context.Context, j *Job) (*Result, error) {
		mu.Lock()
		order = append(order, j.Tenant)
		mu.Unlock()
		return &Result{}, nil
	}
	stubRuns(e, map[string]stubRun{
		"gate": func(ctx context.Context, _ *Job) (*Result, error) {
			close(started)
			select {
			case <-gate:
				return &Result{}, nil
			case <-ctx.Done():
				return nil, ctx.Err()
			}
		},
		"ran": ran,
	})
	if _, err := e.SubmitAs(stubSpec("gate"), 0, "", "alice"); err != nil {
		t.Fatal(err)
	}
	<-started

	for i := 0; i < 120; i++ {
		spec := stubSpec("ran")
		spec.Seed = uint64(i)
		if _, err := e.SubmitAs(spec, 0, "", "alice"); err != nil {
			t.Fatal(err)
		}
	}
	single := stubSpec("ran")
	single.Seed = 120 // past alice's seeds, so it does not coalesce
	bob, err := e.SubmitAs(single, 0, "", "bob")
	if err != nil {
		t.Fatal(err)
	}

	close(gate)
	if _, err := bob.Wait(ctx); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	pos := -1
	for i, tenant := range order {
		if tenant == "bob" {
			pos = i
			break
		}
	}
	mu.Unlock()
	if pos < 0 || pos > 2 {
		t.Fatalf("tenant B's job ran at position %d behind tenant A's 120-job backlog; fair share should serve it within one round-robin turn (order head: %v)", pos, order[:min(8, len(order))])
	}
}

// authedReq performs an HTTP request with an optional bearer key and
// decodes the JSON body.
func authedReq(t *testing.T, client *http.Client, method, url, key string, body, out any) *http.Response {
	t.Helper()
	var rd *bytes.Reader
	if body != nil {
		raw, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		rd = bytes.NewReader(raw)
	} else {
		rd = bytes.NewReader(nil)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	if key != "" {
		req.Header.Set("Authorization", "Bearer "+key)
	}
	resp, err := client.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("decode %s %s: %v", method, url, err)
		}
	}
	return resp
}

// TestServerAuth drives the API-key middleware: health stays open, a
// missing or wrong key is 401 with the structured envelope, a good key
// admits the request and stamps the tenant on the job.
func TestServerAuth(t *testing.T) {
	e := newTestEngine(t, Options{Workers: 2})
	ts := testTenants(t, TenantsFile{Tenants: []TenantConfig{
		{Name: "alice", Key: "alice-secret-key"},
	}})
	srv := httptest.NewServer(NewServer(e, WithTenants(ts)))
	defer srv.Close()
	client := srv.Client()

	// The health endpoint answers without a key (probes have none).
	if code := getJSON(t, client, srv.URL+"/v1/healthz", nil); code != http.StatusOK {
		t.Fatalf("v1 healthz with auth on = %d", code)
	}

	var env errorEnvelope
	resp := authedReq(t, client, http.MethodGet, srv.URL+"/v1/jobs", "", nil, &env)
	if resp.StatusCode != http.StatusUnauthorized || env.Err.Code != ErrCodeUnauthorized {
		t.Fatalf("no key = %d %+v, want 401 unauthorized", resp.StatusCode, env)
	}
	resp = authedReq(t, client, http.MethodGet, srv.URL+"/v1/jobs", "wrong-key-entirely", nil, &env)
	if resp.StatusCode != http.StatusUnauthorized || env.Err.Code != ErrCodeUnauthorized {
		t.Fatalf("bad key = %d %+v, want 401 unauthorized", resp.StatusCode, env)
	}

	var view JobView
	resp = authedReq(t, client, http.MethodPost, srv.URL+"/v1/jobs", "alice-secret-key",
		SubmitRequest{Spec: tinySpec("FedAvg"), Wait: true}, &view)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("authed submit = %d", resp.StatusCode)
	}
	if view.Tenant != "alice" || view.State != StateDone {
		t.Fatalf("authed job view = %+v, want tenant alice done", view)
	}
}

// TestServerRateLimit drains a one-token bucket and checks the 429
// carries both the envelope code and a usable Retry-After header.
func TestServerRateLimit(t *testing.T) {
	e := newTestEngine(t, Options{Workers: 1})
	ts := testTenants(t, TenantsFile{Tenants: []TenantConfig{
		{Name: "limited", Key: "limited-secret-k", RatePerSec: 1, Burst: 1},
	}})
	srv := httptest.NewServer(NewServer(e, WithTenants(ts)))
	defer srv.Close()
	client := srv.Client()

	if resp := authedReq(t, client, http.MethodGet, srv.URL+"/v1/jobs", "limited-secret-k", nil, nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("first request = %d", resp.StatusCode)
	}
	var env errorEnvelope
	resp := authedReq(t, client, http.MethodGet, srv.URL+"/v1/jobs", "limited-secret-k", nil, &env)
	if resp.StatusCode != http.StatusTooManyRequests || env.Err.Code != ErrCodeRateLimited {
		t.Fatalf("drained bucket = %d %+v, want 429 rate_limited", resp.StatusCode, env)
	}
	ra, err := strconv.Atoi(resp.Header.Get("Retry-After"))
	if err != nil || ra < 1 {
		t.Fatalf("Retry-After = %q, want integer seconds >= 1", resp.Header.Get("Retry-After"))
	}
	if got := e.metrics.reg; got == nil {
		t.Fatal("engine registry missing")
	}
}

// TestServerQueueQuota wedges the single worker and fills the tenant's
// one-slot queue: the next submission is 429 quota_exceeded, while a
// resubmission of the queued Spec still coalesces free of charge.
func TestServerQueueQuota(t *testing.T) {
	e := newTestEngine(t, Options{Workers: 1})
	ts := testTenants(t, TenantsFile{Tenants: []TenantConfig{
		{Name: "quota", Key: "quota-secret-key", MaxQueued: 1},
	}})
	srv := httptest.NewServer(NewServer(e, WithTenants(ts)))
	defer srv.Close()
	client := srv.Client()

	started := make(chan struct{})
	stubRuns(e, map[string]stubRun{"quota-gate": func(ctx context.Context, _ *Job) (*Result, error) {
		close(started)
		<-ctx.Done()
		return nil, ctx.Err()
	}})
	if _, err := e.SubmitAs(stubSpec("quota-gate"), 0, "", "quota"); err != nil {
		t.Fatal(err)
	}
	<-started

	fill := tinySpec("FedAvg")
	fill.Seed = 101
	var queued JobView
	if resp := authedReq(t, client, http.MethodPost, srv.URL+"/v1/jobs", "quota-secret-key",
		SubmitRequest{Spec: fill}, &queued); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("fill submit = %d", resp.StatusCode)
	}

	over := tinySpec("FedAvg")
	over.Seed = 102
	var env errorEnvelope
	resp := authedReq(t, client, http.MethodPost, srv.URL+"/v1/jobs", "quota-secret-key",
		SubmitRequest{Spec: over}, &env)
	if resp.StatusCode != http.StatusTooManyRequests || env.Err.Code != ErrCodeQuotaExceeded {
		t.Fatalf("over-quota submit = %d %+v, want 429 quota_exceeded", resp.StatusCode, env)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("over-quota 429 missing Retry-After")
	}

	// Identical Spec: coalesced onto the queued job, not counted.
	var co JobView
	if resp := authedReq(t, client, http.MethodPost, srv.URL+"/v1/jobs", "quota-secret-key",
		SubmitRequest{Spec: fill}, &co); resp.StatusCode != http.StatusAccepted || co.ID != queued.ID {
		t.Fatalf("coalesced resubmit = %d %+v, want the queued job back", resp.StatusCode, co)
	}
}
