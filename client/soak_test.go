package client_test

import (
	"errors"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/pardon-feddg/pardon/client"
	"github.com/pardon-feddg/pardon/internal/engine"
	"github.com/pardon-feddg/pardon/internal/telemetry"
)

const (
	soakAliceKey = "soak-alice-secret"
	soakBobKey   = "soak-bob-secret-2"
)

func soakTenants(t *testing.T) *engine.Tenants {
	t.Helper()
	// Generous rate limits: the soak measures durability and fairness
	// under concurrency, not 429 pacing (retry_test covers that).
	ts, err := engine.NewTenants(engine.TenantsFile{Tenants: []engine.TenantConfig{
		{Name: "alice", Key: soakAliceKey, RatePerSec: 5000, Burst: 5000},
		{Name: "bob", Key: soakBobKey, RatePerSec: 5000, Burst: 5000},
	}})
	if err != nil {
		t.Fatal(err)
	}
	return ts
}

// TestClientAuthAgainstServer exercises the SDK against a tenanted
// server: typed 401s without or with a wrong key, tenant attribution
// with the right one.
func TestClientAuthAgainstServer(t *testing.T) {
	e, err := engine.New(engine.Options{Workers: 2, Metrics: telemetry.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(e.Close)
	srv := httptest.NewServer(engine.NewServer(e, engine.WithTenants(soakTenants(t))))
	t.Cleanup(srv.Close)
	ctx := testCtx(t)

	var ae *client.APIError
	if _, err := client.New(srv.URL).Jobs(ctx, client.ListOptions{}); !errors.As(err, &ae) || !ae.Unauthorized() {
		t.Fatalf("keyless Jobs = %v, want Unauthorized APIError", err)
	}
	if _, err := client.New(srv.URL, client.WithAPIKey("wrong-key-123")).Jobs(ctx, client.ListOptions{}); !errors.As(err, &ae) || !ae.Unauthorized() {
		t.Fatalf("wrong-key Jobs = %v, want Unauthorized APIError", err)
	}

	c := client.New(srv.URL, client.WithAPIKey(soakBobKey))
	view, err := c.Submit(ctx, tinySpec("FedAvg"), client.SubmitOptions{Wait: true})
	if err != nil {
		t.Fatal(err)
	}
	if view.Tenant != "bob" || view.State != engine.StateDone {
		t.Fatalf("authed job view = %+v, want tenant bob done", view)
	}
	// The health probe stays open for unauthenticated checks.
	if _, err := client.New(srv.URL).Healthz(ctx); err != nil {
		t.Fatalf("keyless Healthz = %v, want open", err)
	}
}

// TestClientSweepsListing pages GET /v1/sweeps through the SDK.
func TestClientSweepsListing(t *testing.T) {
	c, _, _ := newTestServer(t)
	ctx := testCtx(t)

	var ids []string
	for _, seed := range []uint64{1, 2, 3} {
		base := tinySpec("FedAvg")
		base.Seed = seed
		view, err := c.SubmitSweep(ctx, client.Sweep{Base: base, Seeds: []client.SeedSpec{{Seed: seed}}}, client.SubmitOptions{})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, view.ID)
	}

	page, err := c.Sweeps(ctx, client.ListOptions{Limit: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(page.Sweeps) != 2 || page.Next == "" {
		t.Fatalf("first page = %d sweeps next %q, want 2 with a cursor", len(page.Sweeps), page.Next)
	}
	// Newest first: the last-submitted sweep leads, views are light.
	if page.Sweeps[0].ID != ids[2] || len(page.Sweeps[0].Jobs) != 0 {
		t.Fatalf("first page head = %+v, want %s without job views", page.Sweeps[0], ids[2])
	}
	rest, err := c.Sweeps(ctx, client.ListOptions{Limit: 2, After: page.Next})
	if err != nil {
		t.Fatal(err)
	}
	if len(rest.Sweeps) != 1 || rest.Sweeps[0].ID != ids[0] || rest.Next != "" {
		t.Fatalf("second page = %+v, want only %s and no cursor", rest.Sweeps, ids[0])
	}
}

// TestSoakMultiTenantRestart is the durability soak: two tenants fire
// hundreds of concurrent submissions through the SDK at a server with a
// bounded cache while the engine restarts mid-run on the same cache
// dir. Every submission must eventually land (transient 503s during
// the restart window get retried), and after the restart all unique
// work completes — mostly from cache or the replayed journal, never
// lost.
func TestSoakMultiTenantRestart(t *testing.T) {
	dir := t.TempDir()
	ctx := testCtx(t)
	tenants := soakTenants(t)

	boot := func(workers int) *engine.Engine {
		e, err := engine.New(engine.Options{
			Workers:       workers,
			CacheDir:      dir,
			CacheMaxBytes: 4 << 20,
			Metrics:       telemetry.NewRegistry(),
		})
		if err != nil {
			t.Fatal(err)
		}
		return e
	}

	// The front door outlives the engine swap so the SDK keeps one base
	// URL across the "restart".
	var handler atomic.Value // http.Handler
	e1 := boot(1)
	handler.Store(http.Handler(engine.NewServer(e1, engine.WithTenants(tenants))))
	front := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		handler.Load().(http.Handler).ServeHTTP(w, r)
	}))
	t.Cleanup(front.Close)

	specFor := func(i int) client.Spec {
		sp := tinySpec("FedAvg")
		if i%2 == 1 {
			sp.Method = "FedSR"
		}
		sp.Seed = uint64(1 + (i/2)%3) // 2 methods x 3 seeds = 6 unique cells
		return sp
	}

	const perTenant = 150
	var submitted atomic.Int32
	var badErrs sync.Map // error text -> true, for anything not retried away
	run := func(key string) func() {
		c := client.New(front.URL, client.WithAPIKey(key), client.WithHTTPClient(front.Client()))
		return func() {
			var wg sync.WaitGroup
			for i := 0; i < perTenant; i++ {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					sp := specFor(i)
					for attempt := 0; ; attempt++ {
						_, err := c.Submit(ctx, sp, client.SubmitOptions{})
						if err == nil {
							submitted.Add(1)
							return
						}
						// The restart window answers 503 (draining);
						// anything else is a real failure.
						var ae *client.APIError
						if !errors.As(err, &ae) || ae.Status != http.StatusServiceUnavailable || attempt > 200 {
							badErrs.Store(err.Error(), true)
							return
						}
						select {
						case <-ctx.Done():
							badErrs.Store(ctx.Err().Error(), true)
							return
						case <-time.After(50 * time.Millisecond):
						}
					}
				}(i)
			}
			wg.Wait()
		}
	}

	var all sync.WaitGroup
	for _, key := range []string{soakAliceKey, soakBobKey} {
		all.Add(1)
		go func(key string) {
			defer all.Done()
			run(key)()
		}(key)
	}

	// Restart mid-run: once half the submissions are in, drain the old
	// engine and boot a new one on the same cache dir. The journal
	// replays whatever had not finished.
	for submitted.Load() < perTenant {
		time.Sleep(5 * time.Millisecond)
	}
	e1.Close()
	e2 := boot(4)
	t.Cleanup(e2.Close)
	handler.Store(http.Handler(engine.NewServer(e2, engine.WithTenants(tenants))))
	all.Wait()

	if got := submitted.Load(); got != 2*perTenant {
		var msgs []string
		badErrs.Range(func(k, _ any) bool { msgs = append(msgs, k.(string)); return true })
		t.Fatalf("only %d of %d submissions landed; failures: %v", got, 2*perTenant, msgs)
	}

	// Every unique cell completes on the rebooted engine — served from
	// cache or retrained off the replayed journal, but never lost.
	c := client.New(front.URL, client.WithAPIKey(soakAliceKey), client.WithHTTPClient(front.Client()))
	for i := 0; i < 6; i++ {
		view, err := c.Submit(ctx, specFor(i), client.SubmitOptions{Wait: true})
		if err != nil {
			t.Fatalf("post-restart wait on cell %d: %v", i, err)
		}
		if view.State != engine.StateDone || view.Result == nil {
			t.Fatalf("post-restart cell %d = %+v, want done with result", i, view)
		}
	}
	// The bounded store kept every live result (6 small cells fit well
	// under the cap) and the journal drained to its terminal states.
	st := e2.Stats()
	if st.StoreEntries == 0 {
		t.Fatalf("rebooted engine stats = %+v, want cached entries", st)
	}
}
