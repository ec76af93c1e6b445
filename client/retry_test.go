package client

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"
)

// rateLimitedHandler answers 429 with a Retry-After for the first
// `refusals` submissions, then accepts.
func rateLimitedHandler(refusals int32, retryAfter string) (*int32, http.HandlerFunc) {
	var calls int32
	return &calls, func(w http.ResponseWriter, r *http.Request) {
		n := atomic.AddInt32(&calls, 1)
		w.Header().Set("Content-Type", "application/json")
		if n <= refusals {
			if retryAfter != "" {
				w.Header().Set("Retry-After", retryAfter)
			}
			w.WriteHeader(http.StatusTooManyRequests)
			fmt.Fprint(w, `{"error":{"code":"rate_limited","message":"slow down"}}`)
			return
		}
		w.WriteHeader(http.StatusAccepted)
		json.NewEncoder(w).Encode(JobView{ID: "job-1"})
	}
}

// TestSubmitRetriesRateLimited checks the submit backoff loop: a 429'd
// submission sleeps out the server's Retry-After and retries, without
// the caller seeing the refusals.
func TestSubmitRetriesRateLimited(t *testing.T) {
	calls, h := rateLimitedHandler(2, "7")
	srv := httptest.NewServer(h)
	defer srv.Close()

	c := New(srv.URL, WithAPIKey("soak-test-key-1"))
	var slept []time.Duration
	c.retrySleep = func(ctx context.Context, d time.Duration) error {
		slept = append(slept, d)
		return nil
	}
	view, err := c.Submit(context.Background(), Spec{}, SubmitOptions{})
	if err != nil {
		t.Fatalf("Submit over transient 429s = %v", err)
	}
	if view.ID != "job-1" || *calls != 3 {
		t.Fatalf("view %+v after %d calls, want job-1 after 3", view, *calls)
	}
	if len(slept) != 2 || slept[0] != 7*time.Second || slept[1] != 7*time.Second {
		t.Fatalf("backoff slept %v, want two 7s waits from Retry-After", slept)
	}
}

// TestSubmitRetryExhaustionAndClamp: a persistent 429 surfaces as a
// typed, RateLimited error after the retry budget; an absurd
// Retry-After is clamped; a missing one defaults to 1s.
func TestSubmitRetryExhaustionAndClamp(t *testing.T) {
	calls, h := rateLimitedHandler(1<<30, "3600")
	srv := httptest.NewServer(h)
	defer srv.Close()

	c := New(srv.URL)
	var slept []time.Duration
	c.retrySleep = func(ctx context.Context, d time.Duration) error {
		slept = append(slept, d)
		return nil
	}
	_, err := c.SubmitSweep(context.Background(), Sweep{}, SubmitOptions{})
	var ae *APIError
	if !errors.As(err, &ae) || !ae.RateLimited() {
		t.Fatalf("exhausted retries = %v, want a RateLimited APIError", err)
	}
	if ae.RetryAfter != 3600*time.Second {
		t.Fatalf("typed error RetryAfter = %s, want the server's 3600s", ae.RetryAfter)
	}
	if *calls != maxSubmitRetries+1 {
		t.Fatalf("%d attempts, want %d", *calls, maxSubmitRetries+1)
	}
	for _, d := range slept {
		if d != maxRetryAfter {
			t.Fatalf("slept %v, want every wait clamped to %s", slept, maxRetryAfter)
		}
	}

	// No Retry-After header → 1s default pacing.
	_, h2 := rateLimitedHandler(1<<30, "")
	srv2 := httptest.NewServer(h2)
	defer srv2.Close()
	c2 := New(srv2.URL)
	var slept2 []time.Duration
	c2.retrySleep = func(ctx context.Context, d time.Duration) error {
		slept2 = append(slept2, d)
		return nil
	}
	if _, err := c2.Submit(context.Background(), Spec{}, SubmitOptions{}); err == nil {
		t.Fatal("persistent 429 must surface")
	}
	for _, d := range slept2 {
		if d != time.Second {
			t.Fatalf("slept %v, want 1s defaults", slept2)
		}
	}
}

// TestSubmitRetryCtxCancelled: ctx dying mid-backoff surfaces the
// original 429, not a bare context error.
func TestSubmitRetryCtxCancelled(t *testing.T) {
	_, h := rateLimitedHandler(1<<30, "5")
	srv := httptest.NewServer(h)
	defer srv.Close()

	c := New(srv.URL)
	c.retrySleep = func(ctx context.Context, d time.Duration) error {
		return context.Canceled
	}
	_, err := c.Submit(context.Background(), Spec{}, SubmitOptions{})
	var ae *APIError
	if !errors.As(err, &ae) || !ae.RateLimited() {
		t.Fatalf("ctx-cancelled backoff = %v, want the original 429 APIError", err)
	}
}

// TestAuthHeaderEverywhere: every request path of the SDK carries the
// configured bearer key.
func TestAuthHeaderEverywhere(t *testing.T) {
	const key = "auth-test-key-22"
	var misses atomic.Int32
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Header.Get("Authorization") != "Bearer "+key {
			misses.Add(1)
		}
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprint(w, `{}`)
	}))
	defer srv.Close()

	c := New(srv.URL, WithAPIKey(key))
	ctx := context.Background()
	c.Healthz(ctx)
	c.Stats(ctx)
	c.Submit(ctx, Spec{}, SubmitOptions{})
	c.Job(ctx, "job-1")
	c.Jobs(ctx, ListOptions{})
	c.Sweeps(ctx, ListOptions{})
	c.Cancel(ctx, "job-1")
	c.Model(ctx, "job-1")
	if n := misses.Load(); n != 0 {
		t.Fatalf("%d requests arrived without the API key", n)
	}
}
