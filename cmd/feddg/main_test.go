package main

import (
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"github.com/pardon-feddg/pardon/internal/engine"
	"github.com/pardon-feddg/pardon/internal/telemetry"
)

// TestSaveModelsCountsMissingCheckpoints: a done job whose checkpoint
// the store no longer holds is counted, not skipped in silence.
func TestSaveModelsCountsMissingCheckpoints(t *testing.T) {
	eng, err := engine.New(engine.Options{Workers: 1, Metrics: telemetry.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	var keys []string
	for _, seed := range []uint64{1, 2} {
		j, err := eng.Submit(engine.Spec{
			Method: "FedAvg", Dataset: "PACS", GenSeed: 12,
			Split:  engine.SplitSpec{Name: "save", Train: []int{0, 1}, Test: []int{3}},
			Lambda: 0.1, Clients: 2, SampleK: 2, Rounds: 1, PerDomain: 24, EvalPer: 12,
			Seed: seed,
		}, 0)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := j.Wait(ctx); err != nil {
			t.Fatal(err)
		}
		keys = append(keys, j.Key)
	}
	eng.Store().DropBlob(keys[0]) // as if evicted over the memory budget

	dir := t.TempDir()
	written, missing, err := saveModels(eng, dir)
	if err != nil {
		t.Fatal(err)
	}
	if written != 1 || missing != 1 {
		t.Fatalf("saveModels wrote %d and found %d missing, want 1 and 1", written, missing)
	}
	if files, _ := os.ReadDir(dir); len(files) != 1 {
		t.Fatalf("%d files exported, want 1", len(files))
	}
}

// refusedFlag runs a CLI entry point that must refuse -name before it
// creates an engine, a listener or a directory, and fails the test when
// it does not return at once with an error naming the flag. An entry
// point that accepts the flag instead runs until it is stopped, so it
// is given a few seconds, not the test's deadline.
func refusedFlag(t *testing.T, name string, run func() error) {
	t.Helper()
	done := make(chan error, 1)
	go func() { done <- run() }()
	select {
	case err := <-done:
		if err == nil || !strings.Contains(err.Error(), "-"+name) {
			t.Fatalf("-%s: got error %v, want one naming -%s", name, err, name)
		}
	case <-time.After(5 * time.Second):
		t.Fatalf("-%s was accepted: the command is still running", name)
	}
}

// inEmptyDir runs the test from a fresh directory and checks at cleanup
// that nothing was created in it, such as a default cache directory.
func inEmptyDir(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	prev, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(dir); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if files, _ := os.ReadDir(dir); len(files) > 0 {
			t.Errorf("%d entries created in the working directory, want none (first: %s)", len(files), files[0].Name())
		}
		if err := os.Chdir(prev); err != nil {
			t.Error(err)
		}
	})
	return dir
}

// TestServeRefusesFlagsOfTheOtherMode: each serve flag that one mode
// does not read is refused by name in that mode, before any engine,
// listener or directory exists. -cache points at a path that must stay
// absent, and the working directory must stay empty, so neither the
// coordinator's nor a worker's default cache directory is made.
func TestServeRefusesFlagsOfTheOtherMode(t *testing.T) {
	dir := inEmptyDir(t)
	cache := filepath.Join(dir, "cache")
	worker := []string{"-worker", "-join", "http://127.0.0.1:1", "-worker-name", "w"}
	coordinator := []string{"-addr", "127.0.0.1:0", "-cache", cache}
	for _, tc := range []struct {
		mode []string
		flag []string
	}{
		{worker, []string{"-addr", "127.0.0.1:0"}},
		{worker, []string{"-api-keys", "keys.json"}},
		{worker, []string{"-lease-ttl", "2s"}},
		{worker, []string{"-dispatch-only"}},
		{worker, []string{"-cache", cache}},
		{worker, []string{"-cache-max-bytes", "1048576"}},
		{worker, []string{"-workers", "2"}},
		{worker, []string{"-parallelism", "2"}},
		{coordinator, []string{"-join", "http://127.0.0.1:1"}},
		{coordinator, []string{"-worker-name", "w"}},
		{coordinator, []string{"-slots", "2"}},
		{coordinator, []string{"-api-key", "key-0123456789abcdef"}},
	} {
		args := append(append([]string{}, tc.mode...), tc.flag...)
		refusedFlag(t, strings.TrimPrefix(tc.flag[0], "-"), func() error { return serve(args) })
		if _, err := os.Stat(cache); !os.IsNotExist(err) {
			t.Fatalf("serve %v created %s", args, cache)
		}
	}
}

// TestNegativeWorkersRefused: a negative -workers would build a
// dispatch-only engine, under which `feddg -exp` waits forever and
// `feddg serve` silently means -dispatch-only; -dispatch-only with an
// explicit -workers sizes a pool that does not exist.
func TestNegativeWorkersRefused(t *testing.T) {
	cache := filepath.Join(inEmptyDir(t), "cache")
	refusedFlag(t, "workers", func() error { return expCmd([]string{"-exp", "fig4", "-workers", "-1"}) })
	for _, args := range [][]string{
		{"-workers", "-1"},
		{"-dispatch-only", "-workers", "2"},
	} {
		args = append(args, "-addr", "127.0.0.1:0", "-cache", cache)
		refusedFlag(t, "workers", func() error { return serve(args) })
	}
	if _, err := os.Stat(cache); !os.IsNotExist(err) {
		t.Fatalf("a refused serve created %s", cache)
	}
}
