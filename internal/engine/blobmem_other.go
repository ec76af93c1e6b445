//go:build !unix

package engine

// mapBlob falls back to the Go heap where there is no mmap.
func mapBlob(n int) ([]byte, error) { return make([]byte, n), nil }

// unmapBlob leaves a heap fallback to the collector.
func unmapBlob([]byte) {}
