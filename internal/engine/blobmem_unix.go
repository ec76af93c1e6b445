//go:build unix

package engine

import "syscall"

// mapBlob returns n zeroed bytes of anonymous memory mapped outside the
// Go heap: the collector neither scans them nor counts them toward its
// next heap goal. n must be positive; release the mapping with
// unmapBlob.
func mapBlob(n int) ([]byte, error) {
	return syscall.Mmap(-1, 0, n, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
}

// unmapBlob returns a mapBlob mapping, whole, to the kernel at once.
func unmapBlob(b []byte) { _ = syscall.Munmap(b) }
