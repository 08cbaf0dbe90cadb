//go:build !linux

package main

// fsType names the filesystem holding dir; only Linux is recognised.
func fsType(string) string { return "unknown" }

// flushFS is a no-op where syscall.Sync is not used.
func flushFS() {}
